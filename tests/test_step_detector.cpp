#include "sensors/step_detector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "geometry/angles.hpp"
#include "sensors/accelerometer_model.hpp"
#include "util/rng.hpp"

namespace moloc::sensors {
namespace {

/// A clean synthetic gait: `steps` full sine cycles at `cadence`.
std::vector<double> cleanGait(int steps, double cadence,
                              double sampleRate) {
  const auto count =
      static_cast<std::size_t>(steps / cadence * sampleRate);
  std::vector<double> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / sampleRate;
    samples.push_back(9.81 +
                      2.8 * std::sin(2.0 * geometry::kPi * cadence * t));
  }
  return samples;
}

TEST(StepDetector, CountsCleanSteps) {
  const auto samples = cleanGait(10, 1.8, 50.0);
  const StepDetector detector;
  EXPECT_EQ(detector.detect(samples, 50.0).size(), 10u);
}

TEST(StepDetector, CountsNoisySteps) {
  AccelParams params;
  AccelerometerModel model(params);
  util::Rng rng(1);
  // 10 steps at 1.8 Hz and 50 Hz sampling.
  const auto count = static_cast<std::size_t>(10.0 / 1.8 * 50.0);
  const auto samples = model.walkingSamples(count, 1.8, rng);
  const StepDetector detector;
  const auto peaks = detector.detect(samples, 50.0);
  EXPECT_NEAR(static_cast<double>(peaks.size()), 10.0, 1.0);
}

TEST(StepDetector, NoStepsInIdle) {
  AccelerometerModel model;
  util::Rng rng(2);
  const auto samples = model.idleSamples(300, rng);
  const StepDetector detector;
  EXPECT_LE(detector.detect(samples, 50.0).size(), 1u);
}

TEST(StepDetector, EmptyAndTinyInputs) {
  const StepDetector detector;
  EXPECT_TRUE(detector.detect({}, 50.0).empty());
  const std::vector<double> two{9.8, 12.0};
  EXPECT_TRUE(detector.detect(two, 50.0).empty());
}

TEST(StepDetector, BadSampleRateYieldsNothing) {
  const auto samples = cleanGait(5, 1.8, 50.0);
  const StepDetector detector;
  EXPECT_TRUE(detector.detect(samples, 0.0).empty());
}

TEST(StepDetector, PeaksAreAscendingAndSeparated) {
  const auto samples = cleanGait(8, 2.0, 50.0);
  StepDetectorParams params;
  const StepDetector detector(params);
  const auto peaks = detector.detect(samples, 50.0);
  const auto minGap = static_cast<std::size_t>(
      params.minStepIntervalSec * 50.0);
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    EXPECT_LT(peaks[i - 1], peaks[i]);
    EXPECT_GE(peaks[i] - peaks[i - 1], minGap);
  }
}

TEST(StepDetector, RefractoryWindowSuppressesHarmonic) {
  // A gait with a strong second harmonic would double-count without the
  // refractory gap.
  const double cadence = 1.8;
  const double sampleRate = 50.0;
  const auto count = static_cast<std::size_t>(10 / cadence * sampleRate);
  std::vector<double> samples;
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / sampleRate;
    const double theta = 2.0 * geometry::kPi * cadence * t;
    samples.push_back(9.81 + 2.8 * std::sin(theta) +
                      1.4 * std::sin(2.0 * theta));
  }
  const StepDetector detector;
  EXPECT_NEAR(static_cast<double>(detector.detect(samples, 50.0).size()),
              10.0, 1.0);
}

TEST(StepDetector, DetectTimesMatchIndices) {
  const auto samples = cleanGait(5, 1.8, 50.0);
  const StepDetector detector;
  const auto indices = detector.detect(samples, 50.0);
  const auto times = detector.detectTimes(samples, 50.0);
  ASSERT_EQ(indices.size(), times.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    EXPECT_DOUBLE_EQ(times[i], static_cast<double>(indices[i]) / 50.0);
}

TEST(StepDetector, SmoothPreservesConstant) {
  const std::vector<double> flat(20, 5.0);
  const auto smoothed = StepDetector::smooth(flat, 5);
  for (double v : smoothed) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(StepDetector, SmoothWindowOneIsIdentity) {
  const std::vector<double> xs{1.0, 5.0, 2.0};
  EXPECT_EQ(StepDetector::smooth(xs, 1), xs);
}

TEST(StepDetector, SmoothReducesSpikes) {
  std::vector<double> xs(21, 0.0);
  xs[10] = 10.0;
  const auto smoothed = StepDetector::smooth(xs, 5);
  EXPECT_LT(smoothed[10], 10.0);
  EXPECT_GT(smoothed[9], 0.0);
}

/// Parameterized: detection recovers the true step count across
/// cadences and trace lengths. gtest names each case after the raw
/// bytes of its parameter, so the struct must have no padding: a
/// 64-bit step count keeps every byte defined and the names stable.
struct GaitCase {
  std::int64_t steps;
  double cadence;
};
static_assert(sizeof(GaitCase) == sizeof(std::int64_t) + sizeof(double));

class StepCountSweepTest : public ::testing::TestWithParam<GaitCase> {};

TEST_P(StepCountSweepTest, RecoversTrueCount) {
  const auto [steps, cadence] = GetParam();
  const auto samples = cleanGait(static_cast<int>(steps), cadence, 50.0);
  const StepDetector detector;
  EXPECT_EQ(detector.detect(samples, 50.0).size(),
            static_cast<std::size_t>(steps));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StepCountSweepTest,
    ::testing::Values(GaitCase{4, 1.5}, GaitCase{6, 1.7}, GaitCase{8, 1.9},
                      GaitCase{10, 2.1}, GaitCase{15, 1.8},
                      GaitCase{20, 2.0}));

}  // namespace
}  // namespace moloc::sensors
