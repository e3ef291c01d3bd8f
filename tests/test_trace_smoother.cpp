#include "core/trace_smoother.hpp"

#include <gtest/gtest.h>

#include "eval/experiment_world.hpp"
#include "motion_support.hpp"

namespace moloc::core {
namespace {

/// The twin world from the engine tests: 0/2 and 1/3 are twin pairs,
/// 4 is unique.  Motion DB knows 0-1, 2-3, 1-4, 3-4.
struct TwinWorld {
  TwinWorld() {
    fingerprints.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
    fingerprints.addLocation(1, radio::Fingerprint({-55.0, -57.0}));
    fingerprints.addLocation(2, radio::Fingerprint({-50.1, -60.1}));
    fingerprints.addLocation(3, radio::Fingerprint({-55.1, -57.1}));
    fingerprints.addLocation(4, radio::Fingerprint({-70.0, -40.0}));
  }
  radio::FingerprintDatabase fingerprints;
  MotionDatabase motion =
      test_support::mirroredDb(5, {{0, 1, {90.0, 4.0, 4.0, 0.3, 20}},
                                   {2, 3, {90.0, 4.0, 4.0, 0.3, 20}},
                                   {1, 4, {117.0, 4.0, 8.9, 0.4, 20}},
                                   {3, 4, {63.0, 4.0, 8.9, 0.4, 20}}});
};

using Motions = std::vector<std::optional<sensors::MotionMeasurement>>;

TEST(TraceSmoother, RejectsBadShapes) {
  TwinWorld world;
  const TraceSmoother smoother(world.fingerprints, world.motion);
  EXPECT_THROW(smoother.smooth({}, {}), std::invalid_argument);
  const std::vector<radio::Fingerprint> one{
      radio::Fingerprint({-50.0, -60.0})};
  const Motions wrong{std::nullopt};
  EXPECT_THROW(smoother.smooth(one, wrong), std::invalid_argument);
}

TEST(TraceSmoother, SingleScanIsFingerprintArgmax) {
  TwinWorld world;
  const TraceSmoother smoother(world.fingerprints, world.motion);
  const std::vector<radio::Fingerprint> scans{
      radio::Fingerprint({-70.0, -40.0})};
  const auto path = smoother.smooth(scans, {});
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 4);
}

TEST(TraceSmoother, FixesErroneousInitialRetroactively) {
  // The causal engine's Table-I weakness: an ambiguous initial scan
  // whose best match is the wrong twin.  Offline, the later
  // unambiguous evidence propagates *backwards* and corrects step 0.
  TwinWorld world;
  MoLocConfig config;
  config.candidateCount = 5;
  const TraceSmoother smoother(world.fingerprints, world.motion,
                               config);

  // Truth: 0 -> 1 -> 4.  The initial scan is closer to twin 2.
  const std::vector<radio::Fingerprint> scans{
      radio::Fingerprint({-50.08, -60.08}),  // Nearer twin 2 than 0.
      radio::Fingerprint({-55.05, -57.05}),  // Ambiguous 1 vs 3.
      radio::Fingerprint({-70.0, -40.0}),    // Unambiguous 4.
  };
  const Motions motions{
      sensors::MotionMeasurement{90.0, 4.0},   // East: 0->1 or 2->3.
      sensors::MotionMeasurement{117.0, 8.9},  // Only matches 1->4.
  };

  // Sanity: the fingerprint argmax of scan 0 is the wrong twin.
  EXPECT_EQ(world.fingerprints.nearest(scans[0]), 2);

  const auto path = smoother.smooth(scans, motions);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0);  // Corrected retroactively.
  EXPECT_EQ(path[1], 1);
  EXPECT_EQ(path[2], 4);
}

TEST(TraceSmoother, MissingMotionFallsBackToEmissions) {
  TwinWorld world;
  const TraceSmoother smoother(world.fingerprints, world.motion);
  const std::vector<radio::Fingerprint> scans{
      radio::Fingerprint({-70.0, -40.0}),
      radio::Fingerprint({-50.0, -60.0}),
  };
  const Motions motions{std::nullopt};
  const auto path = smoother.smooth(scans, motions);
  EXPECT_EQ(path[0], 4);
  EXPECT_EQ(path[1], 0);
}

TEST(TraceSmoother, PathRespectsMotionConsistency) {
  // With motion present, the smoothed path never jumps between
  // candidates whose transition the motion database rules out when a
  // consistent alternative exists.
  TwinWorld world;
  const TraceSmoother smoother(world.fingerprints, world.motion);
  const std::vector<radio::Fingerprint> scans{
      radio::Fingerprint({-50.0, -60.0}),   // 0 (or twin 2).
      radio::Fingerprint({-55.1, -57.1}),   // Nearer twin 3 than 1!
  };
  const Motions motions{sensors::MotionMeasurement{90.0, 4.0}};
  const auto path = smoother.smooth(scans, motions);
  // Both (0,1) and (2,3) are motion-consistent; the joint likelihood
  // must pick one consistent pair, not the cross pair (0,3).
  EXPECT_TRUE((path[0] == 0 && path[1] == 1) ||
              (path[0] == 2 && path[1] == 3))
      << path[0] << "," << path[1];
}

TEST(TraceSmoother, BeatsOrMatchesOnlineEngineOnRealWalks) {
  // End to end: offline smoothing must be at least as accurate as the
  // causal engine over the same walks (it sees strictly more context).
  eval::WorldConfig config;
  eval::ExperimentWorld world(config);
  const TraceSmoother smoother(world.fingerprintDb(), world.motionDb(),
                               config.moloc);
  auto engine = world.makeEngine();

  int onlineCorrect = 0;
  int offlineCorrect = 0;
  int total = 0;
  for (int t = 0; t < 12; ++t) {
    const auto& user =
        world.users()[static_cast<std::size_t>(t) % world.users().size()];
    const auto trace = world.makeTrace(user, 10, world.evalRng());

    std::vector<radio::Fingerprint> scans{trace.initialScan};
    std::vector<std::optional<sensors::MotionMeasurement>> motions;
    std::vector<env::LocationId> truth{trace.startTruth};
    for (const auto& interval : trace.intervals) {
      scans.push_back(interval.scanAtArrival);
      motions.push_back(world.processInterval(interval, user));
      truth.push_back(interval.toTruth);
    }

    engine.reset();
    std::vector<env::LocationId> online;
    online.push_back(engine.localize(scans[0], std::nullopt).location);
    for (std::size_t s = 1; s < scans.size(); ++s)
      online.push_back(
          engine.localize(scans[s], motions[s - 1]).location);

    const auto offline = smoother.smooth(scans, motions);
    for (std::size_t s = 0; s < truth.size(); ++s) {
      ++total;
      if (online[s] == truth[s]) ++onlineCorrect;
      if (offline[s] == truth[s]) ++offlineCorrect;
    }
  }
  EXPECT_GE(offlineCorrect, onlineCorrect - 2) << "of " << total;
  EXPECT_GT(static_cast<double>(offlineCorrect) / total, 0.8);
}

}  // namespace
}  // namespace moloc::core
