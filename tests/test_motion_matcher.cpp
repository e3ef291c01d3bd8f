#include "core/motion_matcher.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "motion_support.hpp"

namespace moloc::core {
namespace {

TEST(GaussianWindow, CentredWindowHasMostMass) {
  const double p = gaussianWindowProbability(0.0, 1.0, 0.0, 0.5);
  // +-2 sigma window: ~95 % of the mass.
  EXPECT_NEAR(p, 0.954, 0.01);
}

TEST(GaussianWindow, FarWindowHasLittleMass) {
  const double p = gaussianWindowProbability(5.0, 0.5, 0.0, 1.0);
  EXPECT_LT(p, 1e-3);
}

TEST(GaussianWindow, MassDecreasesWithDistanceFromMean) {
  double prev = 1.0;
  for (double x : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const double p = gaussianWindowProbability(x, 0.5, 0.0, 1.0);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(GaussianWindow, WholeLineIsOne) {
  const double p = gaussianWindowProbability(0.0, 1e6, 0.0, 1.0);
  EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(GaussianWindow, DegenerateSigmaIsIndicator) {
  EXPECT_EQ(gaussianWindowProbability(0.3, 0.5, 0.0, 0.0), 1.0);
  EXPECT_EQ(gaussianWindowProbability(0.6, 0.5, 0.0, 0.0), 0.0);
}

TEST(GaussianWindow, SymmetricAroundMean) {
  const double left = gaussianWindowProbability(3.0, 0.5, 5.0, 1.2);
  const double right = gaussianWindowProbability(7.0, 0.5, 5.0, 1.2);
  EXPECT_NEAR(left, right, 1e-12);
}

class MotionMatcherTest : public ::testing::Test {
 protected:
  // 0 -> 1: east, 4 m.  1 -> 2: north, 4 m.
  std::shared_ptr<const MotionDatabase> db_ =
      std::make_shared<const MotionDatabase>(test_support::mirroredDb(
          4, {{0, 1, {90.0, 5.0, 4.0, 0.3, 10}},
              {1, 2, {0.0, 5.0, 4.0, 0.3, 10}}}));
  MotionMatcherParams params_;
};

TEST_F(MotionMatcherTest, MatchingMotionScoresHigh) {
  const MotionMatcher matcher(db_, params_);
  const double p = matcher.pairProbability(0, 1, {90.0, 4.0});
  EXPECT_GT(p, 0.5);
}

TEST_F(MotionMatcherTest, OppositeDirectionScoresLow) {
  const MotionMatcher matcher(db_, params_);
  const double p = matcher.pairProbability(0, 1, {270.0, 4.0});
  EXPECT_LT(p, 1e-3);
}

TEST_F(MotionMatcherTest, WrongOffsetScoresLow) {
  const MotionMatcher matcher(db_, params_);
  const double p = matcher.pairProbability(0, 1, {90.0, 9.0});
  EXPECT_LT(p, 1e-3);
}

TEST_F(MotionMatcherTest, MirroredEntryMatchesReverseWalk) {
  const MotionMatcher matcher(db_, params_);
  const double p = matcher.pairProbability(1, 0, {270.0, 4.0});
  EXPECT_GT(p, 0.5);
}

TEST_F(MotionMatcherTest, UnknownPairGetsFloor) {
  const MotionMatcher matcher(db_, params_);
  const double p = matcher.pairProbability(0, 3, {90.0, 4.0});
  EXPECT_DOUBLE_EQ(p, params_.unreachableFloor);
}

TEST_F(MotionMatcherTest, ProbabilityNeverBelowFloor) {
  const MotionMatcher matcher(db_, params_);
  const double p = matcher.pairProbability(0, 1, {270.0, 20.0});
  EXPECT_GE(p, params_.unreachableFloor);
}

TEST_F(MotionMatcherTest, DirectionHandlesWrap) {
  const MotionMatcher matcher(
      std::make_shared<const MotionDatabase>(test_support::mirroredDb(
          2, {{0, 1, {359.0, 5.0, 4.0, 0.3, 10}}})),
      params_);
  // Measured 2 degrees: circularly 3 degrees from the stored 359.
  const double near = matcher.pairProbability(0, 1, {2.0, 4.0});
  const double far = matcher.pairProbability(0, 1, {180.0, 4.0});
  EXPECT_GT(near, 0.3);
  EXPECT_LT(far, 1e-3);
}

TEST_F(MotionMatcherTest, StationarySelfTransition) {
  const MotionMatcher matcher(db_, params_);
  const double still = matcher.pairProbability(1, 1, {0.0, 0.1});
  const double moved = matcher.pairProbability(1, 1, {0.0, 4.0});
  EXPECT_GT(still, moved);
  EXPECT_GT(still, params_.unreachableFloor);
}

TEST_F(MotionMatcherTest, StationaryCanBeDisabled) {
  MotionMatcherParams params;
  params.allowStationary = false;
  const MotionMatcher matcher(db_, params);
  EXPECT_DOUBLE_EQ(matcher.pairProbability(1, 1, {0.0, 0.1}),
                   params.unreachableFloor);
}

TEST_F(MotionMatcherTest, SetProbabilityMarginalizesOverCandidates) {
  const MotionMatcher matcher(db_, params_);
  const std::vector<WeightedCandidate> prev{{0, 0.5}, {2, 0.5}};
  // Walking east 4 m: reachable from 0 (towards 1), not from 2.
  const double pTo1 = matcher.setProbability(prev, 1, {90.0, 4.0});
  const double expected =
      0.5 * matcher.pairProbability(0, 1, {90.0, 4.0}) +
      0.5 * matcher.pairProbability(2, 1, {90.0, 4.0});
  EXPECT_NEAR(pTo1, expected, 1e-12);
}

TEST_F(MotionMatcherTest, SetProbabilityWeightsByPrior) {
  const MotionMatcher matcher(db_, params_);
  const std::vector<WeightedCandidate> confident{{0, 0.9}, {2, 0.1}};
  const std::vector<WeightedCandidate> doubtful{{0, 0.1}, {2, 0.9}};
  const sensors::MotionMeasurement eastWalk{90.0, 4.0};
  EXPECT_GT(matcher.setProbability(confident, 1, eastWalk),
            matcher.setProbability(doubtful, 1, eastWalk));
}

TEST_F(MotionMatcherTest, EmptyPreviousSetYieldsZero) {
  const MotionMatcher matcher(db_, params_);
  EXPECT_DOUBLE_EQ(matcher.setProbability({}, 1, {90.0, 4.0}), 0.0);
}

TEST_F(MotionMatcherTest, BadIdsThrowLikeTheDatabase) {
  // The database's find() is the one id check: the stationary pair
  // and every scored previous candidate go through it.
  const MotionMatcher matcher(db_, params_);
  const sensors::MotionMeasurement motion{90.0, 4.0};
  EXPECT_THROW(matcher.pairProbability(0, 4, motion), std::out_of_range);
  EXPECT_THROW(matcher.pairProbability(-1, -1, motion), std::out_of_range);
  const std::vector<WeightedCandidate> prev{{0, 0.5}, {7, 0.5}};
  EXPECT_THROW(matcher.setProbability(prev, 1, motion), std::out_of_range);
  std::vector<double> scores;
  const std::vector<env::LocationId> targets{1};
  EXPECT_THROW(matcher.scoreCandidates(prev, targets, motion, scores),
               std::out_of_range);
}

TEST_F(MotionMatcherTest, FactorsMultiplyPerEq5) {
  const MotionMatcher matcher(db_, params_);
  const RlmStats stats{90.0, 5.0, 4.0, 0.3, 10};
  const sensors::MotionMeasurement motion{92.0, 4.1};
  const double product = matcher.directionFactor(stats, 92.0) *
                         matcher.offsetFactor(stats, 4.1);
  EXPECT_NEAR(matcher.pairProbability(0, 1, motion), product, 1e-12);
}

/// Alpha/beta discretization: wider windows catch more mass.
class WindowWidthTest : public ::testing::TestWithParam<double> {};

TEST_P(WindowWidthTest, WiderAlphaMoreMass) {
  const auto db = std::make_shared<const MotionDatabase>(
      test_support::mirroredDb(2, {{0, 1, {90.0, 8.0, 4.0, 0.3, 10}}}));
  MotionMatcherParams narrow;
  narrow.alphaDeg = GetParam();
  MotionMatcherParams wide;
  wide.alphaDeg = GetParam() + 10.0;
  const MotionMatcher narrowMatcher(db, narrow);
  const MotionMatcher wideMatcher(db, wide);
  const RlmStats stats{90.0, 8.0, 4.0, 0.3, 10};
  EXPECT_LE(narrowMatcher.directionFactor(stats, 95.0),
            wideMatcher.directionFactor(stats, 95.0));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowWidthTest,
                         ::testing::Values(5.0, 10.0, 20.0, 30.0, 45.0));

TEST(CircularGaussianWindow, MatchesUnwrappedWhenInsideCircle) {
  // A window wholly inside [-180, 180] must behave exactly like the
  // plain Gaussian window around a zero mean.
  for (double deviation : {-90.0, -10.0, 0.0, 25.0, 120.0}) {
    EXPECT_DOUBLE_EQ(
        circularGaussianWindowProbability(deviation, 30.0, 40.0),
        gaussianWindowProbability(deviation, 30.0, 0.0, 40.0));
  }
}

TEST(CircularGaussianWindow, ClampsSpilloverAtTheAntipode) {
  // Regression: with alpha near 360 the unwrapped window spilled past
  // +-180 and claimed probability mass that does not exist on the
  // circle.  A window [150, 190] must integrate only [150, 180] —
  // identical to an in-circle window centred at 165 with half-width 15.
  EXPECT_DOUBLE_EQ(circularGaussianWindowProbability(170.0, 20.0, 50.0),
                   gaussianWindowProbability(165.0, 15.0, 0.0, 50.0));
  EXPECT_DOUBLE_EQ(circularGaussianWindowProbability(-170.0, 20.0, 50.0),
                   gaussianWindowProbability(-165.0, 15.0, 0.0, 50.0));
  // The clamped value is strictly less than the unwrapped one.
  EXPECT_LT(circularGaussianWindowProbability(170.0, 20.0, 50.0),
            gaussianWindowProbability(170.0, 20.0, 0.0, 50.0));
}

TEST(CircularGaussianWindow, NeverExceedsCircularMass) {
  // For any measurement, the direction factor may claim at most the
  // total mass the Gaussian places on the circle.
  const double circleMass =
      gaussianWindowProbability(0.0, 180.0, 0.0, 100.0);
  for (double deviation = -180.0; deviation <= 180.0; deviation += 15.0) {
    EXPECT_LE(
        circularGaussianWindowProbability(deviation, 180.0, 100.0),
        circleMass + 1e-15)
        << "deviation " << deviation;
  }
}

TEST(CircularGaussianWindow, DegenerateSigmaIsIndicator) {
  EXPECT_EQ(circularGaussianWindowProbability(10.0, 20.0, 0.0), 1.0);
  EXPECT_EQ(circularGaussianWindowProbability(50.0, 20.0, 0.0), 0.0);
}

TEST(MotionMatcherCircular, DirectionFactorClampsWideAlpha) {
  const std::vector<MotionEntry> entries{{0, 1, {0.0, 50.0, 4.0, 0.3, 10}}};
  const auto db = std::make_shared<const MotionDatabase>(2, entries);
  MotionMatcherParams params;
  params.alphaDeg = 40.0;
  const MotionMatcher matcher(db, params);
  const RlmStats stats{0.0, 50.0, 4.0, 0.3, 10};
  // Deviation 170 with half-width 20: window clamps at the antipode.
  EXPECT_DOUBLE_EQ(matcher.directionFactor(stats, 170.0),
                   gaussianWindowProbability(165.0, 15.0, 0.0, 50.0));
}

TEST(MotionMatcherCircular, StationaryDirectionFactorCapsAtOne) {
  // An alpha wider than the circle covers at most the whole circle, so
  // the stationary self-transition probability stays a probability.
  const auto db = std::make_shared<const MotionDatabase>(2);
  MotionMatcherParams params;
  params.alphaDeg = 400.0;
  params.stationarySigmaMeters = 0.5;
  const MotionMatcher matcher(db, params);
  const double p = matcher.pairProbability(0, 0, {90.0, 0.0});
  EXPECT_LE(p, 1.0);
}

}  // namespace
}  // namespace moloc::core
