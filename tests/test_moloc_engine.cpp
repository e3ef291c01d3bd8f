#include "core/moloc_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "motion_support.hpp"

namespace moloc::core {
namespace {

/// A hand-built world that reproduces the paper's Fig. 1 twin scenario
/// as a unit test.
///
/// Layout (4 m grid, compass convention: +y north):
///   0 (2,10) -- 1 (6,10)     <- north corridor
///   2 (2, 2) -- 3 (6, 2)     <- south corridor (mirror twins of 0, 1)
///
/// Locations 0/2 are fingerprint twins, and so are 1/3.  Location 4
/// (14, 6) is unambiguous.  The motion database knows the horizontal
/// legs 0-1 and 2-3 (east, 4 m) and the legs 1-4 / 3-4.
class TwinWorld {
 public:
  TwinWorld() {
    // Twins share a fingerprint; the unique location is far away in
    // signal space.
    fingerprints_.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
    fingerprints_.addLocation(1, radio::Fingerprint({-55.0, -57.0}));
    fingerprints_.addLocation(2, radio::Fingerprint({-50.1, -60.1}));
    fingerprints_.addLocation(3, radio::Fingerprint({-55.1, -57.1}));
    fingerprints_.addLocation(4, radio::Fingerprint({-70.0, -40.0}));
  }

  radio::FingerprintDatabase fingerprints_;
  // 0 -> 1 and 2 -> 3: east; 1 -> 4: south-east; 3 -> 4: north-east.
  MotionDatabase motion_ =
      test_support::mirroredDb(5, {{0, 1, {90.0, 4.0, 4.0, 0.3, 20}},
                                   {2, 3, {90.0, 4.0, 4.0, 0.3, 20}},
                                   {1, 4, {117.0, 4.0, 8.9, 0.4, 20}},
                                   {3, 4, {63.0, 4.0, 8.9, 0.4, 20}}});
};

class EngineTest : public ::testing::Test {
 protected:
  TwinWorld world_;
  MoLocConfig config_{5, {}};
};

TEST_F(EngineTest, InitialFixIsFingerprintOnly) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  EXPECT_FALSE(engine.hasHistory());
  const auto fix =
      engine.localize(radio::Fingerprint({-50.0, -60.0}), std::nullopt);
  EXPECT_EQ(fix.location, 0);  // Exact match wins.
  EXPECT_TRUE(engine.hasHistory());
  EXPECT_EQ(fix.candidates.size(), 5u);
}

TEST_F(EngineTest, CandidateProbabilitiesAreNormalized) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  const auto fix =
      engine.localize(radio::Fingerprint({-52.0, -58.0}), std::nullopt);
  double total = 0.0;
  for (const auto& c : fix.candidates) {
    EXPECT_GE(c.probability, 0.0);
    total += c.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(fix.location, fix.candidates.front().location);
  EXPECT_EQ(fix.probability, fix.candidates.front().probability);
}

TEST_F(EngineTest, MotionDisambiguatesTwins) {
  // The Fig. 1(b) story: the user starts at the unique location 4 and
  // walks to 1 (west-north-west).  A twin-ambiguous scan that is a
  // hair closer to 3 would fool plain fingerprinting, but the motion
  // from 4 matches the 4->1 leg, not the 4->3 leg.
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);

  // Scan slightly *closer to the twin* 3 than to the truth 1.
  const radio::Fingerprint ambiguous({-55.08, -57.08});
  EXPECT_EQ(world_.fingerprints_.nearest(ambiguous), 3);

  // Motion: the reverse of 1 -> 4 is heading 297, offset 8.9.
  const auto fix =
      engine.localize(ambiguous, sensors::MotionMeasurement{297.0, 8.9});
  EXPECT_EQ(fix.location, 1);
}

TEST_F(EngineTest, RecoversFromWrongInitialViaCandidateSet) {
  // Fig. 1(c): the initial scan is twin-ambiguous and the top pick is
  // wrong, but the true location remains in the candidate set; the
  // next motion-constrained fix recovers.
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);

  // Slightly closer to twin 2 than to the true start 0.
  const auto initial =
      engine.localize(radio::Fingerprint({-50.08, -60.08}), std::nullopt);
  EXPECT_EQ(initial.location, 2);  // Wrong.

  // The user actually walks 0 -> 1 (east 4 m), then 1 -> 4.  The first
  // eastward leg cannot split the twins (2 -> 3 is also east 4 m), but
  // the second leg can: from 1 the walk to 4 heads 117, from 3 it
  // would head 63.
  engine.localize(radio::Fingerprint({-55.05, -57.05}),
                  sensors::MotionMeasurement{90.0, 4.0});
  const auto fix =
      engine.localize(radio::Fingerprint({-70.0, -40.0}),
                      sensors::MotionMeasurement{117.0, 8.9});
  EXPECT_EQ(fix.location, 4);
  // And the candidate history now strongly favours the north corridor:
  // walking backwards to 1 confirms.
  const auto back =
      engine.localize(radio::Fingerprint({-55.08, -57.08}),
                      sensors::MotionMeasurement{297.0, 8.9});
  EXPECT_EQ(back.location, 1);
}

TEST_F(EngineTest, NoMotionFallsBackToFingerprint) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  const auto fix =
      engine.localize(radio::Fingerprint({-50.0, -60.0}), std::nullopt);
  EXPECT_EQ(fix.location, 0);
  EXPECT_TRUE(engine.hasHistory());
}

TEST_F(EngineTest, ResetForgetsHistory) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  EXPECT_TRUE(engine.hasHistory());
  engine.reset();
  EXPECT_FALSE(engine.hasHistory());
  EXPECT_TRUE(engine.retainedCandidates().empty());
}

TEST_F(EngineTest, RetainedCandidatesMatchLastFix) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  const auto fix =
      engine.localize(radio::Fingerprint({-52.0, -59.0}), std::nullopt);
  const auto retained = engine.retainedCandidates();
  ASSERT_EQ(retained.size(), fix.candidates.size());
  for (std::size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].location, fix.candidates[i].location);
    EXPECT_EQ(retained[i].probability, fix.candidates[i].probability);
  }
}

TEST_F(EngineTest, ZeroFloorDegradesGracefully) {
  // With a zero unreachable floor and a teleport-style motion that
  // matches no pair, every posterior weight collapses; the engine must
  // fall back to fingerprint ranking instead of crashing or returning
  // NaN.
  MoLocConfig config = config_;
  config.matcher.unreachableFloor = 0.0;
  config.matcher.allowStationary = false;
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config);
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  const auto fix = engine.localize(
      radio::Fingerprint({-50.0, -60.0}),
      sensors::MotionMeasurement{200.0, 55.0});  // Impossible walk.
  EXPECT_EQ(fix.location, 0);
  EXPECT_TRUE(std::isfinite(fix.probability));
  EXPECT_GT(fix.probability, 0.0);
}

TEST_F(EngineTest, KClampsToDatabaseSize) {
  MoLocConfig config;
  config.candidateCount = 100;
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config);
  const auto fix =
      engine.localize(radio::Fingerprint({-50.0, -60.0}), std::nullopt);
  EXPECT_EQ(fix.candidates.size(), 5u);
}

TEST_F(EngineTest, StationaryUserStaysPut) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  // A twin-ambiguous scan with a near-zero offset: the stationary
  // model should keep the estimate at the strongest prior candidate
  // rather than teleporting to a twin... but location 4 is unambiguous
  // here, so simply verify the fix stays 4.
  const auto fix =
      engine.localize(radio::Fingerprint({-69.5, -40.5}),
                      sensors::MotionMeasurement{10.0, 0.05});
  EXPECT_EQ(fix.location, 4);
}

TEST_F(EngineTest, EntropyReflectsAmbiguity) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  // An exact match on the unique location: near-certain posterior.
  const auto certain =
      engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  engine.reset();
  // A twin-ambiguous scan: the posterior splits between twins.
  const auto ambiguous =
      engine.localize(radio::Fingerprint({-50.05, -60.05}), std::nullopt);
  EXPECT_LT(certain.normalizedEntropy(), ambiguous.normalizedEntropy());
  EXPECT_GE(certain.normalizedEntropy(), 0.0);
  EXPECT_LE(ambiguous.normalizedEntropy(), 1.0);
}

TEST_F(EngineTest, EntropyDropsOnceMotionDisambiguates) {
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config_);
  const auto initial =
      engine.localize(radio::Fingerprint({-55.05, -57.05}), std::nullopt);
  const auto afterMotion =
      engine.localize(radio::Fingerprint({-70.0, -40.0}),
                      sensors::MotionMeasurement{117.0, 8.9});
  EXPECT_LT(afterMotion.normalizedEntropy(),
            initial.normalizedEntropy());
}

TEST_F(EngineTest, SingleCandidateHasZeroEntropy) {
  MoLocConfig config;
  config.candidateCount = 1;
  MoLocEngine engine(world_.fingerprints_, world_.motion_, config);
  const auto fix =
      engine.localize(radio::Fingerprint({-50.0, -60.0}), std::nullopt);
  EXPECT_EQ(fix.normalizedEntropy(), 0.0);
}

/// k sweep: the engine works for any candidate count >= 1.
class EngineKSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineKSweepTest, TwinResolutionRobustToK) {
  TwinWorld world;
  MoLocConfig config;
  config.candidateCount = GetParam();
  MoLocEngine engine(world.fingerprints_, world.motion_, config);
  engine.localize(radio::Fingerprint({-70.0, -40.0}), std::nullopt);
  const auto fix =
      engine.localize(radio::Fingerprint({-55.08, -57.08}),
                      sensors::MotionMeasurement{297.0, 8.9});
  if (GetParam() >= 2) {
    // With at least two candidates the truth is in the set and motion
    // picks it.
    EXPECT_EQ(fix.location, 1);
  } else {
    // k = 1 degenerates to fingerprint-only: the twin wins.
    EXPECT_EQ(fix.location, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineKSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(EngineDegenerateCandidates, EmptyCandidateSourceYieldsNoFix) {
  // Regression: finalize() dereferenced scored.front() without an
  // empty-set guard.  A candidate source that yields nothing must
  // produce the well-defined "no fix" estimate, not UB.
  TwinWorld world;
  int calls = 0;
  CandidateEstimator empty(
      [&world, &calls](const radio::Fingerprint& fp, std::size_t k,
                       std::vector<Candidate>& out) {
        ++calls;
        if (calls == 1)
          world.fingerprints_.queryInto(fp, k, out);
        else
          out.clear();
      },
      5);
  MoLocEngine engine(std::move(empty),
                     std::make_shared<const MotionDatabase>(world.motion_),
                     MoLocConfig{5, {}});

  const auto first =
      engine.localize(radio::Fingerprint({-50.0, -60.0}), std::nullopt);
  EXPECT_TRUE(first.hasFix());
  const auto retainedBefore = engine.retainedCandidates().size();

  const auto noFix =
      engine.localize(radio::Fingerprint({-50.0, -60.0}),
                      sensors::MotionMeasurement{90.0, 4.0});
  EXPECT_FALSE(noFix.hasFix());
  EXPECT_EQ(noFix.location, 0);
  EXPECT_EQ(noFix.probability, 0.0);
  EXPECT_TRUE(noFix.candidates.empty());
  EXPECT_EQ(noFix.normalizedEntropy(), 0.0);
  // A transient outage must not erase the retained candidate set.
  EXPECT_EQ(engine.retainedCandidates().size(), retainedBefore);
  EXPECT_TRUE(engine.hasHistory());
}

TEST(EngineDegenerateCandidates, AllZeroProbabilitiesYieldUniformNotNaN) {
  // Regression: with a zero total after the fingerprint-only fallback,
  // the Eq. 7 normalization divided by zero and produced NaN
  // posteriors.
  TwinWorld world;
  CandidateEstimator zeros(
      [](const radio::Fingerprint&, std::size_t,
         std::vector<Candidate>& out) {
        out.clear();
        out.push_back({0, 1.0, 0.0});
        out.push_back({1, 2.0, 0.0});
        out.push_back({2, 3.0, 0.0});
      },
      3);
  MoLocEngine engine(std::move(zeros),
                     std::make_shared<const MotionDatabase>(world.motion_),
                     MoLocConfig{3, {}});
  const auto fix =
      engine.localize(radio::Fingerprint({-50.0, -60.0}), std::nullopt);
  ASSERT_TRUE(fix.hasFix());
  ASSERT_EQ(fix.candidates.size(), 3u);
  double total = 0.0;
  for (const auto& c : fix.candidates) {
    EXPECT_FALSE(std::isnan(c.probability));
    EXPECT_DOUBLE_EQ(c.probability, 1.0 / 3.0);
    total += c.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(fix.probability));
}

}  // namespace
}  // namespace moloc::core
