// Failure-injection tests: corrupted inputs, adversarial crowd data,
// and degenerate configurations must fail loudly at well-defined
// boundaries or degrade gracefully — never crash or silently corrupt.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/moloc_engine.hpp"
#include "core/online_motion_database.hpp"
#include "eval/experiment_world.hpp"
#include "motion_support.hpp"
#include "radio/fingerprint_database.hpp"

namespace moloc {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FailureInjection, FingerprintDbRejectsNonFiniteEntries) {
  radio::FingerprintDatabase db;
  EXPECT_THROW(db.addLocation(0, radio::Fingerprint({-40.0, kNan})),
               std::invalid_argument);
  EXPECT_THROW(db.addLocation(0, radio::Fingerprint({kInf, -40.0})),
               std::invalid_argument);
}

TEST(FailureInjection, FingerprintDbRejectsNonFiniteQueries) {
  radio::FingerprintDatabase db;
  db.addLocation(0, radio::Fingerprint({-40.0, -50.0}));
  EXPECT_THROW(db.nearest(radio::Fingerprint({kNan, -50.0})),
               std::invalid_argument);
  EXPECT_THROW(db.query(radio::Fingerprint({-40.0, kInf}), 1),
               std::invalid_argument);
}

TEST(FailureInjection, OnlineDbRejectsNonFiniteMeasurements) {
  env::FloorPlan plan(10.0, 10.0);
  plan.addReferenceLocation({2.0, 5.0});
  plan.addReferenceLocation({8.0, 5.0});
  core::OnlineMotionDatabase online(plan);
  EXPECT_THROW(online.addObservation(0, 1, kNan, 4.0),
               std::invalid_argument);
  EXPECT_THROW(online.addObservation(0, 1, 90.0, kInf),
               std::invalid_argument);
  EXPECT_THROW(online.addObservation(0, 1, 90.0, -0.5),
               std::invalid_argument);
}

TEST(FailureInjection, EngineSurvivesNonFiniteMotion) {
  radio::FingerprintDatabase fingerprints;
  fingerprints.addLocation(0, radio::Fingerprint({-40.0, -70.0}));
  fingerprints.addLocation(1, radio::Fingerprint({-70.0, -40.0}));
  const core::MotionDatabase motion =
      test_support::mirroredDb(2, {{0, 1, {90.0, 5.0, 4.0, 0.3, 9}}});

  core::MoLocEngine engine(fingerprints, motion);
  engine.localize(radio::Fingerprint({-40.0, -70.0}), std::nullopt);
  // Corrupt motion degrades to a fingerprint-only fix.
  const auto fix =
      engine.localize(radio::Fingerprint({-69.0, -41.0}),
                      sensors::MotionMeasurement{kNan, kInf});
  EXPECT_EQ(fix.location, 1);
  EXPECT_TRUE(std::isfinite(fix.probability));
}

TEST(FailureInjection, PoisonedCrowdDataIsFilteredOut) {
  // An adversary (or a chronically mislocated walker) floods the
  // intake with fabricated RLMs that do not match the map; the
  // sanitation must keep them all out of the database.
  env::FloorPlan plan(20.0, 10.0);
  plan.addReferenceLocation({2.0, 5.0});
  plan.addReferenceLocation({8.0, 5.0});
  plan.addReferenceLocation({14.0, 5.0});
  core::OnlineMotionDatabase online(plan);

  // Honest minority.
  for (int i = 0; i < 10; ++i) online.addObservation(0, 1, 90.0, 6.0);
  // Poison majority: reversed directions, absurd offsets.
  for (int i = 0; i < 100; ++i) {
    online.addObservation(0, 1, 270.0, 6.0);
    online.addObservation(0, 1, 90.0, 18.0);
  }

  const auto db = online.database();
  EXPECT_EQ(online.report().rejectedCoarse, 200u);
  ASSERT_TRUE(db.hasEntry(0, 1));
  EXPECT_EQ(db.entry(0, 1)->sampleCount, 10);
  EXPECT_NEAR(db.entry(0, 1)->muDirectionDeg, 90.0, 1.0);
}

TEST(FailureInjection, InPlanePoisonShiftsButFineFilterResists) {
  // Poison *within* the coarse gate (subtle bias attack): the fine
  // 2-sigma pass limits — though it cannot eliminate — the damage.
  env::FloorPlan plan(20.0, 10.0);
  plan.addReferenceLocation({2.0, 5.0});
  plan.addReferenceLocation({8.0, 5.0});
  core::OnlineMotionDatabase online(plan);
  for (int i = 0; i < 50; ++i)
    online.addObservation(0, 1, 90.0 + (i % 5 - 2) * 0.5, 6.0);
  for (int i = 0; i < 5; ++i)
    online.addObservation(0, 1, 108.0, 6.0);  // 18 deg: inside gate.

  const auto db = online.database();
  ASSERT_TRUE(db.hasEntry(0, 1));
  // The fine filter rejected the biased cluster.
  EXPECT_EQ(online.report().rejectedFine, 5u);
  EXPECT_NEAR(db.entry(0, 1)->muDirectionDeg, 90.0, 1.5);
}

TEST(FailureInjection, MotionMatcherHandlesDegenerateStats) {
  // Zero sigmas (should never be produced by the intake, but the
  // matcher must not divide by zero if constructed by hand).
  const core::MotionMatcher matcher(
      std::make_shared<const core::MotionDatabase>(
          test_support::mirroredDb(2, {{0, 1, {90.0, 0.0, 4.0, 0.0, 1}}})));
  const double exact = matcher.pairProbability(0, 1, {90.0, 4.0});
  const double off = matcher.pairProbability(0, 1, {140.0, 9.0});
  EXPECT_TRUE(std::isfinite(exact));
  EXPECT_GT(exact, 0.5);
  EXPECT_TRUE(std::isfinite(off));
}

TEST(FailureInjection, EmptyMotionDatabaseDegradesToFingerprinting) {
  radio::FingerprintDatabase fingerprints;
  fingerprints.addLocation(0, radio::Fingerprint({-40.0, -70.0}));
  fingerprints.addLocation(1, radio::Fingerprint({-70.0, -40.0}));
  const core::MotionDatabase emptyMotion(2);

  core::MoLocEngine engine(fingerprints, emptyMotion);
  engine.localize(radio::Fingerprint({-40.0, -70.0}), std::nullopt);
  const auto fix =
      engine.localize(radio::Fingerprint({-69.0, -41.0}),
                      sensors::MotionMeasurement{90.0, 4.0});
  // All pair probabilities floor out equally; fingerprints decide.
  EXPECT_EQ(fix.location, 1);
}

TEST(FailureInjection, SingleLocationWorldIsTrivial) {
  radio::FingerprintDatabase fingerprints;
  fingerprints.addLocation(0, radio::Fingerprint({-40.0}));
  const core::MotionDatabase motion(1);
  core::MoLocEngine engine(fingerprints, motion);
  for (int step = 0; step < 3; ++step) {
    const auto fix =
        engine.localize(radio::Fingerprint({-45.0}),
                        step == 0 ? std::nullopt
                                  : std::optional<sensors::MotionMeasurement>(
                                        {{90.0, 4.0}}));
    EXPECT_EQ(fix.location, 0);
    EXPECT_NEAR(fix.probability, 1.0, 1e-12);
  }
}

TEST(FailureInjection, WorldWithMinimalTrainingStillServes) {
  // Almost no crowdsourcing: the motion DB is sparse, but localization
  // must still answer every query (degrading toward fingerprinting).
  eval::WorldConfig config;
  config.trainingTraces = 2;
  config.legsPerTrainingTrace = 3;
  eval::ExperimentWorld world(config);
  const auto outcomes = eval::runComparison(world, 5, 6);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.moloc.size(), 7u);
    for (const auto& record : outcome.moloc) {
      EXPECT_GE(record.estimated, 0);
      EXPECT_LT(record.estimated, 28);
    }
  }
}

}  // namespace
}  // namespace moloc
