#include "eval/experiment_world.hpp"
#include "geometry/angles.hpp"
#include "motion_support.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>

namespace moloc::eval {
namespace {

/// A reduced-size world config keeping integration tests fast.
WorldConfig smallConfig(int apCount = 6) {
  WorldConfig config;
  config.apCount = apCount;
  config.trainingTraces = 40;
  config.legsPerTrainingTrace = 15;
  return config;
}

TEST(ExperimentWorld, RejectsBadApCount) {
  WorldConfig config;
  config.apCount = 0;
  EXPECT_THROW(ExperimentWorld{config}, std::invalid_argument);
  config.apCount = 7;
  EXPECT_THROW(ExperimentWorld{config}, std::invalid_argument);
}

TEST(ExperimentWorld, BuildsPaperScaleDatabases) {
  ExperimentWorld world(smallConfig());
  EXPECT_EQ(world.fingerprintDb().size(), 28u);
  EXPECT_EQ(world.fingerprintDb().apCount(), 6u);
  EXPECT_EQ(world.motionDb().locationCount(), 28u);
  EXPECT_EQ(world.users().size(), 4u);
}

TEST(ExperimentWorld, ApCountSelectsRadioDimension) {
  ExperimentWorld world(smallConfig(4));
  EXPECT_EQ(world.fingerprintDb().apCount(), 4u);
  EXPECT_EQ(world.radio().apCount(), 4u);
}

TEST(ExperimentWorld, MotionDatabaseCoversMostAisleLegs) {
  ExperimentWorld world(smallConfig());
  // The hall has 42 undirected legs; the crowdsourcing pass should
  // learn the bulk of them even at reduced training volume.
  EXPECT_GT(world.builderReport().pairsStored, 25u);
  EXPECT_GT(world.motionDb().entryCount(), 50u);  // Directed.
}

TEST(ExperimentWorld, SanitationRejectsSomething) {
  ExperimentWorld world(smallConfig());
  // Fingerprint self-localization during crowdsourcing is noisy; the
  // coarse filter must be doing real work.
  EXPECT_GT(world.builderReport().rejectedCoarse, 0u);
  EXPECT_GT(world.builderReport().observations, 0u);
}

TEST(ExperimentWorld, LearnedRlmsMatchMapGeometry) {
  ExperimentWorld world(smallConfig());
  const auto& graph = world.hall().graph;
  int checked = 0;
  for (env::LocationId i = 0; i < 28; ++i) {
    for (const auto& edge : graph.neighbors(i)) {
      if (edge.to < i) continue;
      const auto learned = world.motionDb().entry(i, edge.to);
      if (!learned) continue;
      EXPECT_NEAR(learned->muOffsetMeters, edge.length, 1.0);
      EXPECT_LT(geometry::angularDistDeg(learned->muDirectionDeg,
                                         edge.headingDeg),
                12.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 25);
}

TEST(ExperimentWorld, TraceGenerationWorks) {
  ExperimentWorld world(smallConfig());
  const auto trace =
      world.makeTrace(world.users().front(), 8, world.evalRng());
  EXPECT_EQ(trace.intervals.size(), 8u);
  const auto motion =
      world.processInterval(trace.intervals[0], world.users().front());
  ASSERT_TRUE(motion.has_value());
  EXPECT_GT(motion->offsetMeters, 1.0);
}

TEST(ExperimentWorld, LocationDistanceIsEuclidean) {
  ExperimentWorld world(smallConfig());
  EXPECT_DOUBLE_EQ(world.locationDistance(0, 0), 0.0);
  EXPECT_NEAR(world.locationDistance(0, 1), 5.7, 1e-9);
  EXPECT_NEAR(world.locationDistance(0, 7), 4.0, 1e-9);
}

TEST(ExperimentWorld, DeterministicAcrossInstances) {
  ExperimentWorld a(smallConfig());
  ExperimentWorld b(smallConfig());
  EXPECT_EQ(a.builderReport().observations, b.builderReport().observations);
  EXPECT_EQ(a.builderReport().pairsStored, b.builderReport().pairsStored);
  const auto& fpA = a.fingerprintDb().entry(10);
  const auto& fpB = b.fingerprintDb().entry(10);
  for (std::size_t i = 0; i < fpA.size(); ++i)
    EXPECT_EQ(fpA[i], fpB[i]);
}

TEST(ExperimentWorld, DifferentSeedsDiffer) {
  auto configA = smallConfig();
  auto configB = smallConfig();
  configB.seed = 43;
  ExperimentWorld a(configA);
  ExperimentWorld b(configB);
  EXPECT_NE(a.fingerprintDb().entry(10)[0], b.fingerprintDb().entry(10)[0]);
}

TEST(ExperimentWorld, MakeEngineBindsDatabases) {
  ExperimentWorld world(smallConfig());
  auto engine = world.makeEngine();
  EXPECT_FALSE(engine.hasHistory());
  const auto trace =
      world.makeTrace(world.users().front(), 1, world.evalRng());
  const auto fix = engine.localize(trace.initialScan, std::nullopt);
  EXPECT_GE(fix.location, 0);
  EXPECT_LT(fix.location, 28);
}

TEST(ExperimentWorld, ReplayModeDrawsHeldOutSamples) {
  auto config = smallConfig();
  config.replayHeldOutScans = true;
  ExperimentWorld world(config);
  // Scans replay the survey's test partition: a one-node trace's
  // initial scan must literally be one of that location's held-out
  // samples (cursor starts at 0, so the first).
  const auto trace =
      world.makeTrace(world.users().front(), 0, world.evalRng());
  // Rebuild the expected survey deterministically.
  util::Rng master(config.seed);
  util::Rng surveyRng = master.split();
  const auto survey =
      radio::conductSurvey(world.radio(), config.survey, surveyRng);
  const auto& expected =
      survey.samples[static_cast<std::size_t>(trace.startTruth)].test[0];
  ASSERT_EQ(trace.initialScan.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(trace.initialScan[i], expected[i]);
}

TEST(ExperimentWorld, ReplayModeStillLocalizes) {
  auto config = smallConfig();
  config.replayHeldOutScans = true;
  ExperimentWorld world(config);
  const auto outcomes = runComparison(world, 5, 8);
  eval::ErrorStats moloc;
  for (const auto& o : outcomes) moloc.addAll(o.moloc);
  EXPECT_GT(moloc.accuracy(), 0.4);
}

TEST(RunComparison, ProducesPairedRecords) {
  ExperimentWorld world(smallConfig());
  const auto outcomes = runComparison(world, 4, 6);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& outcome : outcomes) {
    // 1 initial fix + 6 legs.
    EXPECT_EQ(outcome.moloc.size(), 7u);
    EXPECT_EQ(outcome.wifi.size(), 7u);
    // Truth sequences agree between the two methods.
    for (std::size_t i = 0; i < outcome.moloc.size(); ++i)
      EXPECT_EQ(outcome.moloc[i].truth, outcome.wifi[i].truth);
  }
}

TEST(RunComparison, ErrorsAreConsistentWithGeometry) {
  ExperimentWorld world(smallConfig());
  const auto outcomes = runComparison(world, 3, 5);
  for (const auto& outcome : outcomes) {
    for (const auto& record : outcome.moloc) {
      EXPECT_NEAR(record.errorMeters,
                  world.locationDistance(record.estimated, record.truth),
                  1e-12);
      if (record.accurate()) {
        EXPECT_EQ(record.errorMeters, 0.0);
      }
    }
  }
}

/// FNV-1a over every motion-database entry — (i, j, the four doubles'
/// bit patterns, sampleCount) in the database's iteration order — and
/// then the builder report's counts.
std::uint64_t motionDatabaseDigest(const ExperimentWorld& world) {
  test_support::Fnv64 hash;
  hash.mix(world.motionDb());
  const auto& report = world.builderReport();
  hash.mix(report.observations);
  hash.mix(report.droppedSelfPairs);
  hash.mix(report.rejectedCoarse);
  hash.mix(report.rejectedFine);
  hash.mix(report.pairsStored);
  return hash.value();
}

TEST(ExperimentWorld, MotionDatabaseIsPinned) {
  // Paper-scale worlds, whose busiest pairs collect more than 64
  // observations: every entry and report count is pinned bitwise, so a
  // change to the fit, the filters or the reservoir sizing shows here.
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {1, 0x38380ff9d74e503fULL}, {42, 0xea14887d7fcf0429ULL}};
  for (const auto& [seed, digest] : pinned) {
    WorldConfig config;
    config.seed = seed;
    EXPECT_EQ(motionDatabaseDigest(ExperimentWorld(config)), digest)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace moloc::eval
