// Tests of core::WorldSnapshot and the service's publication contract:
// a published world is immutable, a reader pinning an old generation
// keeps a bitwise-stable view while newer worlds are published, and
// the aliasing adjacency handle keeps its whole snapshot alive.

#include "core/world_snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/motion_database.hpp"
#include "core/motion_matcher.hpp"
#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "motion_support.hpp"
#include "radio/fingerprint_database.hpp"
#include "service/localization_service.hpp"

namespace moloc::core {
namespace {

env::FloorPlan corridorPlan() {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  return plan;
}

radio::FingerprintDatabase corridorFingerprints() {
  radio::FingerprintDatabase db;
  db.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
  db.addLocation(1, radio::Fingerprint({-55.0, -57.0}));
  db.addLocation(2, radio::Fingerprint({-70.0, -40.0}));
  return db;
}

TEST(WorldSnapshot, AdjacencyAliasPinsTheWholeSnapshot) {
  auto fingerprints =
      std::make_shared<const radio::FingerprintDatabase>(
          corridorFingerprints());
  const std::vector<MotionEntry> entries{{0, 1, {90.0, 4.0, 4.0, 0.3, 20}}};
  auto snapshot = std::make_shared<const WorldSnapshot>(
      fingerprints, std::make_shared<const MotionDatabase>(3, entries),
      /*generation=*/7, /*intakeRecords=*/42);
  EXPECT_EQ(snapshot->generation(), 7u);
  EXPECT_EQ(snapshot->intakeRecords(), 42u);
  EXPECT_EQ(snapshot->adjacency().entryCount(), 1u);
  EXPECT_EQ(snapshot->fingerprints().get(), fingerprints.get());

  auto adjacency = WorldSnapshot::adjacencyOf(snapshot);
  ASSERT_EQ(adjacency.get(), &snapshot->adjacency());

  // Dropping the snapshot handle must not free the world while the
  // adjacency alias is alive — this is what lets a session hold only
  // the adjacency yet keep its whole scoring world pinned.
  std::weak_ptr<const WorldSnapshot> weak = snapshot;
  snapshot.reset();
  EXPECT_FALSE(weak.expired());
  EXPECT_EQ(adjacency->entryCount(), 1u);
  ASSERT_NE(adjacency->find(0, 1), nullptr);
  adjacency.reset();
  EXPECT_TRUE(weak.expired());

  EXPECT_EQ(WorldSnapshot::adjacencyOf(nullptr), nullptr);
}

TEST(WorldSnapshot, ServiceBootWorldIsGenerationZero) {
  const MotionDatabase motion =
      test_support::mirroredDb(3, {{0, 1, {90.0, 4.0, 4.0, 0.3, 20}}});
  service::ServiceConfig config;
  config.shardCount = 1;
  config.metrics = nullptr;
  service::LocalizationService svc(corridorFingerprints(), motion, config);

  const auto world = svc.currentWorld();
  ASSERT_NE(world, nullptr);
  EXPECT_EQ(world->generation(), 0u);
  EXPECT_EQ(world->intakeRecords(), 0u);
  // The snapshot shares the service's fingerprint database instead of
  // copying it.
  EXPECT_EQ(world->fingerprints().get(), &svc.fingerprints());
  EXPECT_EQ(world->adjacency().locationCount(), motion.locationCount());
  EXPECT_EQ(world->adjacency().entryCount(), motion.entryCount());
}

TEST(WorldSnapshot, PinnedReaderSeesBitwiseStableWorldAcrossPublishes) {
  const auto plan = corridorPlan();
  BuilderConfig builderConfig;
  builderConfig.minSamplesPerPair = 3;
  OnlineMotionDatabase db(plan, builderConfig);

  service::ServiceConfig config;
  config.shardCount = 1;
  config.metrics = nullptr;
  service::LocalizationService svc(corridorFingerprints(),
                                   MotionDatabase(3), config);
  service::IntakePolicy policy;
  policy.publishEveryRecords = 1;  // Every applied record publishes.
  svc.attachIntake(&db, nullptr, 0, policy);

  // Pin the attach-time world and a matcher bound to its index.
  const auto pinned = svc.currentWorld();
  ASSERT_NE(pinned, nullptr);
  const auto generation0 = pinned->generation();
  EXPECT_EQ(pinned->adjacency().entryCount(), 0u);
  const MotionMatcher pinnedMatcher(WorldSnapshot::adjacencyOf(pinned));
  const std::vector<WeightedCandidate> prev{{0, 1.0}};
  const sensors::MotionMeasurement motion{90.0, 4.0};
  const double before = pinnedMatcher.setProbability(prev, 1, motion);
  EXPECT_EQ(before, pinnedMatcher.params().unreachableFloor);

  for (int k = 0; k < 3; ++k)
    EXPECT_TRUE(svc.reportObservation(0, 1, 90.0 + k, 4.0 + 0.1 * k));
  svc.flushIntake();

  // New generations were published and carry the new pair...
  const auto current = svc.currentWorld();
  ASSERT_NE(current, nullptr);
  EXPECT_GT(current->generation(), generation0);
  EXPECT_GE(current->intakeRecords(), 3u);
  EXPECT_NE(current->adjacency().find(0, 1), nullptr);
  EXPECT_GE(svc.intakeStats().publishes, 3u);

  // ...while the pinned world is bit-for-bit what it was: same entry
  // count, same score, no tearing.
  EXPECT_EQ(pinned->generation(), generation0);
  EXPECT_EQ(pinned->adjacency().entryCount(), 0u);
  EXPECT_EQ(pinnedMatcher.setProbability(prev, 1, motion), before);

  // A matcher adopting the current world sees the published pair.
  const MotionMatcher fresh(WorldSnapshot::adjacencyOf(current));
  EXPECT_GT(fresh.setProbability(prev, 1, motion), before);
}

TEST(WorldSnapshot, SessionsAdoptNewerWorldsBetweenScans) {
  // End-to-end: a session created before a publish serves its next
  // scan against the newer world (adoption happens per scan under the
  // session's own lock, with a lock-free acquire load).
  const auto plan = corridorPlan();
  BuilderConfig builderConfig;
  builderConfig.minSamplesPerPair = 3;
  OnlineMotionDatabase db(plan, builderConfig);

  service::ServiceConfig config;
  config.shardCount = 1;
  config.metrics = nullptr;
  config.engine = MoLocConfig{3, {}};
  service::LocalizationService svc(corridorFingerprints(),
                                   MotionDatabase(3), config);
  service::IntakePolicy policy;
  policy.publishEveryRecords = 1;
  svc.attachIntake(&db, nullptr, 0, policy);

  const sensors::ImuTrace noImu(50.0);
  const radio::Fingerprint scan({-50.0, -60.0});
  EXPECT_TRUE(svc.submitScan(1, scan, noImu).hasFix());

  for (int k = 0; k < 3; ++k)
    EXPECT_TRUE(svc.reportObservation(0, 1, 90.0 + k, 4.0 + 0.1 * k));
  svc.flushIntake();

  // The next scan adopts the published world and still serves.
  EXPECT_TRUE(svc.submitScan(1, scan, noImu).hasFix());
}

}  // namespace
}  // namespace moloc::core
