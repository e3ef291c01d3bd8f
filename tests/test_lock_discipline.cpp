// Lock-discipline stress: every lock the thread-safety annotations
// prove statically (see src/util/thread_annotations.hpp and
// docs/static_analysis.md) exercised together dynamically — serving
// batches from two callers, crowdsourced intake through the MPSC queue
// into the single writer thread (WAL + reservoir + snapshot publishes
// + the checkpoints it writes), and flush barriers waiting on them,
// all concurrently.  The suite name joins the
// ThreadSanitizer CI job's filter, where this test is the cross-
// subsystem deadlock/race probe: producers touch only the intake
// queue lock and the database's inner mu_ (classify); the writer owns
// writeMu_ → store mu_ and, at a publish, the store's checkpointMu_ →
// mu_; serving readers take only shard/slot locks
// plus acquire-loads of the published WorldSnapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "motion_support.hpp"
#include "sensors/imu_trace.hpp"
#include "service/localization_service.hpp"
#include "store/state_store.hpp"

namespace moloc::service {
namespace {

radio::FingerprintDatabase fingerprints() {
  radio::FingerprintDatabase db;
  db.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
  db.addLocation(1, radio::Fingerprint({-55.0, -57.0}));
  db.addLocation(2, radio::Fingerprint({-70.0, -40.0}));
  return db;
}

core::MotionDatabase motion() {
  return test_support::mirroredDb(3, {{0, 1, {90.0, 4.0, 4.0, 0.3, 20}},
                                      {1, 2, {117.0, 4.0, 8.9, 0.4, 20}}});
}

std::string freshDir() {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_lockdisc_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(LockDiscipline, ServingIntakeAndCheckpointWaitersOverlap) {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  core::OnlineMotionDatabase db(plan.positions(), {}, /*reservoirCapacity=*/4,
                                /*seed=*/11);
  store::StoreConfig storeConfig;
  storeConfig.wal.fsync = store::FsyncPolicy::kNone;
  store::StateStore store(freshDir(), storeConfig);

  ServiceConfig config;
  config.shardCount = 4;
  config.engine = core::MoLocConfig{3, {}};
  LocalizationService svc(fingerprints(), motion(), config);
  // A tiny interval so checkpoints trigger constantly while intake and
  // serving are active — the contended path the annotations prove.
  svc.attachIntake(&db, &store, /*checkpointEveryRecords=*/5);

  constexpr int kRounds = 40;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  // Serving: two callers batch overlapping sessions.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&svc, &failures, t] {
      const sensors::ImuTrace noImu(50.0);
      const radio::Fingerprint scan({-50.0 + 0.1 * t, -60.0});
      for (int i = 0; i < kRounds; ++i) {
        std::vector<ScanRequest> batch;
        for (int s = 0; s < 4; ++s)
          batch.push_back(
              {static_cast<SessionId>((t * 2 + s) % 5), scan, noImu});
        if (svc.localizeBatch(batch).size() != batch.size())
          failures.fetch_add(1);
      }
    });
  }
  // Intake: crowdsourced observations through db + WAL, triggering
  // a checkpoint at publishes every few records.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&svc, &failures, t] {
      for (int i = 0; i < kRounds; ++i) {
        try {
          svc.reportObservation((i + t) % 2, 1 + (i + t) % 2,
                                88.0 + 0.2 * (i % 9),
                                3.7 + 0.02 * (i % 11));
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Checkpoint waiters: each flush forces a publish, which writes the
  // checkpoint it triggers before the barrier releases, while the
  // others keep admitting records.
  threads.emplace_back([&svc] {
    for (int i = 0; i < kRounds; ++i) svc.flushIntake();
  });
  // Snapshot readers: pin published worlds while the writer keeps
  // publishing new ones; generations must be monotone per reader and
  // a pinned world must stay internally consistent.
  threads.emplace_back([&svc, &failures] {
    std::uint64_t lastGeneration = 0;
    for (int i = 0; i < 4 * kRounds; ++i) {
      const auto world = svc.currentWorld();
      if (!world || world->generation() < lastGeneration ||
          world->adjacency().locationCount() !=
              world->fingerprints()->size())
        failures.fetch_add(1);
      if (world) lastGeneration = world->generation();
    }
  });
  for (auto& thread : threads) thread.join();

  // Everything admitted is applied, published and checkpointed.
  svc.flushIntake();
  EXPECT_EQ(0, failures.load());
  // Intake threads * rounds observations were offered (classified at
  // admission); every accepted one must have reached the WAL — the
  // writer thread logs before it applies, in queue order.
  EXPECT_EQ(db.counters().observations,
            static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_EQ(store.lastSeq(), db.counters().accepted);
  EXPECT_GT(store.lastCheckpointSeq(), 0u);
  EXPECT_GE(svc.intakeStats().publishes, 1u);
}

}  // namespace
}  // namespace moloc::service
