// Unit tests of service::IntakePipeline — the bounded MPSC admission
// queue and single writer thread on the write side of the epoch-style
// serving split (docs/serving.md).  The contracts pinned here:
// admission order == WAL order == apply order, typed backpressure that
// never breaks the write-ahead guarantee, flush as the durability +
// visibility barrier, and the record-count/staleness publish cadence.

#include "service/intake.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "util/mutex.hpp"

namespace moloc::service {
namespace {

env::FloorPlan corridorPlan() {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  return plan;
}

/// Write-ahead sink recording the logged order.  Only the pipeline's
/// writer thread calls onAccepted, so no synchronization is needed as
/// long as readers look only after a flush/stop barrier.
class RecordingSink : public core::ObservationSink {
 public:
  struct Entry {
    env::LocationId start = 0;
    env::LocationId end = 0;
    double directionDeg = 0.0;
    double offsetMeters = 0.0;
  };
  void onAccepted(env::LocationId start, env::LocationId end,
                  double directionDeg, double offsetMeters) override {
    logged.push_back({start, end, directionDeg, offsetMeters});
  }
  std::vector<Entry> logged;
};

/// A sink whose log always fails — exercises the write-ahead abort.
class FailingSink : public core::ObservationSink {
 public:
  void onAccepted(env::LocationId, env::LocationId, double,
                  double) override {
    throw std::runtime_error("log unavailable");
  }
};

/// A RecordingSink with a one-way gate: the writer parks inside the
/// apply of the first observation it logs until open(), so tests can
/// fill the queue deterministically.
class GatedSink : public RecordingSink {
 public:
  void onAccepted(env::LocationId start, env::LocationId end,
                  double directionDeg, double offsetMeters) override {
    {
      const util::MutexLock lock(mu_);
      ++arrivals_;
      cv_.notifyAll();
      while (!open_) cv_.wait(mu_);
    }
    RecordingSink::onAccepted(start, end, directionDeg, offsetMeters);
  }
  void waitForArrival() {
    const util::MutexLock lock(mu_);
    while (arrivals_ == 0) cv_.wait(mu_);
  }
  void open() {
    const util::MutexLock lock(mu_);
    open_ = true;
    cv_.notifyAll();
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  int arrivals_ MOLOC_GUARDED_BY(mu_) = 0;
  bool open_ MOLOC_GUARDED_BY(mu_) = false;
};

IntakePolicy slowPublishPolicy() {
  IntakePolicy policy;
  policy.publishEveryRecords = 1000000;
  policy.maxStaleness = std::chrono::milliseconds(3600 * 1000);
  return policy;
}

TEST(IntakePipeline, RejectsDegeneratePolicies) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  IntakePolicy zeroCapacity;
  zeroCapacity.queueCapacity = 0;
  EXPECT_THROW(IntakePipeline(db, zeroCapacity, nullptr),
               std::invalid_argument);
  IntakePolicy zeroRecords;
  zeroRecords.publishEveryRecords = 0;
  EXPECT_THROW(IntakePipeline(db, zeroRecords, nullptr),
               std::invalid_argument);
  IntakePolicy zeroStaleness;
  zeroStaleness.maxStaleness = std::chrono::milliseconds(0);
  EXPECT_THROW(IntakePipeline(db, zeroStaleness, nullptr),
               std::invalid_argument);
}

TEST(IntakePipeline, AppliesInAdmissionOrderThroughTheWal) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  RecordingSink sink;
  db.setSink(&sink);
  IntakePipeline pipeline(db, slowPublishPolicy(), nullptr);

  EXPECT_TRUE(pipeline.submit(0, 1, 90.0, 4.0));
  EXPECT_TRUE(pipeline.submit(1, 2, 91.0, 4.1));
  EXPECT_FALSE(pipeline.submit(0, 1, 180.0, 4.0));  // Coarse reject:
                                                    // never enqueued.
  EXPECT_TRUE(pipeline.submit(0, 1, 89.0, 3.9));
  pipeline.flush();

  // WAL order == admission order, rejected observation absent.
  ASSERT_EQ(sink.logged.size(), 3u);
  EXPECT_EQ(sink.logged[0].end, 1);
  EXPECT_EQ(sink.logged[0].directionDeg, 90.0);
  EXPECT_EQ(sink.logged[1].start, 1);
  EXPECT_EQ(sink.logged[1].end, 2);
  EXPECT_EQ(sink.logged[2].directionDeg, 89.0);
  EXPECT_EQ(db.counters().observations, 4u);  // Counted at admission.
  EXPECT_EQ(db.counters().accepted, 3u);      // Counted at apply.

  const auto stats = pipeline.stats();
  EXPECT_EQ(stats.enqueued, 3u);
  EXPECT_EQ(stats.applied, 3u);
  EXPECT_EQ(stats.queueDepth, 0u);
  EXPECT_EQ(stats.backpressure, 0u);
}

TEST(IntakePipeline, BackpressureIsTypedAndPreservesTheWalGuarantee) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  GatedSink sink;
  db.setSink(&sink);

  IntakePolicy policy = slowPublishPolicy();
  policy.queueCapacity = 2;
  IntakePipeline pipeline(db, policy, nullptr);

  // Park the writer inside the first apply's log write, then fill the
  // queue.
  EXPECT_TRUE(pipeline.submit(0, 1, 90.0, 4.0));
  sink.waitForArrival();
  EXPECT_TRUE(pipeline.submit(0, 1, 91.0, 4.1));
  EXPECT_TRUE(pipeline.submit(1, 2, 92.0, 4.2));
  EXPECT_THROW(pipeline.submit(1, 2, 93.0, 4.3), BackpressureError);
  EXPECT_EQ(pipeline.stats().backpressure, 1u);
  EXPECT_EQ(pipeline.stats().queueDepth, 2u);

  sink.open();
  pipeline.flush();

  // The rejected submit was neither logged nor applied; everything
  // admitted before and after it went through in admission order.
  ASSERT_EQ(sink.logged.size(), 3u);
  EXPECT_EQ(sink.logged[0].directionDeg, 90.0);
  EXPECT_EQ(sink.logged[1].directionDeg, 91.0);
  EXPECT_EQ(sink.logged[2].directionDeg, 92.0);
  EXPECT_EQ(db.counters().accepted, 3u);
  EXPECT_EQ(pipeline.stats().applied, 3u);
}

TEST(IntakePipeline, PublishesOnTheRecordCadence) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::uint64_t> lastRecords{0};
  IntakePolicy policy = slowPublishPolicy();
  policy.publishEveryRecords = 2;
  IntakePipeline pipeline(
      db, policy,
      /*publish=*/
      [&](std::uint64_t records) {
        publishes.fetch_add(1);
        lastRecords.store(records);
      });

  for (int k = 0; k < 4; ++k)
    EXPECT_TRUE(pipeline.submit(k % 2, 1 + k % 2, 90.0 + k, 4.0));
  pipeline.flush();

  // 4 applies at a cadence of 2: publishes after the 2nd and the 4th,
  // and flush needs no extra (the world is clean at the barrier).
  EXPECT_EQ(publishes.load(), 2u);
  EXPECT_EQ(lastRecords.load(), 4u);
  EXPECT_EQ(pipeline.stats().publishes, 2u);
}

TEST(IntakePipeline, PublishesWhenTheStalenessBoundExpires) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  std::atomic<std::uint64_t> publishes{0};
  IntakePolicy policy;
  policy.publishEveryRecords = 1000000;  // Record trigger never fires.
  policy.maxStaleness = std::chrono::milliseconds(20);
  IntakePipeline pipeline(
      db, policy,
      /*publish=*/[&](std::uint64_t) { publishes.fetch_add(1); });

  EXPECT_TRUE(pipeline.submit(0, 1, 90.0, 4.0));
  // No flush: the staleness bound alone must surface the observation.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (publishes.load() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(publishes.load(), 1u);
}

TEST(IntakePipeline, WriteAheadFailureIsCountedNotApplied) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  FailingSink sink;
  db.setSink(&sink);
  IntakePipeline pipeline(db, slowPublishPolicy(), nullptr);

  EXPECT_TRUE(pipeline.submit(0, 1, 90.0, 4.0));  // Admitted...
  pipeline.flush();
  // ...but the log write failed, so the write-ahead discipline aborted
  // the update: nothing applied, the loss surfaced in the stats.
  EXPECT_EQ(pipeline.stats().applyFailures, 1u);
  EXPECT_EQ(pipeline.stats().applied, 0u);
  EXPECT_EQ(db.counters().accepted, 0u);
  EXPECT_EQ(db.trackedPairs(), 0u);
}

TEST(IntakePipeline, StopDrainsAdmittedWorkAndRejectsNewSubmits) {
  const auto plan = corridorPlan();
  core::OnlineMotionDatabase db(plan.positions());
  RecordingSink sink;
  db.setSink(&sink);
  std::atomic<std::uint64_t> publishes{0};
  auto pipeline = std::make_unique<IntakePipeline>(
      db, slowPublishPolicy(),
      /*publish=*/[&](std::uint64_t) { publishes.fetch_add(1); });

  EXPECT_TRUE(pipeline->submit(0, 1, 90.0, 4.0));
  EXPECT_TRUE(pipeline->submit(1, 2, 91.0, 4.1));
  pipeline->stop();

  // Everything admitted before the stop was logged, applied, and
  // covered by the final publish; later submits get the typed error.
  EXPECT_EQ(sink.logged.size(), 2u);
  EXPECT_EQ(db.counters().accepted, 2u);
  EXPECT_GE(publishes.load(), 1u);
  EXPECT_THROW(pipeline->submit(0, 1, 90.0, 4.0), ShutdownError);
  pipeline->stop();  // Idempotent.
}

}  // namespace
}  // namespace moloc::service
