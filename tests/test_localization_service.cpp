#include "service/localization_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/localization_session.hpp"
#include "core/online_motion_database.hpp"
#include "intake_state.hpp"
#include "motion_support.hpp"
#include "obs/metrics.hpp"
#include "store/state_store.hpp"
#include "sensors/accelerometer_model.hpp"
#include "sensors/compass_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace moloc::service {
namespace {

/// The Fig. 1 twin world of test_moloc_engine, reused as the service's
/// shared immutable state.
radio::FingerprintDatabase twinFingerprints() {
  radio::FingerprintDatabase db;
  db.addLocation(0, radio::Fingerprint({-50.0, -60.0}));
  db.addLocation(1, radio::Fingerprint({-55.0, -57.0}));
  db.addLocation(2, radio::Fingerprint({-50.1, -60.1}));
  db.addLocation(3, radio::Fingerprint({-55.1, -57.1}));
  db.addLocation(4, radio::Fingerprint({-70.0, -40.0}));
  return db;
}

core::MotionDatabase twinMotion() {
  return test_support::mirroredDb(5, {{0, 1, {90.0, 4.0, 4.0, 0.3, 20}},
                                      {2, 3, {90.0, 4.0, 4.0, 0.3, 20}},
                                      {1, 4, {117.0, 4.0, 8.9, 0.4, 20}},
                                      {3, 4, {63.0, 4.0, 8.9, 0.4, 20}}});
}

/// A deterministic walking IMU trace (3 s at 50 Hz, heading east).
sensors::ImuTrace walkingTrace(std::uint64_t seed) {
  util::Rng rng(seed);
  sensors::AccelerometerModel accel;
  sensors::CompassModel compass;
  const auto accelSeries = accel.walkingSamples(150, 1.8, rng);
  const auto compassSeries = compass.readings(90.0, 0.0, 150, rng);
  sensors::ImuTrace trace(50.0);
  for (std::size_t i = 0; i < 150; ++i)
    trace.append({i / 50.0, accelSeries[i], compassSeries[i]});
  return trace;
}

/// One session's scan sequence: a first fix at the twin, then a walk
/// east (which disambiguates the twin pair), with a per-seed RSS
/// perturbation so sessions differ.
struct Walk {
  std::vector<radio::Fingerprint> scans;
  std::vector<sensors::ImuTrace> imu;
};

Walk makeWalk(std::uint64_t seed) {
  util::Rng rng(seed);
  Walk walk;
  const double jitter = rng.uniform(-0.4, 0.4);
  walk.scans.push_back(radio::Fingerprint({-50.0 + jitter, -60.0}));
  walk.imu.push_back(sensors::ImuTrace(50.0));  // First fix: no IMU.
  walk.scans.push_back(radio::Fingerprint({-55.0 + jitter, -57.0}));
  walk.imu.push_back(walkingTrace(seed * 7 + 1));
  walk.scans.push_back(radio::Fingerprint({-70.0 + jitter, -40.0}));
  walk.imu.push_back(walkingTrace(seed * 7 + 2));
  return walk;
}

bool estimatesBitwiseEqual(const core::LocationEstimate& a,
                           const core::LocationEstimate& b) {
  using test_support::bits;
  if (a.location != b.location || a.probability != b.probability ||
      bits(a.probability) != bits(b.probability) ||
      a.candidates.size() != b.candidates.size())
    return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i)
    if (a.candidates[i].location != b.candidates[i].location ||
        a.candidates[i].probability != b.candidates[i].probability ||
        bits(a.candidates[i].probability) !=
            bits(b.candidates[i].probability))
      return false;
  return true;
}

ServiceConfig testConfig() {
  ServiceConfig config;
  config.shardCount = 4;
  config.engine = core::MoLocConfig{5, {}};
  return config;
}

TEST(LocalizationService, SubmitScanMatchesStandaloneSession) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  core::LocalizationSession serial(svc.fingerprints(), twinMotion(),
                                   svc.config().defaultStepLengthMeters,
                                   svc.config().engine,
                                   svc.config().motion);
  const auto walk = makeWalk(3);
  for (std::size_t r = 0; r < walk.scans.size(); ++r) {
    const auto fromService =
        svc.submitScan(7, walk.scans[r], walk.imu[r]);
    const auto fromSerial = serial.onScan(walk.scans[r], walk.imu[r]);
    EXPECT_TRUE(estimatesBitwiseEqual(fromService, fromSerial))
        << "round " << r;
  }
  EXPECT_TRUE(svc.hasSession(7));
  EXPECT_EQ(svc.sessionCount(), 1u);
}

TEST(LocalizationService, BatchIsBitwiseIdenticalToSerialExecution) {
  constexpr std::size_t kSessions = 8;
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());

  // Serial reference: one standalone session per user, scans in order.
  std::vector<Walk> walks;
  std::vector<std::vector<core::LocationEstimate>> serial(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    walks.push_back(makeWalk(100 + s));
    core::LocalizationSession session(
        svc.fingerprints(), twinMotion(),
        svc.config().defaultStepLengthMeters, svc.config().engine,
        svc.config().motion);
    for (std::size_t r = 0; r < walks[s].scans.size(); ++r)
      serial[s].push_back(
          session.onScan(walks[s].scans[r], walks[s].imu[r]));
  }

  // Concurrent: one batch per round across all sessions.
  for (std::size_t r = 0; r < walks.front().scans.size(); ++r) {
    std::vector<ScanRequest> batch;
    for (std::size_t s = 0; s < kSessions; ++s)
      batch.push_back({static_cast<SessionId>(s), walks[s].scans[r],
                       walks[s].imu[r]});
    const auto estimates = svc.localizeBatch(batch);
    ASSERT_EQ(estimates.size(), kSessions);
    for (std::size_t s = 0; s < kSessions; ++s)
      EXPECT_TRUE(estimatesBitwiseEqual(estimates[s], serial[s][r]))
          << "session " << s << " round " << r;
  }
  EXPECT_EQ(svc.sessionCount(), kSessions);
}

TEST(LocalizationService, SameSessionRequestsInOneBatchApplyInOrder) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(11);
  std::vector<ScanRequest> batch;
  for (std::size_t r = 0; r < walk.scans.size(); ++r)
    batch.push_back({42, walk.scans[r], walk.imu[r]});
  const auto fromBatch = svc.localizeBatch(batch);

  LocalizationService reference(twinFingerprints(), twinMotion(),
                                testConfig());
  for (std::size_t r = 0; r < walk.scans.size(); ++r)
    EXPECT_TRUE(estimatesBitwiseEqual(
        fromBatch[r],
        reference.submitScan(42, walk.scans[r], walk.imu[r])))
        << "round " << r;
}

TEST(LocalizationService, ConcurrentCallerBatchesMatchSerial) {
  // The service runs localizeBatch on the caller's thread, so a
  // serving process gets its parallelism from concurrent callers.
  // Four threads, each batching its own sessions round after round,
  // must get the same bits as one thread running every batch.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSessionsPerThread = 6;
  std::vector<Walk> walks;
  for (std::size_t s = 0; s < kThreads * kSessionsPerThread; ++s)
    walks.push_back(makeWalk(200 + s));
  // Each session walks its three-scan route twice.
  const std::size_t legs = walks.front().scans.size();
  const std::size_t rounds = 2 * legs;
  const auto batchFor = [&](std::size_t thread, std::size_t round) {
    std::vector<ScanRequest> batch;
    for (std::size_t j = 0; j < kSessionsPerThread; ++j) {
      const std::size_t s = thread * kSessionsPerThread + j;
      batch.push_back({static_cast<SessionId>(s),
                       walks[s].scans[round % legs],
                       walks[s].imu[round % legs]});
    }
    return batch;
  };

  using Results = std::vector<std::vector<core::LocationEstimate>>;
  LocalizationService serialSvc(twinFingerprints(), twinMotion(),
                                testConfig());
  std::vector<Results> serial(kThreads, Results(rounds));
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t t = 0; t < kThreads; ++t)
      serial[t][r] = serialSvc.localizeBatch(batchFor(t, r));

  LocalizationService svc(twinFingerprints(), twinMotion(), testConfig());
  std::vector<Results> concurrent(kThreads, Results(rounds));
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kThreads; ++t)
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t r = 0; r < rounds; ++r)
        concurrent[t][r] = svc.localizeBatch(batchFor(t, r));
    });
  go.store(true);
  for (auto& caller : callers) caller.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t r = 0; r < rounds; ++r) {
      ASSERT_EQ(concurrent[t][r].size(), kSessionsPerThread);
      for (std::size_t j = 0; j < kSessionsPerThread; ++j)
        EXPECT_TRUE(
            estimatesBitwiseEqual(concurrent[t][r][j], serial[t][r][j]))
            << "thread " << t << " round " << r << " session " << j;
    }
  EXPECT_EQ(svc.sessionCount(), kThreads * kSessionsPerThread);
}

TEST(LocalizationService, ConcurrentSubmitScansAreSafe) {
  // The ThreadSanitizer smoke test: external threads hammer submitScan
  // on overlapping sessions while this thread runs batches.
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(5);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&svc, &walk, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        // Sessions 0 and 1 are contended; 10+t is private to the thread.
        const SessionId id =
            (i % 3 == 0) ? static_cast<SessionId>(i % 2)
                         : static_cast<SessionId>(10 + t);
        const auto estimate =
            svc.submitScan(id, walk.scans[0], walk.imu[0]);
        if (!estimate.hasFix()) ++failures;
      }
    });
  }
  std::vector<ScanRequest> batch;
  for (std::size_t s = 20; s < 28; ++s)
    batch.push_back({static_cast<SessionId>(s), walk.scans[0],
                     walk.imu[0]});
  for (int i = 0; i < 10; ++i) (void)svc.localizeBatch(batch);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.sessionCount(), 2u + 4u + 8u);
}

TEST(LocalizationService, ConcurrentFirstScansCreateOneSession) {
  // A new session is built outside the shard lock and inserted if
  // absent.  Racing first scans for one new id — from submitScan and
  // from a batch, each on its own thread — must leave exactly one
  // session; a losing builder's slot is dropped without touching the
  // gauge, and every racer's scan lands on the survivor.
  const auto walk = makeWalk(9);
  ServiceConfig referenceConfig = testConfig();
  referenceConfig.metrics = nullptr;
  LocalizationService reference(twinFingerprints(), twinMotion(),
                                referenceConfig);
  // A first fix carries no motion, so every racer's estimate is the
  // same fingerprint-only answer whatever the interleaving.
  const auto expected = reference.submitScan(1, walk.scans[0], walk.imu[0]);

  constexpr SessionId kId = 42;
  constexpr int kScanners = 8;
  for (int round = 0; round < 10; ++round) {
    obs::MetricsRegistry registry;
    ServiceConfig config = testConfig();
    config.metrics = &registry;
    LocalizationService svc(twinFingerprints(), twinMotion(), config);

    std::atomic<bool> go{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kScanners; ++t)
      threads.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        if (!estimatesBitwiseEqual(
                svc.submitScan(kId, walk.scans[0], walk.imu[0]), expected))
          ++mismatches;
      });
    threads.emplace_back([&] {
      const std::vector<ScanRequest> batch{
          {kId, walk.scans[0], walk.imu[0]}};
      while (!go.load()) std::this_thread::yield();
      if (!estimatesBitwiseEqual(svc.localizeBatch(batch).front(),
                                 expected))
        ++mismatches;
    });
    go.store(true);
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
    EXPECT_EQ(svc.sessionCount(), 1u) << "round " << round;
    const obs::Gauge* active =
        registry.findGauge("moloc_service_sessions_active");
    ASSERT_NE(active, nullptr);
    EXPECT_DOUBLE_EQ(active->value(), 1.0) << "round " << round;
  }
}

TEST(LocalizationService, OpenSessionRejectsDuplicatesAndBadStepLength) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  svc.openSession(1, 0.8);
  EXPECT_THROW(svc.openSession(1, 0.7), std::invalid_argument);
  EXPECT_THROW(svc.openSession(2, 0.0), std::invalid_argument);
  EXPECT_FALSE(svc.hasSession(2));
}

TEST(LocalizationService, EndSessionDiscardsState) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(9);
  (void)svc.submitScan(5, walk.scans[0], walk.imu[0]);
  EXPECT_TRUE(svc.endSession(5));
  EXPECT_FALSE(svc.hasSession(5));
  EXPECT_FALSE(svc.endSession(5));
  EXPECT_EQ(svc.sessionCount(), 0u);
}

TEST(LocalizationService, ResetSessionForgetsWalkHistory) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(13);
  const auto first = svc.submitScan(3, walk.scans[0], walk.imu[0]);
  (void)svc.submitScan(3, walk.scans[1], walk.imu[1]);
  svc.resetSession(3);
  // After reset the same first scan must reproduce the first fix.
  const auto again = svc.submitScan(3, walk.scans[0], walk.imu[0]);
  EXPECT_TRUE(estimatesBitwiseEqual(first, again));
  svc.resetSession(999);  // Unknown session: no-op, no throw.
}

TEST(LocalizationService, BatchPropagatesRequestErrors) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(17);
  std::vector<ScanRequest> batch;
  batch.push_back({1, walk.scans[0], walk.imu[0]});
  batch.push_back(
      {2, radio::Fingerprint({std::nan(""), -60.0}), walk.imu[0]});
  EXPECT_THROW(svc.localizeBatch(batch), std::invalid_argument);
}

TEST(LocalizationService, BatchSkipsFailedSessionsRemainingRequests) {
  // Regression for the batch failure semantics: a failing request
  // must (a) keep that session's *earlier* requests in the batch
  // applied, (b) skip that session's *later* requests — a stateful
  // filter must not apply scans across a gap — and (c) leave other
  // sessions untouched.  Verified by replaying the surviving prefix
  // on a reference service and comparing the next estimate bitwise.
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(31);
  const radio::Fingerprint poisoned({std::nan(""), -60.0});

  std::vector<ScanRequest> batch;
  batch.push_back({1, walk.scans[0], walk.imu[0]});  // A: applied.
  batch.push_back({1, poisoned, walk.imu[1]});       // A: fails.
  batch.push_back({1, walk.scans[1], walk.imu[1]});  // A: skipped.
  batch.push_back({2, walk.scans[0], walk.imu[0]});  // B: applied.
  EXPECT_THROW(svc.localizeBatch(batch), std::invalid_argument);

  // Reference sessions that applied exactly the surviving prefix.
  LocalizationService reference(twinFingerprints(), twinMotion(),
                                testConfig());
  (void)reference.submitScan(1, walk.scans[0], walk.imu[0]);
  (void)reference.submitScan(2, walk.scans[0], walk.imu[0]);

  // If session 1 had also applied walk.scans[1] (the request after
  // its failure), this follow-up scan would fuse different motion
  // history and diverge from the reference.
  EXPECT_TRUE(estimatesBitwiseEqual(
      svc.submitScan(1, walk.scans[1], walk.imu[1]),
      reference.submitScan(1, walk.scans[1], walk.imu[1])));
  EXPECT_TRUE(estimatesBitwiseEqual(
      svc.submitScan(2, walk.scans[1], walk.imu[1]),
      reference.submitScan(2, walk.scans[1], walk.imu[1])));
}

TEST(LocalizationService, BatchRethrowsEarliestFailureInBatchOrder) {
  // Two sessions fail with distinguishable errors; the service must
  // deterministically surface the one at the smaller batch index, not
  // whichever session happens to run first.
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  const auto walk = makeWalk(37);
  std::vector<ScanRequest> batch;
  batch.push_back({100, radio::Fingerprint({-50.0}), walk.imu[0]});
  batch.push_back(
      {200, radio::Fingerprint({std::nan(""), -60.0}), walk.imu[0]});
  try {
    (void)svc.localizeBatch(batch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dimensions differ"),
              std::string::npos)
        << "rethrew the later failure: " << e.what();
  }
}

TEST(LocalizationService, ServiceMetricsTrackScansSessionsAndBatches) {
  obs::MetricsRegistry registry;
  ServiceConfig config = testConfig();
  config.metrics = &registry;
  LocalizationService svc(twinFingerprints(), twinMotion(), config);
  const auto walk = makeWalk(41);

  (void)svc.submitScan(1, walk.scans[0], walk.imu[0]);
  (void)svc.submitScan(1, walk.scans[1], walk.imu[1]);
  std::vector<ScanRequest> batch;
  batch.push_back({2, walk.scans[0], walk.imu[0]});
  batch.push_back({3, walk.scans[0], walk.imu[0]});
  (void)svc.localizeBatch(batch);

  EXPECT_DOUBLE_EQ(
      registry.findCounter("moloc_service_scans_total")->value(), 4.0);
  obs::Histogram* latency =
      registry.findHistogram("moloc_service_scan_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 4u);
  obs::Histogram* batchSize =
      registry.findHistogram("moloc_service_batch_size");
  ASSERT_NE(batchSize, nullptr);
  EXPECT_EQ(batchSize->count(), 1u);
  EXPECT_DOUBLE_EQ(batchSize->sum(), 2.0);

  obs::Gauge* active =
      registry.findGauge("moloc_service_sessions_active");
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value(), 3.0);
  EXPECT_TRUE(svc.endSession(2));
  EXPECT_DOUBLE_EQ(active->value(), 2.0);

  // The batch rounds run fingerprint matching through the service's
  // up-front kernel invocation, not the per-round engine stage: the
  // engine's fingerprint stage counts only the two submitScan rounds,
  // and the batch's matching time lands in the service-level
  // batch-match histogram (one observation per batch).
  obs::Histogram* fingerprintStage = registry.findHistogram(
      "moloc_engine_stage_seconds", {{"stage", "fingerprint"}});
  ASSERT_NE(fingerprintStage, nullptr);
  EXPECT_EQ(fingerprintStage->count(), 2u);
  obs::Histogram* batchMatch =
      registry.findHistogram("moloc_service_batch_match_seconds");
  ASSERT_NE(batchMatch, nullptr);
  EXPECT_EQ(batchMatch->count(), 1u);
  obs::Histogram* motionStage = registry.findHistogram(
      "moloc_engine_stage_seconds", {{"stage", "motion"}});
  ASSERT_NE(motionStage, nullptr);
  EXPECT_EQ(motionStage->count(), 4u);
}

TEST(LocalizationService, FailedBatchRequestsCounted) {
  obs::MetricsRegistry registry;
  ServiceConfig config = testConfig();
  config.metrics = &registry;
  LocalizationService svc(twinFingerprints(), twinMotion(), config);
  const auto walk = makeWalk(43);
  std::vector<ScanRequest> batch;
  batch.push_back({1, walk.scans[0], walk.imu[0]});
  batch.push_back(
      {1, radio::Fingerprint({std::nan(""), -60.0}), walk.imu[1]});
  batch.push_back({1, walk.scans[1], walk.imu[1]});  // Skipped.
  EXPECT_THROW(svc.localizeBatch(batch), std::invalid_argument);
  // The failing request plus the skipped tail: 2 of 3.
  EXPECT_DOUBLE_EQ(
      registry
          .findCounter("moloc_service_batch_requests_failed_total")
          ->value(),
      2.0);
}

TEST(LocalizationService, NullRegistryDisablesMetricsAtRuntime) {
  ServiceConfig config = testConfig();
  config.metrics = nullptr;
  LocalizationService svc(twinFingerprints(), twinMotion(), config);
  const auto walk = makeWalk(47);
  const auto estimate = svc.submitScan(1, walk.scans[0], walk.imu[0]);
  EXPECT_TRUE(estimate.hasFix());  // Works, just unobserved.
}

TEST(LocalizationService, EstimatesDoNotDependOnTheRegistry) {
  // Instrumentation only observes: the same scans through a service
  // with a private registry and through one with none must give the
  // same bits.
  obs::MetricsRegistry registry;
  ServiceConfig observedConfig = testConfig();
  observedConfig.metrics = &registry;
  ServiceConfig unobservedConfig = testConfig();
  unobservedConfig.metrics = nullptr;
  LocalizationService observed(twinFingerprints(), twinMotion(),
                               observedConfig);
  LocalizationService unobserved(twinFingerprints(), twinMotion(),
                                 unobservedConfig);

  const auto walk = makeWalk(53);
  for (std::size_t r = 0; r < walk.scans.size(); ++r)
    EXPECT_TRUE(estimatesBitwiseEqual(
        observed.submitScan(1, walk.scans[r], walk.imu[r]),
        unobserved.submitScan(1, walk.scans[r], walk.imu[r])))
        << "round " << r;
  const auto other = makeWalk(59);
  std::vector<ScanRequest> batch;
  for (std::size_t r = 0; r < other.scans.size(); ++r) {
    batch.push_back({2, other.scans[r], other.imu[r]});
    batch.push_back({3, walk.scans[r], walk.imu[r]});
  }
  const auto fromObserved = observed.localizeBatch(batch);
  const auto fromUnobserved = unobserved.localizeBatch(batch);
  ASSERT_EQ(fromObserved.size(), fromUnobserved.size());
  for (std::size_t i = 0; i < fromObserved.size(); ++i)
    EXPECT_TRUE(estimatesBitwiseEqual(fromObserved[i], fromUnobserved[i]))
        << "request " << i;
  // The observed service did record what it served.
  EXPECT_DOUBLE_EQ(
      registry.findCounter("moloc_service_scans_total")->value(),
      static_cast<double>(walk.scans.size() + batch.size()));
}

TEST(LocalizationService, RejectsZeroCandidatesAndAnEmptyRadioMap) {
  ServiceConfig noCandidates = testConfig();
  noCandidates.engine.candidateCount = 0;
  EXPECT_THROW(LocalizationService(twinFingerprints(), twinMotion(),
                                   noCandidates),
               util::ConfigError);
  EXPECT_THROW(LocalizationService(radio::FingerprintDatabase{},
                                   twinMotion(), testConfig()),
               util::ConfigError);
  // The world constructor, which the databases one delegates to, is
  // where both are checked.
  const auto emptyWorld = std::make_shared<const core::WorldSnapshot>(
      std::make_shared<const radio::FingerprintDatabase>(),
      std::make_shared<const core::MotionDatabase>(twinMotion()), 0, 0);
  EXPECT_THROW(LocalizationService(emptyWorld, testConfig()),
               util::ConfigError);
}

TEST(LocalizationService, RejectsZeroShards) {
  ServiceConfig config = testConfig();
  config.shardCount = 0;
  EXPECT_THROW(LocalizationService(twinFingerprints(), twinMotion(),
                                   config),
               std::invalid_argument);
}

/// The corridor plan the intake tests feed observations against.
env::FloorPlan intakePlan() {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  return plan;
}

std::string freshStoreDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_svc_store_" +
                          tag + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(LocalizationService, ReportObservationRequiresAttachedIntake) {
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  EXPECT_THROW(svc.reportObservation(0, 1, 90.0, 4.0),
               std::logic_error);
  EXPECT_THROW(svc.attachIntake(nullptr), std::invalid_argument);

  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan.positions());
  // A checkpoint trigger without a store to checkpoint into.
  EXPECT_THROW(svc.attachIntake(&db, nullptr, 10),
               std::invalid_argument);
}

TEST(LocalizationService, ReportObservationFeedsTheAttachedDatabase) {
  // The database must outlive the service: the service's intake writer
  // thread keeps applying admitted observations until detach/shutdown.
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan.positions());
  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  svc.attachIntake(&db);

  EXPECT_TRUE(svc.reportObservation(0, 1, 90.0, 4.0));
  EXPECT_FALSE(svc.reportObservation(0, 1, 180.0, 4.0));  // Coarse.
  // reportObservation == admission; flushIntake is the apply barrier.
  svc.flushIntake();
  EXPECT_EQ(db.counters().observations, 2u);
  EXPECT_EQ(db.counters().accepted, 1u);
  EXPECT_EQ(svc.intakeStats().applied, 1u);
}

/// Reports `count` observations the intake accepts, varied with `k0`.
void reportAccepted(LocalizationService& svc, int k0, int count) {
  for (int k = k0; k < k0 + count; ++k)
    ASSERT_TRUE(svc.reportObservation(k % 2, 1 + k % 2,
                                      88.0 + 0.2 * (k % 9),
                                      3.7 + 0.02 * (k % 11)));
}

TEST(LocalizationService, FlushReturnsWithTriggeredCheckpointOnDisk) {
  const std::string dir = freshStoreDir("bg");
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan.positions(), {}, /*reservoirCapacity=*/4);
  store::StoreConfig storeConfig;
  storeConfig.wal.fsync = store::FsyncPolicy::kNone;
  store::StateStore store(dir, storeConfig);

  LocalizationService svc(twinFingerprints(), twinMotion(),
                          testConfig());
  svc.attachIntake(&db, &store, /*checkpointEveryRecords=*/10);
  EXPECT_EQ(db.sink(), &store);  // attachIntake wires the WAL hook.

  reportAccepted(svc, 0, 30);
  // The barrier alone: the publish that covers the flushed records
  // runs the checkpoint they triggered before flushIntake returns.
  svc.flushIntake();
  EXPECT_GE(store.lastCheckpointSeq(), 10u);
  EXPECT_EQ(store.lastSeq(), db.counters().accepted);

  // The durable state reconstructs the live database bit-identically.
  db.setSink(nullptr);
  core::OnlineMotionDatabase recovered(plan.positions(), {}, 4);
  const auto result = store::recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  test_support::expectIdenticalIntakeState(db, recovered);
}

TEST(LocalizationService, FailedCheckpointIsCountedAndIntakeCarriesOn) {
  const std::string dir = freshStoreDir("ckptfail");
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan.positions(), {}, /*reservoirCapacity=*/4);
  store::StoreConfig storeConfig;
  storeConfig.wal.fsync = store::FsyncPolicy::kNone;
  obs::MetricsRegistry registry;
  storeConfig.metrics = &registry;
  store::StateStore store(dir, storeConfig);

  // Exactly ten accepted records reach the first trigger, so it
  // checkpoints at seq 10; a directory where that checkpoint's .tmp
  // file goes makes the write fail.
  char name[64];
  std::snprintf(name, sizeof name, "checkpoint-%020llu.ckpt.tmp", 10ULL);
  const std::string obstacle = dir + "/" + name;
  std::filesystem::create_directories(obstacle);

  ServiceConfig config = testConfig();
  config.metrics = &registry;
  LocalizationService svc(twinFingerprints(), twinMotion(), config);
  // Publish (and so check the trigger) only at a flush.
  IntakePolicy flushOnly;
  flushOnly.publishEveryRecords = 1000000;
  flushOnly.maxStaleness = std::chrono::hours(1);
  svc.attachIntake(&db, &store, /*checkpointEveryRecords=*/10, flushOnly);

  reportAccepted(svc, 0, 10);
  svc.flushIntake();
  EXPECT_EQ(store.lastCheckpointSeq(), 0u);
  EXPECT_DOUBLE_EQ(
      registry.findCounter("moloc_service_checkpoint_failures_total")
          ->value(),
      1.0);
  // The failure cost durability of nothing: every accepted observation
  // is logged and applied, and the service keeps serving.
  EXPECT_EQ(store.lastSeq(), 10u);
  EXPECT_EQ(db.counters().accepted, 10u);
  EXPECT_EQ(svc.intakeStats().applied, 10u);
  EXPECT_EQ(svc.intakeStats().applyFailures, 0u);
  const auto walk = makeWalk(61);
  EXPECT_TRUE(svc.submitScan(1, walk.scans[0], walk.imu[0]).hasFix());

  std::filesystem::remove_all(obstacle);
  reportAccepted(svc, 10, 10);
  svc.flushIntake();
  EXPECT_EQ(store.lastCheckpointSeq(), 20u);
  EXPECT_DOUBLE_EQ(
      registry.findCounter("moloc_service_checkpoint_failures_total")
          ->value(),
      1.0);

  db.setSink(nullptr);
  core::OnlineMotionDatabase recovered(plan.positions(), {}, 4);
  const auto result = store::recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  EXPECT_EQ(result.checkpointSeq, 20u);
  EXPECT_EQ(result.replayedRecords, 0u);
  test_support::expectIdenticalIntakeState(db, recovered);
}

TEST(LocalizationService, SharedRegistryCountsCheckpointsOnce) {
  const std::string dir = freshStoreDir("registry");
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan.positions(), {}, /*reservoirCapacity=*/4);
  obs::MetricsRegistry registry;
  store::StoreConfig storeConfig;
  storeConfig.wal.fsync = store::FsyncPolicy::kNone;
  storeConfig.metrics = &registry;
  store::StateStore store(dir, storeConfig);

  ServiceConfig config = testConfig();
  config.metrics = &registry;
  LocalizationService svc(twinFingerprints(), twinMotion(), config);
  svc.attachIntake(&db, &store, /*checkpointEveryRecords=*/5);
  reportAccepted(svc, 0, 5);
  svc.flushIntake();

  // The store's series is the one checkpoint count; the service keeps
  // only the failures.
  const obs::Counter* checkpoints =
      registry.findCounter("moloc_store_checkpoints_total");
  ASSERT_NE(checkpoints, nullptr);
  EXPECT_GE(checkpoints->value(), 1.0);
  EXPECT_DOUBLE_EQ(
      registry.findCounter("moloc_service_checkpoint_failures_total")
          ->value(),
      0.0);
}

/// Write-ahead sink that parks the intake writer inside an apply until
/// released — the deterministic way to hold "admitted but not yet
/// applied" work in flight while a shutdown races a flush.
class BlockingSink : public core::ObservationSink {
 public:
  BlockingSink(std::atomic<bool>& entered, std::atomic<bool>& release)
      : entered_(entered), release_(release) {}
  void onAccepted(env::LocationId, env::LocationId, double,
                  double) override {
    entered_.store(true);
    while (!release_.load()) std::this_thread::yield();
  }

 private:
  std::atomic<bool>& entered_;
  std::atomic<bool>& release_;
};

TEST(LocalizationService, FlushRacingShutdownThrowsPromptly) {
  // Regression: a flushIntake() waiter whose work could never finish
  // kept sleeping on the drain condition when the pipeline stopped
  // underneath it — stop() only signalled after joining the writer,
  // and the wait loop did not treat stopping_ as terminal.  Now the
  // waiter gets ShutdownError promptly, *before* the writer has
  // drained (proven here by releasing the pinned apply only after the
  // flusher has already seen the error).
  const auto plan = intakePlan();
  core::OnlineMotionDatabase db(plan.positions());

  std::atomic<bool> sinkEntered{false};
  std::atomic<bool> sinkRelease{false};
  BlockingSink sink(sinkEntered, sinkRelease);

  auto svc = std::make_unique<LocalizationService>(
      twinFingerprints(), twinMotion(), testConfig());
  svc->attachIntake(&db);
  db.setSink(&sink);  // After attachIntake: it owns the sink slot.

  ASSERT_TRUE(svc->reportObservation(0, 1, 90.0, 4.0));
  while (!sinkEntered.load()) std::this_thread::yield();
  // The writer is now provably mid-apply and pinned there, with the
  // admitted observation not yet counted as applied.

  LocalizationService* const service = svc.get();
  std::atomic<bool> flusherStarted{false};
  std::atomic<bool> sawShutdownError{false};
  std::thread flusher([&] {
    flusherStarted.store(true);
    try {
      service->flushIntake();
      ADD_FAILURE() << "flushIntake returned despite pending work "
                       "across a shutdown";
    } catch (const ShutdownError&) {
      sawShutdownError.store(true);
    }
  });
  while (!flusherStarted.load()) std::this_thread::yield();

  // Release the pinned apply only after the flusher has been thrown
  // out — the prompt wake-up must not depend on the writer finishing.
  std::thread releaser([&] {
    while (!sawShutdownError.load()) std::this_thread::yield();
    sinkRelease.store(true);
  });

  svc.reset();  // Must not hang.
  flusher.join();
  releaser.join();
  EXPECT_TRUE(sawShutdownError.load());
  db.setSink(nullptr);
}

}  // namespace
}  // namespace moloc::service
