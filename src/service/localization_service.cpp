#include "service/localization_service.hpp"

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/online_motion_database.hpp"
#include "store/state_store.hpp"
#include "util/error.hpp"

namespace moloc::service {

namespace {

ServiceConfig checkedConfig(ServiceConfig config) {
  if (config.shardCount == 0)
    throw util::ConfigError(
        "LocalizationService: shard count must be >= 1");
  if (config.engine.candidateCount == 0)
    throw util::ConfigError(
        "LocalizationService: candidate count must be >= 1");
  return config;
}

/// The radio map of `world`, the one thing a service cannot serve
/// without.
std::shared_ptr<const radio::FingerprintDatabase> radioMapOf(
    const std::shared_ptr<const core::WorldSnapshot>& world) {
  if (!world) throw util::ConfigError("LocalizationService: null world");
  if (!world->fingerprints() || world->fingerprints()->empty())
    throw util::ConfigError(
        "LocalizationService: world without a radio map");
  return world->fingerprints();
}

}  // namespace

std::shared_ptr<const core::WorldSnapshot> bootWorld(
    std::shared_ptr<const radio::FingerprintDatabase> fingerprints,
    const core::MotionDatabase& motion, const ServiceConfig& config) {
  std::shared_ptr<const index::TieredIndex> index;
  if (fingerprints && fingerprints->size() >= kTieredIndexMinEntries) {
    index::IndexConfig indexConfig;
    indexConfig.buildThreads = config.threadCount;
    index = std::make_shared<const index::TieredIndex>(
        fingerprints, indexConfig, config.indexShardStarts);
  }
  return std::make_shared<const core::WorldSnapshot>(
      std::move(fingerprints),
      std::make_shared<const core::MotionDatabase>(motion), 0, 0,
      std::move(index));
}

LocalizationService::LocalizationService(
    radio::FingerprintDatabase fingerprints,
    const core::MotionDatabase& motion, const ServiceConfig& config)
    : LocalizationService(
          bootWorld(std::make_shared<const radio::FingerprintDatabase>(
                        std::move(fingerprints)),
                    motion, config),
          config) {}

LocalizationService::LocalizationService(
    std::shared_ptr<const core::WorldSnapshot> world, ServiceConfig config)
    : config_(checkedConfig(std::move(config))),
      fingerprints_(radioMapOf(world)),
      index_(world->tieredIndex()),
      world_(std::move(world)),
      worldHint_(&world_->adjacency()),
      worldGeneration_(world_->generation()),
      shards_(config_.shardCount) {
  // Sessions inherit the service's registry unless the caller wired
  // the engine to its own.
  if (!config_.engine.metrics) config_.engine.metrics = config_.metrics;
  if (config_.metrics) {
    auto& registry = *config_.metrics;
    metrics_.scanLatency = &registry.histogram(
        "moloc_service_scan_latency_seconds",
        "Wall time of one localization round (motion processing + "
        "engine), including session-lock wait",
        obs::Histogram::exponentialBuckets(1e-5, 2.0, 20));
    metrics_.batchSize = &registry.histogram(
        "moloc_service_batch_size",
        "Requests per localizeBatch() call",
        obs::Histogram::exponentialBuckets(1.0, 2.0, 14));
    metrics_.batchMatch = &registry.histogram(
        "moloc_service_batch_match_seconds",
        "Wall time of the batched fingerprint-kernel invocation that "
        "matches every scan of a localizeBatch() up front (this work "
        "no longer appears in the per-round engine fingerprint stage)",
        obs::Histogram::exponentialBuckets(1e-6, 2.0, 20));
    metrics_.sessionsActive = &registry.gauge(
        "moloc_service_sessions_active", "Sessions currently tracked");
    metrics_.scansTotal = &registry.counter(
        "moloc_service_scans_total", "Localization rounds served");
    metrics_.scansNoFix = &registry.counter(
        "moloc_service_scans_nofix_total",
        "Rounds that produced no fix (empty candidate set)");
    metrics_.batchRequestsFailed = &registry.counter(
        "moloc_service_batch_requests_failed_total",
        "Batch requests that failed or were skipped after a failure "
        "in their session");
    metrics_.observationsReported = &registry.counter(
        "moloc_service_observations_reported_total",
        "Crowdsourced observations fed through reportObservation()");
    metrics_.checkpointFailures = &registry.counter(
        "moloc_service_checkpoint_failures_total",
        "Checkpoints the intake writer attempted that failed with an "
        "exception");
    metrics_.worldPublishes = &registry.counter(
        "moloc_service_world_publishes_total",
        "Immutable WorldSnapshots published by the intake writer");
    metrics_.worldGeneration = &registry.gauge(
        "moloc_service_world_generation",
        "Generation number of the currently serving world");
  }
}

LocalizationService::~LocalizationService() {
  // Stop the intake writer outside intakeMu_ (its hooks take service
  // locks).  stop() drains the queue — admitted observations are still
  // logged and applied — and runs a final publish.
  std::shared_ptr<IntakePipeline> pipeline;
  {
    const util::MutexLock lock(intakeMu_);
    intakeShutdown_ = true;
    pipeline = std::move(pipeline_);
  }
  if (pipeline) pipeline->stop();
}

LocalizationService::Shard& LocalizationService::shardFor(SessionId id) {
  return shards_[static_cast<std::size_t>(id) % shards_.size()];
}

const LocalizationService::Shard& LocalizationService::shardFor(
    SessionId id) const {
  return shards_[static_cast<std::size_t>(id) % shards_.size()];
}

std::shared_ptr<LocalizationService::SessionSlot>
LocalizationService::makeSlot(double stepLengthMeters) const {
  const std::size_t k = config_.engine.candidateCount;
  // Index-backed candidate estimation has the radio-map backend's
  // contract: TieredIndex::queryInto mirrors queryInto's validation
  // and, given full shortlist recall, its exact matches.
  core::CandidateEstimator estimator =
      index_ ? core::CandidateEstimator(
                   [index = index_.get()](const radio::Fingerprint& query,
                                          std::size_t kk,
                                          std::vector<core::Candidate>& out) {
                     index->queryInto(query, kk, out);
                   },
                   k)
             : core::CandidateEstimator(*fingerprints_, k);
  return std::make_shared<SessionSlot>(
      std::move(estimator), core::WorldSnapshot::adjacencyOf(currentWorld()),
      stepLengthMeters, config_.engine, config_.motion);
}

std::shared_ptr<LocalizationService::SessionSlot>
LocalizationService::findOrCreate(SessionId id, double stepLengthMeters) {
  auto& shard = shardFor(id);
  {
    const util::MutexLock lock(shard.mu);
    const auto it = shard.sessions.find(id);
    if (it != shard.sessions.end()) return it->second;
  }
  // Build outside the shard lock, then insert if absent: a concurrent
  // first scan for the same id may have won the race, in which case
  // this slot is dropped (after the lock is released) and every caller
  // shares the winner's.
  auto slot = makeSlot(stepLengthMeters);
  const util::MutexLock lock(shard.mu);
  const auto [it, inserted] = shard.sessions.try_emplace(id, std::move(slot));
  if (inserted && metrics_.sessionsActive) metrics_.sessionsActive->inc();
  return it->second;
}

void LocalizationService::openSession(SessionId id,
                                      double stepLengthMeters) {
  auto slot = makeSlot(stepLengthMeters);
  auto& shard = shardFor(id);
  const util::MutexLock lock(shard.mu);
  if (!shard.sessions.try_emplace(id, std::move(slot)).second)
    throw util::ConfigError("LocalizationService: session " +
                                std::to_string(id) + " already exists");
  if (metrics_.sessionsActive) metrics_.sessionsActive->inc();
}

void LocalizationService::adoptWorld(core::LocalizationSession& session) {
  // Steady state (no publish since this session's last scan): one
  // atomic load plus one pointer compare — no lock, no refcount
  // traffic.  The hint is compared, never dereferenced; the session
  // pins the adjacency it is bound to, so equal addresses always
  // mean the same live index (a freed one cannot be reused while
  // the session still holds it).
  const core::MotionDatabase* hint =
      worldHint_.load(std::memory_order_acquire);
  if (hint == nullptr || session.motionAdjacency().get() == hint) return;
  // The world moved: copy the pinning handle under the brief world
  // mutex (possibly an even newer one than the hint we read) and
  // rebind.
  std::shared_ptr<const core::WorldSnapshot> world;
  {
    const util::MutexLock lock(worldMu_);
    world = world_;
  }
  if (world && session.motionAdjacency().get() != &world->adjacency())
    session.rebindMotion(
        core::WorldSnapshot::adjacencyOf(std::move(world)));
}

core::LocationEstimate LocalizationService::localizeLocked(
    core::LocalizationSession& session, const radio::Fingerprint& scan,
    const sensors::ImuTrace& imu) {
  obs::ScopedTimer timer(metrics_.scanLatency);
  adoptWorld(session);
  core::LocationEstimate estimate = session.onScan(scan, imu);
  if (metrics_.scansTotal) metrics_.scansTotal->inc();
  if (metrics_.scansNoFix && !estimate.hasFix())
    metrics_.scansNoFix->inc();
  return estimate;
}

core::LocationEstimate LocalizationService::localizePreparedLocked(
    core::LocalizationSession& session,
    std::span<const core::Candidate> candidates,
    std::exception_ptr scanError, const sensors::ImuTrace& imu) {
  obs::ScopedTimer timer(metrics_.scanLatency);
  adoptWorld(session);
  core::LocationEstimate estimate =
      session.onScanWithCandidates(candidates, scanError, imu);
  if (metrics_.scansTotal) metrics_.scansTotal->inc();
  if (metrics_.scansNoFix && !estimate.hasFix())
    metrics_.scansNoFix->inc();
  return estimate;
}

core::LocationEstimate LocalizationService::submitScan(
    SessionId id, const radio::Fingerprint& scan,
    const sensors::ImuTrace& imuSinceLastScan) {
  const auto slot = findOrCreate(id, config_.defaultStepLengthMeters);
  const util::MutexLock lock(slot->mu);
  return localizeLocked(slot->session, scan, imuSinceLastScan);
}

std::vector<core::LocationEstimate> LocalizationService::localizeBatch(
    const std::vector<ScanRequest>& batch) {
  std::vector<core::LocationEstimate> results(batch.size());
  if (batch.empty()) return results;
  if (metrics_.batchSize)
    metrics_.batchSize->observe(static_cast<double>(batch.size()));

  // Batched fingerprint matching: every scan in the batch goes through
  // one fingerprint-kernel invocation up front, instead of each
  // session running its own independent query.  Per-request errors
  // are captured and rethrown inside the owning session's round at the
  // same point the unbatched query would have thrown, so the
  // documented failure semantics are unchanged.
  std::vector<std::vector<core::Candidate>> batchCandidates;
  std::vector<std::exception_ptr> batchErrors;
  {
    obs::ScopedTimer matchTimer(metrics_.batchMatch);
    std::vector<const radio::Fingerprint*> scans;
    scans.reserve(batch.size());
    for (const auto& request : batch) scans.push_back(&request.scan);
    // The tiered index, when built, fronts the batched match too —
    // same validation and (given full shortlist recall) the same
    // bitwise matches as the exact kernel scan.
    if (index_)
      index_->queryBatchInto(scans, config_.engine.candidateCount,
                             batchCandidates, &batchErrors);
    else
      fingerprints_->queryBatchInto(scans, config_.engine.candidateCount,
                                    batchCandidates, &batchErrors);
  }

  // Group request indices by session in first-appearance order,
  // preserving each session's request order.
  std::unordered_map<SessionId, std::size_t> groupOf;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [it, inserted] =
        groupOf.try_emplace(batch[i].session, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // The failure rethrown below is the one with the smallest batch
  // index, whichever session it belongs to.
  std::size_t firstFailedIndex = batch.size();
  std::exception_ptr firstFailure;
  for (const auto& indices : groups) {
    std::size_t position = 0;
    try {
      const auto slot = findOrCreate(batch[indices.front()].session,
                                     config_.defaultStepLengthMeters);
      const util::MutexLock lock(slot->mu);
      for (; position < indices.size(); ++position) {
        const std::size_t i = indices[position];
        results[i] = localizePreparedLocked(slot->session,
                                            batchCandidates[i],
                                            batchErrors[i], batch[i].imu);
      }
    } catch (...) {
      // A session is a stateful Bayesian filter: once one of its scans
      // fails, applying the later ones would fuse motion across a gap.
      // Skip the session's remaining requests (their estimates stay
      // default "no fix") and go on with the other sessions.
      const std::size_t failed = indices[position];
      if (failed < firstFailedIndex) {
        firstFailedIndex = failed;
        firstFailure = std::current_exception();
      }
      if (metrics_.batchRequestsFailed)
        metrics_.batchRequestsFailed->inc(
            static_cast<double>(indices.size() - position));
    }
  }
  if (firstFailure) std::rethrow_exception(firstFailure);
  return results;
}

void LocalizationService::resetSession(SessionId id) {
  std::shared_ptr<SessionSlot> slot;
  {
    auto& shard = shardFor(id);
    const util::MutexLock lock(shard.mu);
    const auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return;
    slot = it->second;
  }
  const util::MutexLock lock(slot->mu);
  slot->session.reset();
}

bool LocalizationService::endSession(SessionId id) {
  auto& shard = shardFor(id);
  const util::MutexLock lock(shard.mu);
  const bool erased = shard.sessions.erase(id) > 0;
  if (erased && metrics_.sessionsActive) metrics_.sessionsActive->dec();
  return erased;
}

bool LocalizationService::hasSession(SessionId id) const {
  const auto& shard = shardFor(id);
  const util::MutexLock lock(shard.mu);
  return shard.sessions.count(id) > 0;
}

void LocalizationService::publishWorld(core::OnlineMotionDatabase& db) {
  // The accepted-record count folded into this world; totalSeen is
  // read under the database's state mutex, so this is race-free even
  // while producers classify concurrently.
  const std::uint64_t records = db.reservoirStats().totalSeen;
  const std::uint64_t generation =
      worldGeneration_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto next = std::make_shared<const core::WorldSnapshot>(
      fingerprints_,
      std::make_shared<const core::MotionDatabase>(db.database()),
      generation, records, index_);
  const core::MotionDatabase* hint = &next->adjacency();
  {
    // Held only for the handle swap; the retired world is released
    // outside the lock (its refcount may be the last).
    const util::MutexLock lock(worldMu_);
    world_.swap(next);
  }
  next.reset();
  // Publish the identity last: a reader that sees the new hint is
  // guaranteed to find (at least) this world under worldMu_.
  worldHint_.store(hint, std::memory_order_release);
  if (metrics_.worldPublishes) metrics_.worldPublishes->inc();
  if (metrics_.worldGeneration)
    metrics_.worldGeneration->set(static_cast<double>(generation));
}

void LocalizationService::attachIntake(core::OnlineMotionDatabase* db,
                                       store::StateStore* store,
                                       std::uint64_t checkpointEveryRecords,
                                       IntakePolicy policy) {
  if (db == nullptr)
    throw util::ConfigError(
        "LocalizationService::attachIntake: db must be non-null");
  if (checkpointEveryRecords > 0 && store == nullptr)
    throw util::ConfigError(
        "LocalizationService::attachIntake: a checkpoint trigger "
        "requires a store");

  // Stop a previous pipeline outside intakeMu_ (its writer's hooks
  // take service state); a racing reportObservation holds its own
  // shared_ptr and gets ShutdownError from the stopped pipeline.
  std::shared_ptr<IntakePipeline> previous;
  {
    const util::MutexLock lock(intakeMu_);
    previous = std::move(pipeline_);
  }
  if (previous) previous->stop();
  previous.reset();

  if (store != nullptr) db->setSink(store);
  auto pipeline = std::make_shared<IntakePipeline>(
      *db, policy,
      /*publish=*/
      [this, db, store, checkpointEveryRecords](std::uint64_t) {
        publishWorld(*db);
        if (checkpointEveryRecords > 0)
          checkpointIfDue(*db, *store, checkpointEveryRecords);
      },
      config_.metrics);
  {
    const util::MutexLock lock(intakeMu_);
    pipeline_ = std::move(pipeline);
  }
  // Surface the database's current contents (e.g. state recovered
  // from a checkpoint + WAL replay) to readers right away instead of
  // waiting for the first cadence publish.
  publishWorld(*db);
}

bool LocalizationService::reportObservation(env::LocationId estimatedStart,
                                            env::LocationId estimatedEnd,
                                            double directionDeg,
                                            double offsetMeters) {
  std::shared_ptr<IntakePipeline> pipeline;
  {
    const util::MutexLock lock(intakeMu_);
    pipeline = pipeline_;
  }
  if (!pipeline)
    throw util::StateError(
        "LocalizationService::reportObservation: no intake attached "
        "(call attachIntake first)");
  const bool accepted = pipeline->submit(estimatedStart, estimatedEnd,
                                         directionDeg, offsetMeters);
  if (metrics_.observationsReported) metrics_.observationsReported->inc();
  return accepted;
}

void LocalizationService::flushIntake() {
  std::shared_ptr<IntakePipeline> pipeline;
  {
    const util::MutexLock lock(intakeMu_);
    // Distinguish "never attached" (a caller bug, logic_error) from
    // "detached by the destructor" (a benign shutdown race that must
    // surface as the same typed error a stopping pipeline throws —
    // previously this fell through to the misleading logic_error).
    if (!pipeline_ && intakeShutdown_)
      throw ShutdownError(
          "LocalizationService::flushIntake: service shutting down");
    pipeline = pipeline_;
  }
  if (!pipeline)
    throw util::StateError(
        "LocalizationService::flushIntake: no intake attached");
  pipeline->flush();
}

IntakePipeline::Stats LocalizationService::intakeStats() const {
  std::shared_ptr<IntakePipeline> pipeline;
  {
    const util::MutexLock lock(intakeMu_);
    pipeline = pipeline_;
  }
  if (!pipeline)
    throw util::StateError(
        "LocalizationService::intakeStats: no intake attached");
  return pipeline->stats();
}

void LocalizationService::checkpointIfDue(
    const core::OnlineMotionDatabase& db, store::StateStore& store,
    std::uint64_t checkpointEveryRecords) {
  if (store.recordsSinceCheckpoint() < checkpointEveryRecords) return;
  try {
    store.checkpoint(db);
  } catch (...) {
    // Durability degraded but serving is unaffected: the WAL still
    // holds everything, and the next publish tries again.  Surface via
    // metrics rather than tearing the writer down.
    if (metrics_.checkpointFailures) metrics_.checkpointFailures->inc();
  }
}

std::size_t LocalizationService::sessionCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard.mu);
    total += shard.sessions.size();
  }
  return total;
}

}  // namespace moloc::service
