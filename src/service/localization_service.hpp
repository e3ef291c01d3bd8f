#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/localization_session.hpp"
#include "core/motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "index/tiered_index.hpp"
#include "obs/metrics.hpp"
#include "radio/fingerprint_database.hpp"
#include "sensors/imu_trace.hpp"
#include "service/intake.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::core {
class OnlineMotionDatabase;
}
namespace moloc::store {
class StateStore;
}

namespace moloc::service {

/// Identifies one tracked user across scans.
using SessionId = std::uint64_t;

/// Radio maps with at least this many entries get the tiered candidate
/// index (index::TieredIndex) when a service builds its own boot world.
/// 1024 is the smallest size bench/micro_scale sweeps, and the index's
/// p50 already beats the exact scan's there in SIMD ON and OFF builds
/// (docs/scaling.md).
inline constexpr std::size_t kTieredIndexMinEntries = 1024;

/// Server-side tunables of the LocalizationService.
struct ServiceConfig {
  /// Threads that build the boot world's tiered index (passed as
  /// index::IndexConfig::buildThreads); 0 selects the hardware
  /// concurrency.  The index is bitwise identical at any count.  The
  /// service itself starts no localization threads: every call runs on
  /// its caller's thread.
  std::size_t threadCount = 0;
  /// Shards of the session map; more shards = less lock contention on
  /// session lookup.  Must be >= 1 (throws util::ConfigError).
  std::size_t shardCount = 16;
  /// Step length assigned to sessions auto-created by submitScan();
  /// openSession() can override per user.
  double defaultStepLengthMeters = 0.72;
  /// Engine tunables; engine.candidateCount must be >= 1 (throws
  /// util::ConfigError).
  core::MoLocConfig engine;
  sensors::MotionProcessorParams motion;
  /// Natural shard boundaries for the tiered index bootWorld() builds
  /// (e.g. a generated venue's per-floor starts); empty lets the index
  /// split uniformly.
  std::vector<std::size_t> indexShardStarts;
  /// Registry receiving the service/engine instruments (see
  /// docs/observability.md).  Defaults to the process-wide registry so
  /// a plain service is observable out of the box; point it at a
  /// private registry to isolate one service's series (as the tests
  /// and bench do), or set nullptr to opt out.
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
};

/// The boot world (generation 0) a service serves for `fingerprints`
/// and `motion`, with no intake records.  The one place the
/// tiered-index policy is decided: a radio map with at least
/// kTieredIndexMinEntries entries gets the index (built on
/// config.threadCount threads over config.indexShardStarts); a
/// smaller one keeps the exact scan.  The world shares `fingerprints`
/// rather than copying it.
std::shared_ptr<const core::WorldSnapshot> bootWorld(
    std::shared_ptr<const radio::FingerprintDatabase> fingerprints,
    const core::MotionDatabase& motion, const ServiceConfig& config);

/// One unit of batch work: a scan for one session, plus the IMU
/// recording since that session's previous scan (empty for a first
/// fix).
struct ScanRequest {
  SessionId session = 0;
  radio::Fingerprint scan;
  sensors::ImuTrace imu;
};

/// The concurrent serving layer: serves lock-free reads over published
/// immutable WorldSnapshots while a single writer thread folds
/// crowdsourced observations into the next generation, and manages any
/// number of independent per-user LocalizationSessions keyed by
/// SessionId.
///
/// Concurrency model (epoch/RCU-style split; see docs/serving.md):
///   - The serving world is an immutable core::WorldSnapshot behind an
///     atomic shared_ptr.  Readers load it with one atomic op and
///     never take a lock shared with the write side; a reader that
///     pinned an old generation keeps a bitwise-stable world until its
///     session drops the reference (reclamation = shared_ptr
///     refcount).
///   - Intake mutates a private OnlineMotionDatabase on one writer
///     thread behind a bounded MPSC queue (service::IntakePipeline)
///     and publishes a fresh snapshot on a record-count/staleness
///     cadence, writing a checkpoint at a publish when one is due.
///     The localize path provably never touches the intake mutex
///     (MOLOC_EXCLUDES below).
///   - The session map is sharded; each shard's mutex guards only
///     lookup/insert/erase, never localization work.  A new session
///     is built on the current world first (O(k), no venue-sized
///     copy) and then inserted if absent.
///   - Each session carries its own mutex, so concurrent scans for the
///     *same* session serialize (a session is a stateful Bayesian
///     filter; its scans must apply in order) while scans for
///     different sessions proceed in parallel.  A session adopts the
///     newest published world at the start of a scan, under that same
///     per-session lock.
///
/// Threads: the service runs localization on its callers' threads
/// (molocd's serving threads, a bench's own threads) and starts only
/// the intake writer of its own.
///
/// Determinism: a session's estimate depends only on that session's
/// scan sequence and the worlds it adopted, so concurrent callers get
/// results bitwise-identical to running each session serially,
/// regardless of how their calls interleave (worlds only change when
/// the intake publishes; with no publish in flight, every interleaving
/// scores the same snapshot).
class LocalizationService {
 public:
  /// Serves `world` as generation `world->generation()` of the serving
  /// world: its radio map, tiered index (null = exact scan) and motion
  /// database are what every session is built on, and every world the
  /// intake publishes later shares the radio map and index.  Throws
  /// util::ConfigError on a null world, one without a radio map or
  /// with an empty one, zero shards, or a candidate count of zero.
  explicit LocalizationService(
      std::shared_ptr<const core::WorldSnapshot> world,
      ServiceConfig config = {});

  /// Serves bootWorld() over the databases.
  LocalizationService(radio::FingerprintDatabase fingerprints,
                      const core::MotionDatabase& motion,
                      const ServiceConfig& config = {});

  LocalizationService(const LocalizationService&) = delete;
  LocalizationService& operator=(const LocalizationService&) = delete;

  /// Stops the intake writer: admitted observations are still applied
  /// and covered by a final publish (and any checkpoint it triggers).
  ~LocalizationService();

  const ServiceConfig& config() const { return config_; }
  const radio::FingerprintDatabase& fingerprints() const {
    return *fingerprints_;
  }

  /// The tiered candidate index fronting the radio map, or null when
  /// the boot world has none (the exact scan serves).  Immutable, and
  /// shared by every published WorldSnapshot.
  const std::shared_ptr<const index::TieredIndex>& tieredIndex() const {
    return index_;
  }

  /// The newest published world.  The returned shared_ptr pins the
  /// snapshot (and everything a session could score against) for as
  /// long as the caller holds it.  Takes the brief world mutex to
  /// copy the handle; the scan path itself only does so when the
  /// identity hint says the world actually moved (see adoptWorld).
  std::shared_ptr<const core::WorldSnapshot> currentWorld() const
      MOLOC_EXCLUDES(worldMu_) {
    const util::MutexLock lock(worldMu_);
    return world_;
  }

  /// Creates the session for `id` with an explicit step length.
  /// Throws std::invalid_argument if the session already exists or the
  /// step length is not positive.
  void openSession(SessionId id, double stepLengthMeters);

  /// One synchronous localization round for `id`, creating the session
  /// on first use (with the default step length).  Thread-safe; calls
  /// for the same id serialize in arrival order.
  core::LocationEstimate submitScan(
      SessionId id, const radio::Fingerprint& scan,
      const sensors::ImuTrace& imuSinceLastScan)
      MOLOC_EXCLUDES(intakeMu_);

  /// Localizes a batch on the calling thread and returns the estimates
  /// in request order.  Every scan is matched against the radio map in
  /// one batched query up front; then each session's requests are
  /// applied in their order within `batch`, under that session's lock,
  /// one session after another in first-appearance order.
  ///
  /// Failure semantics (enforced; see docs/serving.md): when a request
  /// throws (e.g. a NaN scan), that session's *remaining* requests in
  /// the batch are skipped — a stateful session must never apply scans
  /// across a gap — and their estimates stay "no fix".  Requests of
  /// that session *before* the failure remain applied, and every other
  /// session is processed normally.  After the whole batch has
  /// settled, the failure with the smallest batch index is rethrown.
  /// Because already-applied scans are not rolled back, callers must
  /// not blindly resubmit a failed batch (that would double-apply the
  /// successful scans); resubmit only the failed session's tail, or
  /// resetSession() it first.
  std::vector<core::LocationEstimate> localizeBatch(
      const std::vector<ScanRequest>& batch)
      MOLOC_EXCLUDES(intakeMu_);

  /// Forgets the retained candidate set of `id` (start of a new walk).
  /// No-op for unknown sessions.
  void resetSession(SessionId id);

  /// Destroys the session for `id`; returns whether it existed.
  bool endSession(SessionId id);

  bool hasSession(SessionId id) const;
  std::size_t sessionCount() const;

  // ---- Crowdsourcing intake with durability -------------------------
  //
  // The serving worlds above are immutable; the *intake* side is a
  // separate OnlineMotionDatabase mutated only by the pipeline's
  // writer thread, which preserves the WAL write-ahead discipline (the
  // WAL order, reservoir update order, and RNG draw order are all the
  // writer's apply order), publishes each new generation of the
  // serving world, and writes the checkpoints that keep the WAL tail
  // recovery replays bounded.

  /// Wires the intake and starts its writer thread.  `db` must be
  /// non-null and outlive the service (as must `store`).  When `store`
  /// is non-null it is attached as `db`'s sink, so every applied
  /// observation is durably logged before it mutates the reservoirs;
  /// `checkpointEveryRecords` > 0 (requires a store) makes the writer
  /// checkpoint at a publish once that many records have accumulated
  /// past the newest checkpoint.  `policy` sets the queue
  /// bound and the publish cadence.  The database's current contents
  /// (e.g. recovered state) are published immediately.  Re-attaching
  /// stops and drains the previous pipeline first.  Throws
  /// std::invalid_argument on a null db or on a trigger without a
  /// store.
  void attachIntake(core::OnlineMotionDatabase* db,
                    store::StateStore* store = nullptr,
                    std::uint64_t checkpointEveryRecords = 0,
                    IntakePolicy policy = {});

  /// Feeds one crowdsourced observation into the intake pipeline.
  /// The sanitation verdict is computed synchronously (returns whether
  /// the observation was accepted); an accepted observation is
  /// *admitted* — durably logged and applied slightly later by the
  /// writer thread, in admission order.  flushIntake() is the barrier
  /// that makes admissions durable and published.  Throws
  /// std::logic_error when no intake is attached, the database's
  /// validation errors, BackpressureError when the queue is full (the
  /// observation is not admitted), and ShutdownError during shutdown.
  bool reportObservation(env::LocationId estimatedStart,
                         env::LocationId estimatedEnd, double directionDeg,
                         double offsetMeters);

  /// Blocks until every observation admitted before this call has been
  /// applied and the world containing them published, and every
  /// checkpoint they triggered is on disk (durability and visibility
  /// barrier; tests and orderly shutdown).  Throws
  /// std::logic_error when no intake is attached and ShutdownError if
  /// the pipeline stops mid-wait.
  void flushIntake();

  /// Counters of the intake pipeline (admissions, applies, publishes,
  /// backpressure rejections).  Throws std::logic_error when no intake
  /// is attached.
  IntakePipeline::Stats intakeStats() const;

 private:
  /// Writes a checkpoint of `db` into `store` when at least
  /// `checkpointEveryRecords` (> 0) records follow the newest one.
  /// Runs on the intake writer at a publish, between applies: the
  /// writer is the database's sole mutator, so the snapshot the store
  /// takes matches its WAL position.  A failure is counted, not
  /// thrown — the WAL still holds everything.
  void checkpointIfDue(const core::OnlineMotionDatabase& db,
                       store::StateStore& store,
                       std::uint64_t checkpointEveryRecords);

  /// Freezes `db` into a new WorldSnapshot and publishes it (release
  /// store).  Runs on the intake writer thread, and once at attach.
  void publishWorld(core::OnlineMotionDatabase& db);

  /// Adopts the newest published world into `session` if it is still
  /// scoring an older generation.  Caller holds the session's slot
  /// lock; the load is lock-free.
  void adoptWorld(core::LocalizationSession& session);

  /// A session plus the mutex serializing its scans.
  struct SessionSlot {
    SessionSlot(core::CandidateEstimator estimator,
                std::shared_ptr<const core::MotionDatabase> motion,
                double stepLengthMeters, const core::MoLocConfig& engine,
                const sensors::MotionProcessorParams& motionParams)
        : session(std::move(estimator), std::move(motion),
                  stepLengthMeters, engine, motionParams) {}
    util::Mutex mu;
    core::LocalizationSession session MOLOC_GUARDED_BY(mu);
  };

  /// A new slot whose session is built on the current world's
  /// adjacency: index-backed candidate estimation when the service has
  /// a tiered index, the exact radio-map scan otherwise.  O(k) work
  /// whatever the venue size, and takes no shard lock — callers build
  /// first, then insert if absent.  The captured index pointer stays
  /// valid for the session's life (index_ is declared before shards_,
  /// so it outlives every slot).
  std::shared_ptr<SessionSlot> makeSlot(double stepLengthMeters) const;

  struct Shard {
    mutable util::Mutex mu;
    std::unordered_map<SessionId, std::shared_ptr<SessionSlot>> sessions
        MOLOC_GUARDED_BY(mu);
  };

  Shard& shardFor(SessionId id);
  const Shard& shardFor(SessionId id) const;

  /// The slot for `id`, created with `stepLengthMeters` if absent.
  std::shared_ptr<SessionSlot> findOrCreate(SessionId id,
                                            double stepLengthMeters);

  /// One timed localization round on an already-locked slot; updates
  /// the scan counters.
  core::LocationEstimate localizeLocked(core::LocalizationSession& session,
                                        const radio::Fingerprint& scan,
                                        const sensors::ImuTrace& imu);

  /// localizeLocked for a scan whose fingerprint match was precomputed
  /// by the batch kernel path (see localizeBatch); `scanError` carries
  /// the scan's captured validation failure, if any.
  core::LocationEstimate localizePreparedLocked(
      core::LocalizationSession& session,
      std::span<const core::Candidate> candidates,
      std::exception_ptr scanError, const sensors::ImuTrace& imu);

  ServiceConfig config_;
  /// The boot world's radio map and index (null = exact scan).  Never
  /// mutated: every published WorldSnapshot and session backend shares
  /// them.  Declared before shards_ so they outlive every session that
  /// captured their address.
  std::shared_ptr<const radio::FingerprintDatabase> fingerprints_;
  std::shared_ptr<const index::TieredIndex> index_;
  /// The serving world.  The pinning handle lives under worldMu_ —
  /// held only for the pointer copy, never across scoring — while
  /// worldHint_ carries the published adjacency's identity so the
  /// steady-state scan path can detect "world unchanged" with one
  /// atomic load and no lock.  The hint is only ever *compared*,
  /// never dereferenced: a session pins the adjacency it is bound
  /// to, so a matching address always means the same live object
  /// (no ABA), and a stale mismatch just takes the slow path.
  /// (libstdc++'s std::atomic<shared_ptr> is a spinlock whose load
  /// unlocks relaxed — both slower here and a TSan report.)
  /// Never null after construction.
  mutable util::Mutex worldMu_;
  std::shared_ptr<const core::WorldSnapshot> world_
      MOLOC_GUARDED_BY(worldMu_);
  std::atomic<const core::MotionDatabase*> worldHint_{nullptr};
  /// Publish sequence; starts at the served world's generation.
  std::atomic<std::uint64_t> worldGeneration_{0};
  std::vector<Shard> shards_;

  struct Metrics {
    obs::Histogram* scanLatency = nullptr;
    obs::Histogram* batchSize = nullptr;
    obs::Histogram* batchMatch = nullptr;
    obs::Gauge* sessionsActive = nullptr;
    obs::Counter* scansTotal = nullptr;
    obs::Counter* scansNoFix = nullptr;
    obs::Counter* batchRequestsFailed = nullptr;
    obs::Counter* observationsReported = nullptr;
    obs::Counter* checkpointFailures = nullptr;
    obs::Counter* worldPublishes = nullptr;
    obs::Gauge* worldGeneration = nullptr;
  };
  Metrics metrics_;

  // Intake state.
  mutable util::Mutex intakeMu_;
  /// Shared so reportObservation can hand a submit to a pipeline that
  /// a concurrent re-attach is replacing (a stopped pipeline throws
  /// ShutdownError; it is never destroyed mid-call).
  std::shared_ptr<IntakePipeline> pipeline_ MOLOC_GUARDED_BY(intakeMu_);
  /// Set by the destructor as it detaches the pipeline: tells
  /// flushIntake() arriving after that point to throw the typed
  /// ShutdownError rather than "no intake attached".
  bool intakeShutdown_ MOLOC_GUARDED_BY(intakeMu_) = false;
};

}  // namespace moloc::service
