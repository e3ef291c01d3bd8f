#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/motion_database.hpp"
#include "env/floor_plan.hpp"
#include "geometry/vec2.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::core {

/// Sanitation thresholds of the database construction unit
/// (Sec. IV.B.2).  The coarse/fine toggles exist for the sanitation
/// ablation; production use keeps both on.
struct BuilderConfig {
  double coarseDirectionThresholdDeg = 20.0;  ///< vs. map-derived RLM.
  double coarseOffsetThresholdMeters = 3.0;   ///< vs. map-derived RLM.
  double fineSigmaMultiplier = 2.0;  ///< Drop samples beyond k sigma.
  int minSamplesPerPair = 3;         ///< Entries need this many samples.
  /// Floors keep the fitted Gaussians from degenerating when a pair's
  /// surviving samples happen to agree almost exactly.
  double minDirectionSigmaDeg = 2.0;
  double minOffsetSigmaMeters = 0.05;
  bool enableCoarseFilter = true;
  bool enableFineFilter = true;
};

/// What the sanitation pipeline did, so experiments (and operators)
/// can see how dirty the crowd data was.  See
/// OnlineMotionDatabase::report().
struct BuilderReport {
  std::size_t observations = 0;       ///< Total intake.
  std::size_t droppedSelfPairs = 0;   ///< i == j observations.
  std::size_t rejectedCoarse = 0;     ///< Failed the map comparison.
  std::size_t rejectedFine = 0;       ///< Beyond k sigma of the fit.
  std::size_t pairsStored = 0;        ///< Undirected pairs in the DB.
};

/// Write-ahead hook of the intake: receives every observation that
/// passed the sanitation filters, with the *original* call arguments
/// (pre-reassembly), before the reservoir mutates.  Feeding the same
/// arguments back through addObservation replays the update exactly —
/// which is how store::recover rebuilds the database from a log.
///
/// An exception thrown by onAccepted propagates out of addObservation
/// and aborts the update (write-ahead discipline: an observation that
/// could not be logged is never applied).
class ObservationSink {
 public:
  virtual ~ObservationSink() = default;
  virtual void onAccepted(env::LocationId estimatedStart,
                          env::LocationId estimatedEnd,
                          double directionDeg, double offsetMeters) = 0;
};

/// The crowdsourcing intake and sanitation pipeline that constructs the
/// motion database (Sec. IV.B), updated incrementally so crowdsourcing
/// never has to stop.  Every motion database built from observations
/// goes through it: an offline campaign is a stream the reservoirs are
/// sized to hold whole (see eval::ExperimentWorld).
///
/// Of the map, the intake reads only one reference coordinate per
/// location id (the coarse filter's straight-line RLM), and owns them.
///
/// Observations arrive as (estimated start, estimated end, measured
/// direction, measured offset) and are *reassembled* onto the
/// smaller-ID endpoint (mirroring the direction by 180 degrees —
/// mutual reachability).  The coarse map filter (discard RLMs that
/// disagree with the straight-line map RLM beyond the thresholds) runs
/// at intake, so poisoned or mislocated observations are rejected
/// before they consume reservoir space.  Each accepted observation
/// lands in a bounded per-pair reservoir (uniform reservoir sampling
/// once full, so the model tracks the long-run distribution without
/// unbounded memory).
///
/// The reservoirs are the state; the queryable database is a read of
/// them.  database() and report() fit each pair — fit, fine 2-sigma
/// pass, refit, sigma floors — and database() builds the entry and its
/// mirror straight from the fits.  A fit is cached on its reservoir
/// until the next accepted observation for that pair, so a read costs
/// O(pairs) plus one fit per pair touched since the previous read, and
/// an offline campaign fits each pair once.  A pair whose samples no
/// longer support a fit is simply absent from the next read.
///
/// Thread safety: state lives behind two mutexes.  The outer write
/// mutex serializes the mutators (applyAccepted / addObservation /
/// restore) and is held across the sink's write-ahead call, so the
/// WAL order equals the apply order whenever one thread drives the
/// mutators — the serving stack funnels every observation through a
/// single writer thread (service::IntakePipeline).  The inner state
/// mutex guards the in-memory structures only and is never held
/// across I/O, so readers (database() / counters() / classify())
/// cannot stall behind a log fsync.  What the locks cannot give is
/// cross-call atomicity: the references counters()/config() return
/// escape them; serving freezes a database() read into an immutable
/// WorldSnapshot instead (see docs/serving.md).
class OnlineMotionDatabase {
 public:
  /// `positions[id]` is the reference coordinate of location `id`;
  /// their count is the database's location count, and any other id
  /// throws std::out_of_range.  `reservoirCapacity` bounds per-pair
  /// memory; must be >= the config's minSamplesPerPair (throws
  /// std::invalid_argument).  A non-null `metrics` registry receives
  /// the intake counters as `moloc_intake_*{source="online"}` series
  /// (see docs/observability.md).
  explicit OnlineMotionDatabase(std::vector<geometry::Vec2> positions,
                                BuilderConfig config = {},
                                std::size_t reservoirCapacity = 64,
                                std::uint64_t seed = 0x0b5e55edULL,
                                obs::MetricsRegistry* metrics = nullptr);

  /// Feeds one crowdsourced RLM.  Returns true when the observation
  /// was accepted (passed the coarse filter and was not a self-pair).
  /// Non-finite or negative measurements throw util::ConfigError
  /// before anything else is validated or counted; unknown location
  /// ids throw std::out_of_range.
  bool addObservation(env::LocationId estimatedStart,
                      env::LocationId estimatedEnd, double directionDeg,
                      double offsetMeters);

  /// The admission half of addObservation: validates the measurement
  /// and ids (throwing exactly like addObservation), counts the offer,
  /// and runs the self-pair and coarse-filter checks.  Returns whether
  /// the observation is accepted.  The decision depends only on the
  /// coordinates and the sanitation config — never on reservoir state —
  /// so producers may classify concurrently and in any order without
  /// changing any outcome.  Nothing is logged or applied here: an
  /// accepted observation must still be handed to applyAccepted (the
  /// intake pipeline's writer thread does this, in queue order).
  bool classify(env::LocationId estimatedStart,
                env::LocationId estimatedEnd, double directionDeg,
                double offsetMeters);

  /// The apply half: write-ahead logs the observation through the sink
  /// (under the write mutex only, so readers never wait behind the
  /// log's fsync), then folds it into its pair's reservoir and drops
  /// that pair's cached fit.
  /// Call only with observations classify() accepted — re-checked
  /// here; a rejected observation throws std::logic_error before
  /// anything is logged.  A sink exception propagates and aborts the
  /// update (write-ahead discipline), exactly like addObservation.
  void applyAccepted(env::LocationId estimatedStart,
                     env::LocationId estimatedEnd, double directionDeg,
                     double offsetMeters);

  /// The current queryable database, built from the fit of every
  /// reservoir as read atomically under the state mutex (the CSR build
  /// itself runs after the mutex is released) — what the publisher
  /// freezes into a core::WorldSnapshot.  Fits the pairs whose cache
  /// is empty.  Never blocks behind sink I/O (the write mutex is not
  /// taken).
  MotionDatabase database() const;

  const BuilderConfig& config() const {
    const util::MutexLock lock(mu_);
    return config_;
  }

  /// The sanitation report of the current state: the intake counters
  /// plus, from the current fit of every reservoir, the samples the
  /// fine filter excludes and the pairs that have an entry.  Reads the
  /// same fits as database().
  BuilderReport report() const;

  /// Intake counters: what was offered and what admission decided.
  struct Counters {
    std::size_t observations = 0;
    std::size_t accepted = 0;
    std::size_t rejectedCoarse = 0;
    std::size_t droppedSelfPairs = 0;
  };
  const Counters& counters() const {
    const util::MutexLock lock(mu_);
    return counters_;
  }

  /// Locations the database covers: one per reference coordinate.
  std::size_t locationCount() const { return positions_.size(); }

  /// Number of pairs currently holding at least one sample.
  std::size_t trackedPairs() const {
    const util::MutexLock lock(mu_);
    return reservoirs_.size();
  }

  /// One raw sample as currently retained for a pair.
  struct ReservoirSample {
    double directionDeg = 0.0;
    double offsetMeters = 0.0;
  };

  /// Diagnostics / test hook: the reservoir contents for a pair (the
  /// order is storage order, not arrival order).  The pair is looked
  /// up under its canonical smaller-ID-first key, so (i, j) and
  /// (j, i) return the same samples.  Empty when the pair is
  /// untracked; throws std::out_of_range on bad ids.
  std::vector<ReservoirSample> reservoirSamples(
      env::LocationId i, env::LocationId j) const;

  /// Aggregate reservoir occupancy — what checkpoint sizing and the
  /// durability metrics need, without walking pairs through the
  /// test-only reservoirSamples hook.
  struct ReservoirStats {
    std::size_t trackedPairs = 0;    ///< Pairs holding >= 1 sample.
    std::size_t pairsAtCapacity = 0; ///< Pairs whose reservoir is full.
    std::size_t totalSamples = 0;    ///< Samples currently retained.
    std::uint64_t totalSeen = 0;     ///< Accepted ever, incl. evicted.
    std::size_t capacity = 0;        ///< Per-pair sample bound.
  };
  ReservoirStats reservoirStats() const;

  std::size_t reservoirCapacity() const {
    const util::MutexLock lock(mu_);
    return capacity_;
  }

  /// Attaches (or detaches, with nullptr) the write-ahead hook.  The
  /// sink must outlive this database or be detached first.
  void setSink(ObservationSink* sink) {
    const util::MutexLock lock(mu_);
    sink_ = sink;
  }
  ObservationSink* sink() const {
    const util::MutexLock lock(mu_);
    return sink_;
  }

  /// Everything addObservation's behaviour depends on, frozen as plain
  /// data: the sanitation config, the per-pair reservoirs (with their
  /// eviction counters), the intake counters, and the RNG state.  No
  /// fit is part of it: each is a deterministic function of its
  /// reservoir, so a read after restore() recomputes it.  restore() of
  /// a snapshot followed by the same addObservation calls is
  /// bit-identical to never having paused — the contract
  /// store::recover builds on.  Capture is O(retained samples).
  struct Snapshot {
    BuilderConfig config;
    std::size_t capacity = 0;
    std::size_t locationCount = 0;
    std::array<std::uint64_t, 4> rngState{};
    Counters counters;
    struct PairState {
      env::LocationId i = 0;
      env::LocationId j = 0;
      std::uint64_t seen = 0;
      std::vector<ReservoirSample> samples;  ///< Storage order.
    };
    std::vector<PairState> reservoirs;  ///< Canonical-key order.
  };

  Snapshot snapshot() const;

  /// Replaces the full intake state with `snapshot`.  Fits nothing:
  /// the restored reservoirs start with empty caches, and the next
  /// read fits them bit-identically to the fits live when the
  /// snapshot was taken.  Throws
  /// std::invalid_argument when the snapshot does not fit this
  /// database's coordinates (location count mismatch), its capacity is
  /// below the config's per-pair minimum, a pair key is invalid or
  /// duplicated, or a reservoir exceeds the capacity.  On throw the
  /// database is unchanged.
  void restore(const Snapshot& snapshot);

 private:
  struct RawRlm {
    double directionDeg;
    double offsetMeters;
  };

  /// The Gaussian fit of one reservoir (Sec. IV.B): fine 2-sigma
  /// pass when enabled, sigma floors applied.  `stats` is empty when
  /// fewer than minSamplesPerPair samples support the pair.
  struct PairFit {
    std::optional<RlmStats> stats;
    std::size_t excludedFine = 0;  ///< Samples the fine filter dropped.
  };

  struct Reservoir {
    std::vector<RawRlm> samples;
    std::uint64_t seen = 0;  ///< Total accepted, including evicted.
    /// fitReservoir of the current samples, filled by the first read
    /// after they last changed.  Guarded by mu_ like the reservoir.
    mutable std::optional<PairFit> fit;
  };
  using PairKey = std::pair<env::LocationId, env::LocationId>;

  /// Outcome of the deterministic admission checks.
  enum class Decision { kAccepted, kSelfPair, kRejectedCoarse };

  /// The admission checks themselves, with no counting: self-pair,
  /// then the coarse map filter on the canonicalized (smaller-ID
  /// first) form.  Pure in the config — classify() and applyAccepted()
  /// agree by construction.
  Decision decideLocked(env::LocationId start, env::LocationId end,
                        geometry::Vec2 posStart, geometry::Vec2 posEnd,
                        double directionDeg, double offsetMeters) const
      MOLOC_REQUIRES(mu_);

  /// Computes a reservoir's fit.  Pure in its arguments, so a
  /// restored reservoir fits bit-identically.
  static PairFit fitReservoir(const BuilderConfig& config,
                              const Reservoir& reservoir);

  /// The cached fit of `reservoir`, computed (and its fine-filter
  /// exclusions counted in the metrics) when the cache is empty.
  const PairFit& cachedFit(const Reservoir& reservoir) const
      MOLOC_REQUIRES(mu_);

  /// positions_[id]; throws std::out_of_range for a bad id.
  geometry::Vec2 position(env::LocationId id) const;

  /// Immutable, so read without a lock.
  const std::vector<geometry::Vec2> positions_;
  /// Outer mutex: serializes the mutators and is held across the
  /// sink's write-ahead call, so the WAL order equals the apply order
  /// for a single writer (lock order: this, then mu_, then the sink's
  /// own mutex).  Readers never take it.
  mutable util::Mutex writeMu_;
  /// Inner mutex guarding the in-memory state; never held across I/O.
  mutable util::Mutex mu_ MOLOC_ACQUIRED_AFTER(writeMu_);
  BuilderConfig config_ MOLOC_GUARDED_BY(mu_);
  std::size_t capacity_ MOLOC_GUARDED_BY(mu_);
  util::Rng rng_ MOLOC_GUARDED_BY(mu_);
  std::map<PairKey, Reservoir> reservoirs_ MOLOC_GUARDED_BY(mu_);
  Counters counters_ MOLOC_GUARDED_BY(mu_);
  ObservationSink* sink_ MOLOC_GUARDED_BY(mu_) = nullptr;

  struct Metrics {
    obs::Counter* observations = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* rejectedCoarse = nullptr;
    obs::Counter* rejectedFine = nullptr;
    obs::Counter* selfPairs = nullptr;
  };
  Metrics metrics_;
};

}  // namespace moloc::core
