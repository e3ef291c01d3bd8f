#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/motion_database.hpp"
#include "core/motion_database_builder.hpp"
#include "env/floor_plan.hpp"
#include "geometry/vec2.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::core {

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

/// An incrementally-updated motion database for deployments where
/// crowdsourcing never stops (the paper's batch builder assumes a
/// train-then-serve split).
///
/// Each accepted observation lands in a bounded per-pair reservoir
/// (uniform reservoir sampling once full, so the model tracks the
/// long-run distribution without unbounded memory), after which that
/// pair's Gaussians are refitted — including the fine 2-sigma pass —
/// and written through to the queryable database with its mirror.
/// The coarse map filter runs at intake, so poisoned or mislocated
/// observations are rejected before they consume reservoir space.
///
/// Coherence invariant: the published database never disagrees with
/// the reservoirs.  When a refit's fine filter leaves a pair with
/// fewer than `minSamplesPerPair` survivors, any previously published
/// entry for that pair is *invalidated* (removed together with its
/// mirror) rather than silently kept stale; the event is counted in
/// `Counters::staleInvalidations` and, when a registry is attached,
/// in `moloc_intake_stale_invalidated_total`.
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
/// escape them; serving freezes a database() copy into an immutable
/// WorldSnapshot instead (see docs/serving.md).
class OnlineMotionDatabase {
 public:
  /// `reservoirCapacity` bounds per-pair memory; must be >= the
  /// config's minSamplesPerPair (throws std::invalid_argument).
  /// A non-null `metrics` registry receives the intake counters as
  /// `moloc_intake_*{source="online"}` series (see
  /// docs/observability.md); instrumentation is inert when the build
  /// sets MOLOC_METRICS=OFF.
  OnlineMotionDatabase(const env::FloorPlan& plan,
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
  /// floor plan and the sanitation config — never on reservoir state —
  /// so producers may classify concurrently and in any order without
  /// changing any outcome.  Nothing is logged or applied here: an
  /// accepted observation must still be handed to applyAccepted (the
  /// intake pipeline's writer thread does this, in queue order).
  bool classify(env::LocationId estimatedStart,
                env::LocationId estimatedEnd, double directionDeg,
                double offsetMeters);

  /// The apply half: write-ahead logs the observation through the sink
  /// (under the write mutex only, so readers never wait behind the
  /// log's fsync), then folds it into its pair's reservoir and refits.
  /// Call only with observations classify() accepted — re-checked
  /// here; a rejected observation throws std::logic_error before
  /// anything is logged.  A sink exception propagates and aborts the
  /// update (write-ahead discipline), exactly like addObservation.
  void applyAccepted(env::LocationId estimatedStart,
                     env::LocationId estimatedEnd, double directionDeg,
                     double offsetMeters);

  /// A value copy of the current queryable database, taken atomically
  /// under the state mutex — what the publisher freezes into a
  /// core::WorldSnapshot.  Always coherent: every stored pair is the
  /// latest refit of its reservoir.  Never blocks behind sink I/O (the
  /// write mutex is not taken).
  MotionDatabase database() const {
    const util::MutexLock lock(mu_);
    return db_;
  }

  const BuilderConfig& config() const {
    const util::MutexLock lock(mu_);
    return config_;
  }

  /// Intake counters (coarse rejections, self-pairs, acceptances,
  /// fine-filter exclusions, stale-entry invalidations).
  struct Counters {
    std::size_t observations = 0;
    std::size_t accepted = 0;
    std::size_t rejectedCoarse = 0;
    std::size_t droppedSelfPairs = 0;
    /// Samples excluded by the fine filter, summed over refits (a
    /// reservoir sample surviving several refits before being evicted
    /// is counted once per refit that excluded it) — a rate signal
    /// for how noisy the accepted stream is, not a distinct-sample
    /// count.
    std::size_t rejectedFine = 0;
    /// Published entries removed because a refit's fine filter left
    /// the pair below minSamplesPerPair.
    std::size_t staleInvalidations = 0;
  };
  const Counters& counters() const {
    const util::MutexLock lock(mu_);
    return counters_;
  }

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
  /// eviction counters), the intake counters, and the RNG state.  The
  /// published entries are not part of it: each is a deterministic
  /// refit of its reservoir, so restore() rebuilds them.  restore() of
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

  /// Replaces the full intake state with `snapshot` and republishes
  /// every pair by refitting its restored reservoir — the same fit and
  /// fine filter applyAccepted runs, so the entries are bit-identical
  /// to the ones live when the snapshot was taken.  The refits count
  /// nothing: the counters come from the snapshot.  Throws
  /// std::invalid_argument when the snapshot does not fit this
  /// database's floor plan (location count mismatch), its capacity is
  /// below the config's per-pair minimum, a pair key is invalid or
  /// duplicated, or a reservoir exceeds the capacity.  On throw the
  /// database is unchanged.
  void restore(const Snapshot& snapshot);

 private:
  struct RawRlm {
    double directionDeg;
    double offsetMeters;
  };
  struct Reservoir {
    std::vector<RawRlm> samples;
    std::uint64_t seen = 0;  ///< Total accepted, including evicted.
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

  /// The Gaussian fit of one reservoir (Sec. IV.B): fine 2-sigma
  /// pass when enabled, sigma floors applied.  `stats` is empty when
  /// fewer than minSamplesPerPair samples support the pair.  Pure in
  /// its arguments, so a restored reservoir refits bit-identically.
  struct PairFit {
    std::optional<RlmStats> stats;
    std::size_t excludedFine = 0;  ///< Samples the fine filter dropped.
  };
  static PairFit fitReservoir(const BuilderConfig& config,
                              const Reservoir& reservoir);

  /// Refits `key` after its reservoir changed: publishes the fit (with
  /// mirror) or withdraws a stale entry, and counts both.
  void refit(const PairKey& key, const Reservoir& reservoir)
      MOLOC_REQUIRES(mu_);

  /// Drops the published entry (and mirror) for `key` if one exists.
  void invalidateStaleEntry(const PairKey& key) MOLOC_REQUIRES(mu_);

  const env::FloorPlan& plan_;
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
  MotionDatabase db_ MOLOC_GUARDED_BY(mu_);
  Counters counters_ MOLOC_GUARDED_BY(mu_);
  ObservationSink* sink_ MOLOC_GUARDED_BY(mu_) = nullptr;

#if MOLOC_METRICS_ENABLED
  struct Metrics {
    obs::Counter* observations = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* rejectedCoarse = nullptr;
    obs::Counter* rejectedFine = nullptr;
    obs::Counter* selfPairs = nullptr;
    obs::Counter* staleInvalidated = nullptr;
  };
  Metrics metrics_;
#endif
};

}  // namespace moloc::core
