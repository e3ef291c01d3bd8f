#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::obs {

/// Key/value pairs identifying one series within a metric family.
/// The registry sorts them by key, so {{"a","1"},{"b","2"}} and
/// {{"b","2"},{"a","1"}} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Stable small index for the calling thread, used to pick a stripe so
/// concurrent writers rarely share a cache line.
std::size_t threadStripe();

/// Raw monotonic tick count for scope timing: the TSC on x86 (a few ns
/// per read, vs tens of ns for steady_clock — the difference is what
/// keeps full instrumentation under the serving QPS budget), falling
/// back to steady_clock nanoseconds elsewhere.  Convert deltas with
/// ticksToSeconds(); ticks from different machines or a reboot are not
/// comparable.
inline std::uint64_t ticksNow() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Seconds per tick, calibrated against steady_clock once per process
/// (first call spins ~1 ms; Histogram registration triggers it so the
/// cost lands at setup time, not in the first timed scope).
double secondsPerTick();

inline double ticksToSeconds(std::uint64_t startTicks,
                             std::uint64_t endTicks) {
  // A migration across cores with unsynchronized TSCs can step time
  // backwards; clamp rather than observe a wrapped-around huge value.
  if (endTicks <= startTicks) return 0.0;
  return static_cast<double>(endTicks - startTicks) * secondsPerTick();
}

/// One cache-line-isolated atomic accumulator (CAS add; doubles stay
/// exact for integer-valued totals below 2^53).  `units` shares the
/// cache line and gives unit increments a plain fetch_add — roughly
/// half the cost of the CAS loop — so event counting stays cheap.
struct alignas(64) DoubleCell {
  std::atomic<double> value{0.0};
  std::atomic<std::uint64_t> units{0};

  void add(double delta) {
    double current = value.load(std::memory_order_relaxed);
    while (!value.compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
    }
  }

  double total() const {
    return value.load(std::memory_order_relaxed) +
           static_cast<double>(units.load(std::memory_order_relaxed));
  }
};

}  // namespace detail

/// A monotonically increasing value (events, rejected samples, busy
/// seconds).  Increments go to one of several cache-line-isolated
/// stripes chosen by thread, so the hot path is a single relaxed CAS
/// with essentially no cross-thread contention; value() sums stripes.
class Counter {
 public:
  /// Adds `delta`.  Negative deltas are ignored (counters only go up),
  /// as are non-finite ones (a single NaN would otherwise poison the
  /// total forever).  Unit increments — the dominant case on the scan
  /// hot path — take the integer fetch_add fast path.
  void inc(double delta = 1.0) {
    if (delta == 1.0) {
      stripes_[detail::threadStripe() % kStripes].units.fetch_add(
          1, std::memory_order_relaxed);
      return;
    }
    if (!(delta >= 0.0) || !std::isfinite(delta)) return;
    stripes_[detail::threadStripe() % kStripes].add(delta);
  }

  double value() const {
    double total = 0.0;
    for (const auto& stripe : stripes_) total += stripe.total();
    return total;
  }

 private:
  static constexpr std::size_t kStripes = 16;
  detail::DoubleCell stripes_[kStripes];
};

/// A value that can go up and down (queue depth, active sessions).
/// set() is a relaxed store; inc()/dec() are relaxed CAS adds, so
/// concurrent deltas never lose updates.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void inc(double delta = 1.0) { add(delta); }
  void dec(double delta = 1.0) { add(-delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> value_{0.0};
};

/// A fixed-bucket histogram (Prometheus-style cumulative `le` buckets).
///
/// observe() resolves the bucket with one binary search and then does
/// two relaxed atomic updates on a thread-chosen stripe — no locks on
/// the hot path.  Readers (count/sum/bucketCounts/quantile) sum the
/// stripes; snapshots are approximate under concurrent writes but
/// exact once writers are quiesced (e.g. after joining them).
class Histogram {
 public:
  /// `upperBounds` are the inclusive bucket upper bounds; they must be
  /// non-empty, finite, and strictly increasing (throws
  /// std::invalid_argument).  An overflow (+Inf) bucket is implicit.
  explicit Histogram(std::vector<double> upperBounds);

  /// Records one observation.  Non-finite values are ignored (they
  /// would otherwise poison the sum).
  void observe(double v);

  std::uint64_t count() const;
  double sum() const;
  const std::vector<double>& upperBounds() const { return bounds_; }

  /// Per-bucket (non-cumulative) counts; the last element is the
  /// overflow bucket.
  std::vector<std::uint64_t> bucketCounts() const;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside
  /// the bucket holding the target rank, assuming non-negative
  /// observations (the first bucket interpolates from 0).  Returns 0
  /// when empty; ranks landing in the overflow bucket clamp to the
  /// largest finite bound.
  double quantile(double q) const;

  /// `count` bounds starting at `start`, each `factor` times the
  /// previous (start > 0, factor > 1, count >= 1; throws otherwise).
  static std::vector<double> exponentialBuckets(double start, double factor,
                                                std::size_t count);

  /// `count` bounds starting at `start`, each `width` apart
  /// (width > 0, count >= 1; throws otherwise).
  static std::vector<double> linearBuckets(double start, double width,
                                           std::size_t count);

 private:
  static constexpr std::size_t kStripes = 4;

  struct Stripe {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    detail::DoubleCell sum;
  };

  std::vector<double> bounds_;
  Stripe stripes_[kStripes];
};

/// RAII wall-clock timer: records the elapsed seconds into a histogram
/// when it goes out of scope.  A null sink makes it a no-op that reads
/// no clock, so call sites do not need their own null checks and a
/// null registry adds no clock reads.  Timing uses the tick clock
/// (detail::ticksNow), not steady_clock — two orders of magnitude
/// cheaper per read on x86.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* sink)
      : sink_(sink), startTicks_(sink ? detail::ticksNow() : 0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Records now instead of at scope exit; returns the elapsed seconds,
  /// or 0 for a null or already stopped timer.
  double stop() {
    if (!sink_) return 0.0;
    const double elapsed =
        detail::ticksToSeconds(startTicks_, detail::ticksNow());
    sink_->observe(elapsed);
    sink_ = nullptr;
    return elapsed;
  }

 private:
  Histogram* sink_;
  std::uint64_t startTicks_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one histogram's state.
struct HistogramData {
  std::vector<double> upperBounds;
  std::vector<std::uint64_t> bucketCounts;  ///< Last = overflow.
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of one labeled series.
struct SeriesSnapshot {
  Labels labels;
  double value = 0.0;       ///< Counter/gauge value.
  HistogramData histogram;  ///< Populated for histogram families.
};

/// Point-in-time copy of one metric family (one name, many label sets).
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SeriesSnapshot> series;
};

/// Process-wide metric directory with labeled lookup.
///
/// counter()/gauge()/histogram() are get-or-create: the first call for
/// a (name, labels) pair registers the series, later calls return the
/// same instance, so components can look instruments up independently
/// and share them.  Returned references stay valid for the registry's
/// lifetime (instruments are never removed).  Registration takes a
/// mutex; the returned instruments themselves are lock-free, so hold
/// the reference rather than re-looking it up per event.
///
/// Names must match [a-zA-Z_:][a-zA-Z0-9_:]* and label names
/// [a-zA-Z_][a-zA-Z0-9_]* (Prometheus rules); re-registering a name as
/// a different kind throws std::invalid_argument.  A histogram
/// family's buckets are fixed by its first registration.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upperBounds,
                       const Labels& labels = {});

  /// Existing series, or nullptr when the family or label set is
  /// absent (also nullptr when the name is registered as another
  /// kind).  Unlike the getters above these never create.
  Counter* findCounter(const std::string& name, const Labels& labels = {});
  Gauge* findGauge(const std::string& name, const Labels& labels = {});
  Histogram* findHistogram(const std::string& name,
                           const Labels& labels = {});

  /// Families sorted by name, each with its series sorted by labels.
  std::vector<FamilySnapshot> snapshot() const;

  /// The default process-wide registry (what ServiceConfig points at
  /// unless a caller injects its own).
  static MetricsRegistry& global();

 private:
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::vector<double> bounds;  ///< Histogram families only.
    std::map<Labels, std::unique_ptr<Counter>> counters;
    std::map<Labels, std::unique_ptr<Gauge>> gauges;
    std::map<Labels, std::unique_ptr<Histogram>> histograms;
  };

  Family& family(const std::string& name, const std::string& help,
                 MetricKind kind) MOLOC_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::map<std::string, Family> families_ MOLOC_GUARDED_BY(mu_);
};

}  // namespace moloc::obs
