#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

namespace moloc::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Counter, IgnoresNegativeAndNonFiniteDeltas) {
  Counter c;
  c.inc(5.0);
  c.inc(-3.0);
  c.inc(std::numeric_limits<double>::quiet_NaN());
  c.inc(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(c.value(), 5.0);
}

TEST(Counter, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& thread : threads) thread.join();
  // Integer totals below 2^53 are exactly representable in a double,
  // so no tolerance: any lost update is a bug.
  EXPECT_DOUBLE_EQ(c.value(),
                   static_cast<double>(kThreads) * kPerThread);
}

TEST(Gauge, SetIncDec) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(10.0);
  g.inc(2.0);
  g.dec();
  EXPECT_DOUBLE_EQ(g.value(), 11.0);
  g.set(-4.5);  // Gauges may go negative.
  EXPECT_DOUBLE_EQ(g.value(), -4.5);
}

TEST(Gauge, ConcurrentIncDecBalancesToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.inc();
        g.dec();
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(Histogram, BucketAssignmentUpperBoundInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // -> bucket le=1
  h.observe(1.0);  // -> bucket le=1 (le is inclusive, as in Prometheus)
  h.observe(1.5);  // -> bucket le=2
  h.observe(4.0);  // -> bucket le=4
  h.observe(9.0);  // -> overflow
  const auto counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite + overflow.
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(Histogram, IgnoresNonFiniteObservations) {
  Histogram h({1.0});
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.observe(15.0);  // All in (10, 20].
  // The whole mass is in bucket (10, 20]; linear interpolation puts
  // the median at its midpoint.
  EXPECT_NEAR(h.quantile(0.5), 15.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.0), 10.0, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 20.0, 1e-9);
}

TEST(Histogram, QuantileAcrossBuckets) {
  Histogram h({1.0, 2.0, 3.0, 4.0});
  // 25 observations per bucket.
  for (int b = 0; b < 4; ++b)
    for (int i = 0; i < 25; ++i) h.observe(b + 0.5);
  EXPECT_NEAR(h.quantile(0.25), 1.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.5), 2.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.95), 3.8, 1e-9);
}

TEST(Histogram, QuantileEmptyAndOverflow) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // Empty histogram.
  h.observe(100.0);                 // Only the overflow bucket.
  // Overflow has no finite upper bound; the estimate clamps to the
  // last finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  Histogram h(Histogram::exponentialBuckets(1.0, 2.0, 10));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>(t % 4) + 0.5);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t total = 0;
  for (const std::uint64_t c : h.bucketCounts()) total += c;
  EXPECT_EQ(total, h.count());
}

TEST(Histogram, BucketGenerators) {
  const auto exp = Histogram::exponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const auto lin = Histogram::linearBuckets(0.5, 0.25, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[1], 0.75);
  EXPECT_THROW(Histogram::exponentialBuckets(0.0, 2.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::exponentialBuckets(1.0, 1.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::linearBuckets(1.0, 0.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::linearBuckets(1.0, 1.0, 0),
               std::invalid_argument);
}

TEST(ScopedTimer, ObservesElapsedSeconds) {
  Histogram h({1e-6, 1e-3, 1.0});
  {
    ScopedTimer timer(&h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.002);
  EXPECT_LT(h.sum(), 1.0);
}

TEST(ScopedTimer, TickClockTracksWallTime) {
  // The tick clock (TSC on x86) must agree with steady_clock once
  // calibrated — a 20 ms sleep measured by both should match within
  // a generous scheduling tolerance.
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t tick0 = detail::ticksNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t tick1 = detail::ticksNow();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  const double ticked = detail::ticksToSeconds(tick0, tick1);
  EXPECT_GE(ticked, 0.019);
  EXPECT_LE(ticked, wall * 1.05 + 1e-4);
  // Reversed or equal tick pairs clamp to zero instead of wrapping.
  EXPECT_EQ(detail::ticksToSeconds(tick1, tick0), 0.0);
  EXPECT_EQ(detail::ticksToSeconds(tick0, tick0), 0.0);
}

TEST(ScopedTimer, NullSinkIsSafeAndStopIsIdempotent) {
  // A null timer reads no clock: however long it runs, it reports 0.
  ScopedTimer nullTimer(nullptr);  // Must not crash at destruction.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(nullTimer.stop(), 0.0);
  EXPECT_EQ(nullTimer.stop(), 0.0);
  Histogram h({1.0});
  ScopedTimer timer(&h);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(timer.stop(), 0.0);
  EXPECT_EQ(timer.stop(), 0.0);  // Second stop must not double-observe.
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("moloc_test_total", "help");
  Counter& b = registry.counter("moloc_test_total", "help");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
}

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  MetricsRegistry registry;
  Counter& a =
      registry.counter("moloc_test_total", "help", {{"stage", "a"}});
  Counter& b =
      registry.counter("moloc_test_total", "help", {{"stage", "b"}});
  EXPECT_NE(&a, &b);
  // Label order must not matter.
  Counter& a2 = registry.counter("moloc_test_total", "help",
                                 {{"stage", "a"}});
  EXPECT_EQ(&a, &a2);
  Counter& multi = registry.counter(
      "moloc_multi_total", "help", {{"x", "1"}, {"y", "2"}});
  Counter& multiSwapped = registry.counter(
      "moloc_multi_total", "help", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&multi, &multiSwapped);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("moloc_test_total", "help");
  EXPECT_THROW(registry.gauge("moloc_test_total", "help"),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("moloc_test_total", "help", {1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistry, InvalidNamesAndLabelsThrow) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter("", "help"), std::invalid_argument);
  EXPECT_THROW(registry.counter("9starts_with_digit", "help"),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("has space", "help"),
               std::invalid_argument);
  EXPECT_THROW(registry.counter("ok_total", "help", {{"9bad", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(
      registry.counter("ok_total", "help", {{"k", "a"}, {"k", "b"}}),
      std::invalid_argument);
}

TEST(MetricsRegistry, FirstRegistrationFixesHistogramBuckets) {
  MetricsRegistry registry;
  Histogram& a =
      registry.histogram("moloc_test_seconds", "help", {1.0, 2.0});
  // Later callers get the existing instrument; their bounds are
  // ignored.
  Histogram& b =
      registry.histogram("moloc_test_seconds", "help", {5.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.bucketCounts().size(), 3u);  // 2 finite + overflow.
}

TEST(MetricsRegistry, FindReturnsNullWhenAbsent) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.findCounter("nope_total"), nullptr);
  EXPECT_EQ(registry.findGauge("nope"), nullptr);
  EXPECT_EQ(registry.findHistogram("nope_seconds"), nullptr);
  Counter& c = registry.counter("yes_total", "help");
  EXPECT_EQ(registry.findCounter("yes_total"), &c);
  EXPECT_EQ(registry.findCounter("yes_total", {{"k", "v"}}), nullptr);
  EXPECT_EQ(registry.findGauge("yes_total"), nullptr);  // Wrong kind.
}

TEST(MetricsRegistry, SnapshotReflectsState) {
  MetricsRegistry registry;
  registry.counter("moloc_a_total", "count things").inc(3.0);
  registry.gauge("moloc_b", "level").set(-1.5);
  registry.histogram("moloc_c_seconds", "timing", {1.0, 2.0})
      .observe(1.5);

  const auto families = registry.snapshot();
  ASSERT_EQ(families.size(), 3u);  // Sorted by name.
  EXPECT_EQ(families[0].name, "moloc_a_total");
  EXPECT_EQ(families[0].kind, MetricKind::kCounter);
  EXPECT_EQ(families[0].help, "count things");
  ASSERT_EQ(families[0].series.size(), 1u);
  EXPECT_DOUBLE_EQ(families[0].series[0].value, 3.0);

  EXPECT_EQ(families[1].name, "moloc_b");
  EXPECT_DOUBLE_EQ(families[1].series[0].value, -1.5);

  EXPECT_EQ(families[2].name, "moloc_c_seconds");
  const auto& hist = families[2].series[0].histogram;
  EXPECT_EQ(hist.count, 1u);
  EXPECT_DOUBLE_EQ(hist.sum, 1.5);
  ASSERT_EQ(hist.bucketCounts.size(), 3u);
  EXPECT_EQ(hist.bucketCounts[1], 1u);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUse) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry] {
      // Every thread races get-or-create for the same series, then
      // hammers it; the total must still be exact.
      Counter& c = registry.counter("moloc_race_total", "help");
      Histogram& h = registry.histogram("moloc_race_seconds", "help",
                                        {1.0, 2.0, 4.0});
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1.5);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(registry.findCounter("moloc_race_total")->value(),
                   static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(registry.findHistogram("moloc_race_seconds")->count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace moloc::obs
