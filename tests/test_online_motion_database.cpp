#include "core/online_motion_database.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "geometry/angles.hpp"
#include "intake_state.hpp"
#include "motion_support.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace moloc::core {
namespace {

/// A 3-location corridor along the x axis: 0 at (2,2), 1 at (6,2),
/// 2 at (10,2).  The map RLMs 0 -> 1 and 1 -> 2 are (90 deg east, 4 m).
class OnlineDbTest : public ::testing::Test {
 protected:
  OnlineDbTest() {
    plan_.addReferenceLocation({2.0, 2.0});
    plan_.addReferenceLocation({6.0, 2.0});
    plan_.addReferenceLocation({10.0, 2.0});
  }

  env::FloorPlan plan_{12.0, 4.0};
};

TEST_F(OnlineDbTest, RejectsUndersizedReservoir) {
  BuilderConfig config;
  config.minSamplesPerPair = 5;
  EXPECT_THROW(OnlineMotionDatabase(plan_, config, 4),
               std::invalid_argument);
}

TEST_F(OnlineDbTest, EntryAppearsAfterMinSamples) {
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  OnlineMotionDatabase online(plan_, config);
  EXPECT_TRUE(online.addObservation(0, 1, 90.0, 4.0));
  EXPECT_TRUE(online.addObservation(0, 1, 91.0, 4.1));
  EXPECT_FALSE(online.database().hasEntry(0, 1));  // Below minimum.
  EXPECT_TRUE(online.addObservation(0, 1, 89.0, 3.9));
  ASSERT_TRUE(online.database().hasEntry(0, 1));
  EXPECT_NEAR(online.database().entry(0, 1)->muDirectionDeg, 90.0, 1.0);
  // Mirror written through.
  ASSERT_TRUE(online.database().hasEntry(1, 0));
  EXPECT_NEAR(online.database().entry(1, 0)->muDirectionDeg, 270.0, 1.0);
}

TEST_F(OnlineDbTest, CoarseFilterRejectsAtIntake) {
  OnlineMotionDatabase online(plan_);
  EXPECT_FALSE(online.addObservation(0, 1, 180.0, 4.0));  // 90 deg off.
  EXPECT_FALSE(online.addObservation(0, 1, 90.0, 9.0));   // 5 m off.
  EXPECT_EQ(online.counters().rejectedCoarse, 2u);
  EXPECT_EQ(online.counters().accepted, 0u);
  EXPECT_EQ(online.trackedPairs(), 0u);
}

TEST_F(OnlineDbTest, SelfPairsDropped) {
  OnlineMotionDatabase online(plan_);
  EXPECT_FALSE(online.addObservation(1, 1, 0.0, 0.0));
  EXPECT_EQ(online.counters().droppedSelfPairs, 1u);
}

TEST_F(OnlineDbTest, ReassemblesOntoSmallerId) {
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 4; ++i) online.addObservation(1, 0, 270.0, 4.0);
  ASSERT_TRUE(online.database().hasEntry(0, 1));
  EXPECT_NEAR(online.database().entry(0, 1)->muDirectionDeg, 90.0,
              1e-9);
}

TEST_F(OnlineDbTest, TracksDistributionShift) {
  // After many samples around one offset, feed a shifted distribution:
  // with reservoir sampling the entry migrates toward the new regime.
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  OnlineMotionDatabase online(plan_, config, 16);
  for (int i = 0; i < 16; ++i)
    online.addObservation(0, 1, 90.0, 3.4 + 0.01 * (i % 3));
  const double before =
      online.database().entry(0, 1)->muOffsetMeters;
  for (int i = 0; i < 600; ++i)
    online.addObservation(0, 1, 90.0, 4.6 + 0.01 * (i % 3));
  const double after = online.database().entry(0, 1)->muOffsetMeters;
  EXPECT_LT(before, 3.6);
  EXPECT_GT(after, 4.3);
}

TEST_F(OnlineDbTest, ReservoirBoundsMemory) {
  BuilderConfig config;
  OnlineMotionDatabase online(plan_, config, 8);
  for (int i = 0; i < 1000; ++i)
    online.addObservation(0, 1, 90.0, 4.0);
  // The entry's sample count reflects the reservoir, not the stream.
  EXPECT_LE(online.database().entry(0, 1)->sampleCount, 8);
  EXPECT_EQ(online.counters().accepted, 1000u);
}

TEST_F(OnlineDbTest, FineFilterStillApplies) {
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  OnlineMotionDatabase online(plan_, config, 64);
  for (int i = 0; i < 30; ++i)
    online.addObservation(0, 1, 90.0, 4.0 + 0.02 * (i % 5 - 2));
  online.addObservation(0, 1, 90.0, 5.5);  // Coarse-pass, fine-fail.
  const auto entry = online.database().entry(0, 1);
  ASSERT_TRUE(entry.has_value());
  // The outlier was excluded from the fit.
  EXPECT_NEAR(entry->muOffsetMeters, 4.0, 0.1);
}

/// Sec. IV.B's fit written out directly: circular mean and spread of
/// the directions, linear mean and spread of the offsets, one k-sigma
/// pass against that first fit, a refit of the survivors, then the
/// sigma floors.
RlmStats referenceFit(const BuilderConfig& config,
                      const std::vector<double>& directions,
                      const std::vector<double>& offsets) {
  const auto fit = [](const std::vector<double>& dirs,
                      const std::vector<double>& offs) {
    RlmStats stats;
    stats.sampleCount = static_cast<int>(dirs.size());
    stats.muDirectionDeg = geometry::circularMeanDeg(dirs);
    std::vector<double> deviations;
    for (double d : dirs)
      deviations.push_back(
          geometry::signedAngularDiffDeg(stats.muDirectionDeg, d));
    stats.sigmaDirectionDeg = util::stddev(deviations);
    stats.muOffsetMeters = util::mean(offs);
    stats.sigmaOffsetMeters = util::stddev(offs);
    return stats;
  };
  const RlmStats first = fit(directions, offsets);
  const double dirLimit =
      config.fineSigmaMultiplier *
      std::max(first.sigmaDirectionDeg, config.minDirectionSigmaDeg);
  const double offLimit =
      config.fineSigmaMultiplier *
      std::max(first.sigmaOffsetMeters, config.minOffsetSigmaMeters);
  std::vector<double> keptDirections;
  std::vector<double> keptOffsets;
  for (std::size_t s = 0; s < directions.size(); ++s) {
    if (geometry::angularDistDeg(directions[s], first.muDirectionDeg) <=
            dirLimit &&
        std::abs(offsets[s] - first.muOffsetMeters) <= offLimit) {
      keptDirections.push_back(directions[s]);
      keptOffsets.push_back(offsets[s]);
    }
  }
  RlmStats stats = fit(keptDirections, keptOffsets);
  stats.sigmaDirectionDeg =
      std::max(stats.sigmaDirectionDeg, config.minDirectionSigmaDeg);
  stats.sigmaOffsetMeters =
      std::max(stats.sigmaOffsetMeters, config.minOffsetSigmaMeters);
  return stats;
}

TEST_F(OnlineDbTest, FitMatchesReferenceFormula) {
  // Two pairs, each with one coarse-legal outlier the fine pass drops:
  // a tight one (0, 1) whose refit falls under both sigma floors, and
  // a wide one (1, 2) whose refit stays above them.  Both entries are
  // bitwise the reference fit of the pair's stream.
  const BuilderConfig config;
  OnlineMotionDatabase online(plan_, config);
  for (const auto& [i, dirStep, offStep] :
       {std::tuple{0, 0.5, 0.01}, std::tuple{1, 2.0, 0.1}}) {
    std::vector<double> directions;
    std::vector<double> offsets;
    for (int s = 0; s < 21; ++s) {
      const double d = s < 20 ? 90.0 + dirStep * (s % 5 - 2) : 90.0;
      const double o = s < 20 ? 4.0 + offStep * (s % 3 - 1) : 5.5;
      ASSERT_TRUE(online.addObservation(i, i + 1, d, o));
      directions.push_back(d);
      offsets.push_back(o);
    }
    const RlmStats expected = referenceFit(config, directions, offsets);
    const auto entry = online.database().entry(i, i + 1);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->sampleCount, 20);
    EXPECT_EQ(entry->sampleCount, expected.sampleCount);
    EXPECT_EQ(entry->muDirectionDeg, expected.muDirectionDeg);
    EXPECT_EQ(entry->sigmaDirectionDeg, expected.sigmaDirectionDeg);
    EXPECT_EQ(entry->muOffsetMeters, expected.muOffsetMeters);
    EXPECT_EQ(entry->sigmaOffsetMeters, expected.sigmaOffsetMeters);
  }
  EXPECT_EQ(online.database().entry(0, 1)->sigmaDirectionDeg,
            config.minDirectionSigmaDeg);
  EXPECT_EQ(online.database().entry(0, 1)->sigmaOffsetMeters,
            config.minOffsetSigmaMeters);
  EXPECT_GT(online.database().entry(1, 2)->sigmaDirectionDeg,
            config.minDirectionSigmaDeg);
  EXPECT_GT(online.database().entry(1, 2)->sigmaOffsetMeters,
            config.minOffsetSigmaMeters);
}

TEST_F(OnlineDbTest, ThrowsOnUnknownLocations) {
  OnlineMotionDatabase online(plan_);
  EXPECT_THROW(online.addObservation(0, 9, 90.0, 4.0),
               std::out_of_range);
}

TEST_F(OnlineDbTest, MeasurementValidatedBeforeLocationLookup) {
  // Regression: a corrupt measurement must report invalid_argument
  // even when the location ids are bad too — the old code resolved
  // the ids first and masked the poisoned measurement as out_of_range.
  OnlineMotionDatabase online(plan_);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(online.addObservation(0, 9, nan, 4.0),
               std::invalid_argument);
  EXPECT_THROW(online.addObservation(7, 9, 90.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(
      online.addObservation(0, 9, 90.0,
                            std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  // Nothing was counted as offered intake.
  EXPECT_EQ(online.counters().observations, 0u);
}

TEST_F(OnlineDbTest, StaleEntryInvalidatedWhenFineFilterDropsPair) {
  // Regression for the stale-publication bug: once a pair is
  // published, a later fit whose fine filter leaves fewer than
  // minSamplesPerPair survivors must leave the pair (plus mirror) out
  // of the database instead of serving the outdated Gaussian.
  //
  // Construction: capacity 6 holds the whole stream (no eviction, so
  // the arithmetic below is exact).  Three samples at offset 4.0
  // publish the pair.  Three more at 6.9 (coarse-legal: |6.9-4| <= 3)
  // then make the reservoir perfectly bimodal: mean 5.45, sample
  // stddev 1.588, fine limit 0.9 * 1.588 = 1.43 < |4.0 - 5.45| — the
  // filter drops *every* sample and the pair loses support.
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  config.fineSigmaMultiplier = 0.9;
  OnlineMotionDatabase online(plan_, config, 6);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(online.addObservation(0, 1, 90.0, 4.0));
  ASSERT_TRUE(online.database().hasEntry(0, 1));
  ASSERT_TRUE(online.database().hasEntry(1, 0));

  online.addObservation(0, 1, 90.0, 6.9);
  online.addObservation(0, 1, 90.0, 6.9);
  EXPECT_TRUE(online.database().hasEntry(0, 1));  // Still supported.
  online.addObservation(0, 1, 90.0, 6.9);

  EXPECT_FALSE(online.database().hasEntry(0, 1));
  EXPECT_FALSE(online.database().hasEntry(1, 0));  // Mirror gone too.
  // The reservoir itself keeps its samples; a later consistent stream
  // can re-publish the pair.
  EXPECT_EQ(online.reservoirSamples(0, 1).size(), 6u);
}

/// The intake the evicting stream is fed into: capacity 6, and a fine
/// filter at 0.9 sigma.
OnlineMotionDatabase evictingStreamDatabase(const env::FloorPlan& plan) {
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  config.fineSigmaMultiplier = 0.9;
  return OnlineMotionDatabase(plan, config, 6, 5);
}

/// Rounds [from, to) of a stream over OnlineDbTest's corridor that
/// evicts, makes pair (0,1) lose and regain its fit (blocks of 4.0 m
/// and 6.9 m), and carries self-pairs and coarse rejects.
/// `afterEach` runs after every observation.
template <typename AfterEach>
void feedEvictingStream(OnlineMotionDatabase& db, int from, int to,
                        AfterEach&& afterEach) {
  const auto offer = [&](env::LocationId i, env::LocationId j,
                         double directionDeg, double offsetMeters) {
    db.addObservation(i, j, directionDeg, offsetMeters);
    afterEach();
  };
  for (int k = from; k < to; ++k) {
    offer(0, 1, 90.0, (k / 3) % 2 == 0 ? 4.0 : 6.9);
    offer(1, 2, 89.0 + 0.4 * (k % 5), 3.9 + 0.05 * (k % 4));
    offer(2, 0, 270.0 + 0.5 * (k % 3), 8.0 + 0.03 * (k % 7));
    if (k % 9 == 4) offer(1, 1, 0.0, 0.0);
    if (k % 11 == 7) offer(0, 1, 179.0, 4.0);
  }
}

TEST_F(OnlineDbTest, ReadsDoNotChangeResults) {
  // Reads fill the fit caches, so they must be invisible: a database
  // read after every observation of the evicting stream ends bitwise
  // where one read only at the end does, on both sides of a
  // snapshot()/restore().
  const auto feed = [](OnlineMotionDatabase& db, int from, int to,
                       bool readEach) {
    feedEvictingStream(db, from, to, [&] {
      if (readEach) {
        (void)db.database();
        (void)db.report();
      }
    });
  };
  const auto expectSame = [](const OnlineMotionDatabase& a,
                             const OnlineMotionDatabase& b) {
    test_support::expectIdenticalIntakeState(a, b);
    const auto ca = a.counters();
    const auto cb = b.counters();
    EXPECT_EQ(ca.observations, cb.observations);
    EXPECT_EQ(ca.rejectedCoarse, cb.rejectedCoarse);
    EXPECT_EQ(ca.droppedSelfPairs, cb.droppedSelfPairs);
    const auto ra = a.report();
    const auto rb = b.report();
    EXPECT_EQ(ra.observations, rb.observations);
    EXPECT_EQ(ra.droppedSelfPairs, rb.droppedSelfPairs);
    EXPECT_EQ(ra.rejectedCoarse, rb.rejectedCoarse);
    EXPECT_EQ(ra.rejectedFine, rb.rejectedFine);
    EXPECT_EQ(ra.pairsStored, rb.pairsStored);
  };

  OnlineMotionDatabase eager = evictingStreamDatabase(plan_);
  OnlineMotionDatabase lazy = evictingStreamDatabase(plan_);
  feed(eager, 0, 20, true);
  feed(lazy, 0, 20, false);
  // Halfway, (0,1) holds a full reservoir that supports no entry.
  OnlineMotionDatabase eagerRestored(plan_, {}, 64, 999);
  OnlineMotionDatabase lazyRestored(plan_, {}, 64, 999);
  eagerRestored.restore(eager.snapshot());
  lazyRestored.restore(lazy.snapshot());
  ASSERT_FALSE(eager.database().hasEntry(0, 1));
  ASSERT_EQ(eager.reservoirSamples(0, 1).size(), 6u);
  ASSERT_GT(eager.reservoirStats().totalSeen,
            eager.reservoirStats().totalSamples);  // Evictions ran.
  expectSame(eager, lazy);

  feed(eager, 20, 60, true);
  feed(eagerRestored, 20, 60, true);
  feed(lazyRestored, 20, 60, false);
  expectSame(eager, lazyRestored);
  expectSame(eager, eagerRestored);
  EXPECT_GT(eager.counters().droppedSelfPairs, 0u);
  EXPECT_GT(eager.counters().rejectedCoarse, 0u);
}

TEST_F(OnlineDbTest, EvictingStreamDatabaseIsPinned) {
  // Every read along the evicting stream goes into one digest, so a
  // change to how a read assembles the database — entry order, the
  // mirror, a pair losing or regaining its fit — shows here.
  OnlineMotionDatabase db = evictingStreamDatabase(plan_);
  test_support::Fnv64 digest;
  feedEvictingStream(db, 0, 60, [&] { digest.mix(db.database()); });
  EXPECT_EQ(digest.value(), 0x197cd3bbf2b199e9ULL);
}

TEST_F(OnlineDbTest, ReservoirSamplesAccessor) {
  BuilderConfig config;
  OnlineMotionDatabase online(plan_, config, 8);
  EXPECT_TRUE(online.reservoirSamples(0, 1).empty());  // Untracked.
  online.addObservation(0, 1, 90.0, 4.0);
  online.addObservation(1, 0, 270.0, 4.1);  // Reassembled onto (0, 1).
  const auto forward = online.reservoirSamples(0, 1);
  const auto backward = online.reservoirSamples(1, 0);
  ASSERT_EQ(forward.size(), 2u);
  ASSERT_EQ(backward.size(), 2u);  // Same canonical pair.
  EXPECT_DOUBLE_EQ(forward[0].directionDeg, 90.0);
  EXPECT_DOUBLE_EQ(forward[1].directionDeg, 90.0);  // Mirrored in.
  EXPECT_DOUBLE_EQ(forward[1].offsetMeters, 4.1);
  EXPECT_THROW(online.reservoirSamples(0, 9), std::out_of_range);
}

TEST_F(OnlineDbTest, ReservoirRetentionIsUniform) {
  // Statistical regression for the int-truncated slot draw: run many
  // independent streams of n items through a capacity-C reservoir and
  // count, per stream position, how often that item survives.  Under
  // correct Algorithm R every position survives with probability C/n,
  // so the 48 per-position counts follow a multinomial whose
  // chi-squared statistic (df = 47) stays below 110 except with
  // probability ~1e-6.  Fixed seeds make the test deterministic.
  constexpr int kStreamLength = 48;
  constexpr std::size_t kCapacity = 8;
  constexpr int kTrials = 600;
  BuilderConfig config;
  config.enableFineFilter = false;  // Keep every coarse-legal sample.
  std::vector<int> survivals(kStreamLength, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    OnlineMotionDatabase online(plan_, config, kCapacity,
                                static_cast<std::uint64_t>(trial) + 1);
    // Encode the stream position in the offset (all coarse-legal:
    // within 1 m of the 4 m map offset).
    for (int k = 0; k < kStreamLength; ++k)
      ASSERT_TRUE(online.addObservation(0, 1, 90.0, 3.0 + 0.02 * k));
    for (const auto& sample : online.reservoirSamples(0, 1)) {
      const int k =
          static_cast<int>(std::lround((sample.offsetMeters - 3.0) / 0.02));
      ASSERT_GE(k, 0);
      ASSERT_LT(k, kStreamLength);
      ++survivals[k];
    }
  }
  const double expected =
      static_cast<double>(kTrials) * kCapacity / kStreamLength;
  double chiSquared = 0.0;
  for (const int observed : survivals) {
    const double diff = observed - expected;
    chiSquared += diff * diff / expected;
  }
  EXPECT_LT(chiSquared, 110.0)
      << "reservoir retention deviates from uniform";
  // Sanity: late positions must survive at all (the truncation bug
  // family tends to bias or break the tail of long streams).
  EXPECT_GT(survivals[kStreamLength - 1], 0);
}

TEST_F(OnlineDbTest, IntakeCountersMirroredToRegistry) {
  obs::MetricsRegistry registry;
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  config.fineSigmaMultiplier = 0.9;
  OnlineMotionDatabase online(plan_, config, 6, 0x0b5e55edULL,
                              &registry);
  online.addObservation(1, 1, 0.0, 0.0);       // Self-pair.
  online.addObservation(0, 1, 180.0, 4.0);     // Coarse reject.
  for (int i = 0; i < 3; ++i) online.addObservation(0, 1, 90.0, 4.0);
  for (int i = 0; i < 3; ++i) online.addObservation(0, 1, 90.0, 6.9);

  const obs::Labels online_{{"source", "online"}};
  const auto counterValue = [&](const char* name, obs::Labels labels) {
    obs::Counter* c = registry.findCounter(name, labels);
    return c ? c->value() : -1.0;
  };
  EXPECT_DOUBLE_EQ(
      counterValue("moloc_intake_observations_total", online_),
      static_cast<double>(online.counters().observations));
  EXPECT_DOUBLE_EQ(counterValue("moloc_intake_accepted_total", online_),
                   static_cast<double>(online.counters().accepted));
  EXPECT_DOUBLE_EQ(
      counterValue("moloc_intake_rejected_total",
                   {{"source", "online"}, {"filter", "coarse"}}),
      static_cast<double>(online.counters().rejectedCoarse));
  EXPECT_DOUBLE_EQ(
      counterValue("moloc_intake_self_pairs_total", online_),
      static_cast<double>(online.counters().droppedSelfPairs));

  // The fine counter moves when a fit is computed, and fits run on
  // reads: none yet, then the one fit of (0, 1), whose bimodal
  // reservoir loses all six samples.  A second read reuses the cached
  // fit and counts nothing.
  const obs::Labels fine{{"source", "online"}, {"filter", "fine"}};
  EXPECT_DOUBLE_EQ(counterValue("moloc_intake_rejected_total", fine), 0.0);
  EXPECT_FALSE(online.database().hasEntry(0, 1));
  const auto fitExcluded = static_cast<double>(online.report().rejectedFine);
  EXPECT_DOUBLE_EQ(fitExcluded, 6.0);
  EXPECT_DOUBLE_EQ(counterValue("moloc_intake_rejected_total", fine),
                   fitExcluded);
  // A new sample drops the cached fit; the next read fits again.
  online.addObservation(0, 1, 90.0, 4.0);
  const auto refitExcluded =
      static_cast<double>(online.report().rejectedFine);
  EXPECT_DOUBLE_EQ(counterValue("moloc_intake_rejected_total", fine),
                   fitExcluded + refitExcluded);
  // No entry is stored, so none is ever withdrawn.
  EXPECT_EQ(registry.findCounter("moloc_intake_stale_invalidated_total",
                                 online_),
            nullptr);
}

TEST_F(OnlineDbTest, ReservoirStatsAggregateOccupancy) {
  OnlineMotionDatabase online(plan_, {}, /*reservoirCapacity=*/3);
  const auto empty = online.reservoirStats();
  EXPECT_EQ(empty.trackedPairs, 0u);
  EXPECT_EQ(empty.totalSamples, 0u);
  EXPECT_EQ(empty.totalSeen, 0u);
  EXPECT_EQ(empty.capacity, 3u);

  // Pair (0,1): 5 accepted -> full reservoir, 5 seen.
  for (int k = 0; k < 5; ++k) online.addObservation(0, 1, 90.0, 4.0);
  // Pair (1,2): 2 accepted -> below capacity.
  online.addObservation(1, 2, 90.0, 4.0);
  online.addObservation(1, 2, 91.0, 4.1);
  // Rejections must not show up anywhere.
  online.addObservation(0, 1, 180.0, 4.0);

  const auto stats = online.reservoirStats();
  EXPECT_EQ(stats.trackedPairs, 2u);
  EXPECT_EQ(stats.pairsAtCapacity, 1u);
  EXPECT_EQ(stats.totalSamples, 5u);  // 3 retained + 2 retained.
  EXPECT_EQ(stats.totalSeen, 7u);     // Accepted ever, incl. evicted.
  EXPECT_EQ(stats.capacity, 3u);
}

/// Records every onAccepted call; optionally throws to exercise the
/// write-ahead abort path.
class RecordingSink : public ObservationSink {
 public:
  struct Call {
    env::LocationId start, end;
    double directionDeg, offsetMeters;
  };
  std::vector<Call> calls;
  bool throwNext = false;

  void onAccepted(env::LocationId estimatedStart,
                  env::LocationId estimatedEnd, double directionDeg,
                  double offsetMeters) override {
    if (throwNext) throw std::runtime_error("sink full");
    calls.push_back(
        {estimatedStart, estimatedEnd, directionDeg, offsetMeters});
  }
};

TEST_F(OnlineDbTest, SinkReceivesOriginalArgsOnAcceptOnly) {
  OnlineMotionDatabase online(plan_);
  RecordingSink sink;
  online.setSink(&sink);
  EXPECT_EQ(online.sink(), &sink);

  // Accepted, in reversed (1, 0) orientation: the sink must see the
  // ORIGINAL arguments, not the canonical reassembly.
  EXPECT_TRUE(online.addObservation(1, 0, 270.0, 4.0));
  // Coarse-rejected and self-pair: never logged.
  EXPECT_FALSE(online.addObservation(0, 1, 180.0, 4.0));
  EXPECT_FALSE(online.addObservation(1, 1, 90.0, 0.0));

  ASSERT_EQ(sink.calls.size(), 1u);
  EXPECT_EQ(sink.calls[0].start, 1);
  EXPECT_EQ(sink.calls[0].end, 0);
  EXPECT_EQ(sink.calls[0].directionDeg, 270.0);
  EXPECT_EQ(sink.calls[0].offsetMeters, 4.0);

  online.setSink(nullptr);
  EXPECT_TRUE(online.addObservation(0, 1, 90.0, 4.0));
  EXPECT_EQ(sink.calls.size(), 1u);  // Detached: no further calls.
}

TEST_F(OnlineDbTest, SinkFailureAbortsTheUpdate) {
  OnlineMotionDatabase online(plan_);
  RecordingSink sink;
  online.setSink(&sink);
  online.addObservation(0, 1, 90.0, 4.0);
  const auto before = online.snapshot();

  // Write-ahead discipline: an observation that could not be logged is
  // never applied — reservoirs, counters, and RNG all stay put.
  sink.throwNext = true;
  EXPECT_THROW(online.addObservation(0, 1, 91.0, 4.1),
               std::runtime_error);
  const auto after = online.snapshot();
  EXPECT_EQ(after.counters.accepted, before.counters.accepted);
  EXPECT_EQ(after.rngState, before.rngState);
  ASSERT_EQ(after.reservoirs.size(), 1u);
  EXPECT_EQ(after.reservoirs[0].seen, before.reservoirs[0].seen);
  EXPECT_EQ(after.reservoirs[0].samples.size(),
            before.reservoirs[0].samples.size());

  // The failed call is still counted as presented.
  EXPECT_EQ(after.counters.observations,
            before.counters.observations + 1);

  sink.throwNext = false;
  EXPECT_TRUE(online.addObservation(0, 1, 91.0, 4.1));
  EXPECT_EQ(online.counters().accepted, 2u);
}

// The Sec. IV.B sanitation contract that BuilderConfig configures and
// report() summarizes: reassembling, the coarse and fine filters, the
// per-pair minimum and the sigma floors.
using BuilderTest = OnlineDbTest;

TEST_F(BuilderTest, LearnsCleanObservations) {
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 10; ++i)
    online.addObservation(0, 1, 90.0 + (i % 3 - 1) * 2.0,
                          4.0 + (i % 3 - 1) * 0.1);
  const auto db = online.database();

  EXPECT_EQ(online.report().pairsStored, 1u);
  ASSERT_TRUE(db.hasEntry(0, 1));
  const auto stats = db.entry(0, 1);
  EXPECT_NEAR(stats->muDirectionDeg, 90.0, 0.5);
  EXPECT_NEAR(stats->muOffsetMeters, 4.0, 0.05);
  // The mirror entry exists with the reversed direction.
  ASSERT_TRUE(db.hasEntry(1, 0));
  EXPECT_NEAR(db.entry(1, 0)->muDirectionDeg, 270.0, 0.5);
}

TEST_F(BuilderTest, ReassemblesOntoSmallerId) {
  OnlineMotionDatabase online(plan_);
  // Observations reported from the larger-ID side (walking west).
  for (int i = 0; i < 5; ++i) online.addObservation(1, 0, 270.0, 4.0);
  const auto db = online.database();
  ASSERT_TRUE(db.hasEntry(0, 1));
  // Stored under the smaller ID as the eastward leg.
  EXPECT_NEAR(db.entry(0, 1)->muDirectionDeg, 90.0, 1e-9);
  EXPECT_NEAR(db.entry(1, 0)->muDirectionDeg, 270.0, 1e-9);
}

TEST_F(BuilderTest, ForwardAndBackwardObservationsPool) {
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 3; ++i) online.addObservation(0, 1, 88.0, 3.9);
  for (int i = 0; i < 3; ++i) online.addObservation(1, 0, 272.0, 4.1);
  const auto db = online.database();
  ASSERT_TRUE(db.hasEntry(0, 1));
  EXPECT_EQ(db.entry(0, 1)->sampleCount, 6);
  EXPECT_NEAR(db.entry(0, 1)->muDirectionDeg, 90.0, 1.0);
  EXPECT_NEAR(db.entry(0, 1)->muOffsetMeters, 4.0, 0.05);
}

TEST_F(BuilderTest, SelfPairsDropped) {
  OnlineMotionDatabase online(plan_);
  online.addObservation(1, 1, 90.0, 4.0);
  EXPECT_EQ(online.report().droppedSelfPairs, 1u);
  EXPECT_EQ(online.database().entryCount(), 0u);
}

TEST_F(BuilderTest, CoarseFilterRejectsDirectionOutliers) {
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 5; ++i) online.addObservation(0, 1, 90.0, 4.0);
  // 45 degrees off the map heading: beyond the 20-degree threshold.
  online.addObservation(0, 1, 135.0, 4.0);
  EXPECT_EQ(online.report().rejectedCoarse, 1u);
  EXPECT_EQ(online.database().entry(0, 1)->sampleCount, 5);
}

TEST_F(BuilderTest, CoarseFilterRejectsOffsetOutliers) {
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 5; ++i) online.addObservation(0, 1, 90.0, 4.0);
  online.addObservation(0, 1, 90.0, 8.5);  // 4.5 m off: beyond 3 m.
  EXPECT_EQ(online.report().rejectedCoarse, 1u);
}

TEST_F(BuilderTest, CoarseFilterComparesAgainstMapNotSamples) {
  // Consistently wrong observations (e.g. from misestimated locations)
  // are all rejected even though they agree with each other.
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 10; ++i) online.addObservation(0, 1, 180.0, 4.0);
  EXPECT_EQ(online.report().rejectedCoarse, 10u);
  EXPECT_FALSE(online.database().hasEntry(0, 1));
}

TEST_F(BuilderTest, FineFilterRejectsInliersBeyondTwoSigma) {
  BuilderConfig config;
  config.coarseDirectionThresholdDeg = 20.0;
  config.minSamplesPerPair = 3;
  OnlineMotionDatabase online(plan_, config);
  // A tight cluster plus one sample inside the coarse gate but far from
  // the cluster (in offset).
  for (int i = 0; i < 20; ++i)
    online.addObservation(0, 1, 90.0, 4.0 + 0.02 * (i % 5 - 2));
  online.addObservation(0, 1, 90.0, 5.5);  // Within 3 m of map's 4 m.
  const BuilderReport report = online.report();
  EXPECT_EQ(report.rejectedCoarse, 0u);
  EXPECT_EQ(report.rejectedFine, 1u);
  EXPECT_EQ(online.database().entry(0, 1)->sampleCount, 20);
}

TEST_F(BuilderTest, FineFilterCanBeDisabled) {
  BuilderConfig config;
  config.enableFineFilter = false;
  OnlineMotionDatabase online(plan_, config);
  for (int i = 0; i < 20; ++i) online.addObservation(0, 1, 90.0, 4.0);
  online.addObservation(0, 1, 90.0, 5.5);
  EXPECT_EQ(online.report().rejectedFine, 0u);
  EXPECT_EQ(online.database().entry(0, 1)->sampleCount, 21);
}

TEST_F(BuilderTest, CoarseFilterCanBeDisabled) {
  BuilderConfig config;
  config.enableCoarseFilter = false;
  config.enableFineFilter = false;
  OnlineMotionDatabase online(plan_, config);
  for (int i = 0; i < 5; ++i) online.addObservation(0, 1, 180.0, 9.0);
  EXPECT_EQ(online.report().rejectedCoarse, 0u);
  const auto db = online.database();
  ASSERT_TRUE(db.hasEntry(0, 1));
  EXPECT_NEAR(db.entry(0, 1)->muDirectionDeg, 180.0, 1e-9);
}

TEST_F(BuilderTest, MinSamplesGate) {
  BuilderConfig config;
  config.minSamplesPerPair = 3;
  OnlineMotionDatabase online(plan_, config);
  online.addObservation(0, 1, 90.0, 4.0);
  online.addObservation(0, 1, 90.0, 4.0);
  EXPECT_EQ(online.report().pairsStored, 0u);
  EXPECT_FALSE(online.database().hasEntry(0, 1));
}

TEST_F(BuilderTest, SigmaFloorsApplied) {
  BuilderConfig config;
  config.minDirectionSigmaDeg = 2.0;
  config.minOffsetSigmaMeters = 0.05;
  OnlineMotionDatabase online(plan_, config);
  // Identical samples would otherwise fit sigma = 0.
  for (int i = 0; i < 5; ++i) online.addObservation(0, 1, 90.0, 4.0);
  const auto db = online.database();
  EXPECT_GE(db.entry(0, 1)->sigmaDirectionDeg, 2.0);
  EXPECT_GE(db.entry(0, 1)->sigmaOffsetMeters, 0.05);
}

TEST_F(BuilderTest, DirectionFitHandlesNorthWrap) {
  // A pair whose map heading is north: samples straddle 0/360.
  env::FloorPlan vertical(6.0, 12.0);
  vertical.addReferenceLocation({2.0, 2.0});
  vertical.addReferenceLocation({2.0, 6.0});  // Due north of 0.
  OnlineMotionDatabase online(vertical);
  for (double d : {355.0, 357.0, 0.0, 3.0, 5.0})
    online.addObservation(0, 1, d, 4.0);
  const auto db = online.database();
  ASSERT_TRUE(db.hasEntry(0, 1));
  EXPECT_LT(geometry::angularDistDeg(db.entry(0, 1)->muDirectionDeg, 0.0),
            1.0);
  EXPECT_LT(db.entry(0, 1)->sigmaDirectionDeg, 10.0);
}

TEST_F(BuilderTest, ThrowsOnUnknownLocations) {
  OnlineMotionDatabase online(plan_);
  EXPECT_THROW(online.addObservation(0, 7, 90.0, 4.0), std::out_of_range);
  EXPECT_THROW(online.addObservation(-1, 1, 90.0, 4.0), std::out_of_range);
}

TEST_F(BuilderTest, ReportCountsObservations) {
  OnlineMotionDatabase online(plan_);
  for (int i = 0; i < 7; ++i) online.addObservation(0, 1, 90.0, 4.0);
  online.addObservation(1, 1, 0.0, 0.0);
  const BuilderReport report = online.report();
  EXPECT_EQ(report.observations, 8u);
  EXPECT_EQ(report.droppedSelfPairs, 1u);
  EXPECT_EQ(report.pairsStored, 1u);
}

TEST_F(BuilderTest, SetConfigChangesSubsequentBuilds) {
  // One stream into two databases: the config decides what survives.
  BuilderConfig loose;
  loose.enableCoarseFilter = false;
  loose.enableFineFilter = false;
  OnlineMotionDatabase strict(plan_);
  OnlineMotionDatabase lax(plan_, loose);
  for (OnlineMotionDatabase* online : {&strict, &lax}) {
    for (int i = 0; i < 5; ++i) online->addObservation(0, 1, 90.0, 4.0);
    online->addObservation(0, 1, 135.0, 4.0);  // Coarse outlier.
  }
  EXPECT_EQ(strict.report().rejectedCoarse, 1u);
  EXPECT_EQ(strict.database().entry(0, 1)->sampleCount, 5);
  EXPECT_EQ(lax.report().rejectedCoarse, 0u);
  EXPECT_EQ(lax.database().entry(0, 1)->sampleCount, 6);
}

}  // namespace
}  // namespace moloc::core
