#include "kernel/motion_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/motion_database.hpp"
#include "core/motion_matcher.hpp"
#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"

namespace moloc::kernel {
namespace {

core::RlmStats stats(double muDir, double sigmaDir, double muOff,
                     double sigmaOff) {
  return {muDir, sigmaDir, muOff, sigmaOff, 5};
}

TEST(MotionKernelTest, MakeWindowPrecomputesInverseSigmaConstants) {
  const auto w = core::makeWindow(3, stats(90.0, 12.0, 4.0, 0.8));
  EXPECT_EQ(w.to, 3);
  EXPECT_EQ(w.sampleCount, 5);
  EXPECT_EQ(w.muDirectionDeg, 90.0);
  EXPECT_EQ(w.invSqrt2SigmaDir, 1.0 / (12.0 * kSqrt2));
  EXPECT_EQ(w.muOffsetMeters, 4.0);
  EXPECT_EQ(w.invSqrt2SigmaOff, 1.0 / (0.8 * kSqrt2));
}

TEST(MotionKernelTest, MakeWindowZeroesConstantsForDegenerateSigma) {
  const auto zero = core::makeWindow(0, stats(0.0, 0.0, 1.0, -1.0));
  EXPECT_EQ(zero.invSqrt2SigmaDir, 0.0);
  EXPECT_EQ(zero.invSqrt2SigmaOff, 0.0);
  const auto nan = core::makeWindow(
      0, stats(0.0, std::numeric_limits<double>::quiet_NaN(), 1.0, 2.0));
  EXPECT_EQ(nan.invSqrt2SigmaDir, 0.0);
  EXPECT_NE(nan.invSqrt2SigmaOff, 0.0);
}

TEST(MotionKernelTest, DegenerateSigmaClassification) {
  EXPECT_TRUE(degenerateSigma(0.0));
  EXPECT_TRUE(degenerateSigma(-3.0));
  EXPECT_TRUE(degenerateSigma(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(degenerateSigma(1e-12));
  // +inf stays on the erf path, which honestly integrates to ~0 mass.
  EXPECT_FALSE(degenerateSigma(std::numeric_limits<double>::infinity()));
}

TEST(MotionKernelTest, WindowMassMatchesInlineGaussianFormBitwise) {
  for (const double sigma : {0.5, 2.0, 17.0}) {
    for (const double x : {-3.0, 0.0, 4.25, 90.0}) {
      const double viaWindow =
          windowMass(x, 1.5, 2.0, 1.0 / (sigma * kSqrt2));
      const double viaInline =
          core::gaussianWindowProbability(x, 1.5, 2.0, sigma);
      EXPECT_EQ(viaWindow, viaInline) << "sigma=" << sigma << " x=" << x;
    }
  }
}

TEST(MotionKernelTest, GaussianWindowGuardsNonFiniteSigma) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN sigma degrades to the indicator instead of poisoning erf.
  EXPECT_EQ(core::gaussianWindowProbability(2.0, 1.0, 2.5, nan), 1.0);
  EXPECT_EQ(core::gaussianWindowProbability(2.0, 1.0, 9.0, nan), 0.0);
  // +inf sigma: infinitely wide Gaussian, honestly no mass in a window.
  EXPECT_EQ(core::gaussianWindowProbability(2.0, 1.0, 2.0, inf), 0.0);
  // Degenerate zero/negative sigmas are indicators.
  EXPECT_EQ(core::gaussianWindowProbability(2.0, 1.0, 2.5, 0.0), 1.0);
  EXPECT_EQ(core::gaussianWindowProbability(2.0, 1.0, 9.0, -2.0), 0.0);
  EXPECT_EQ(core::circularGaussianWindowProbability(10.0, 15.0, nan), 1.0);
  EXPECT_EQ(core::circularGaussianWindowProbability(40.0, 15.0, nan), 0.0);
}

TEST(MotionDatabaseCsrTest, RebuildIndexesExactlyThePopulatedPairs) {
  // Entries arrive in any order; each row comes out sorted by
  // destination and holds exactly its populated pairs.
  const std::vector<core::MotionEntry> entries{
      {0, 3, stats(45.0, 8.0, 6.0, 1.5)},
      {2, 1, stats(270.0, 12.0, 3.0, 0.5)},
      {0, 1, stats(90.0, 10.0, 4.0, 1.0)}};
  const core::MotionDatabase db(4, entries);
  EXPECT_EQ(db.locationCount(), 4u);
  EXPECT_EQ(db.entryCount(), entries.size());
  ASSERT_EQ(db.rowStarts().size(), 5u);
  EXPECT_EQ(db.rowStarts().back(), db.edges().size());

  const auto row0 = db.outEdges(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0].to, 1);  // Sorted by destination.
  EXPECT_EQ(row0[1].to, 3);
  EXPECT_TRUE(db.outEdges(1).empty());
  EXPECT_TRUE(db.outEdges(3).empty());

  const PairWindow* found = db.find(2, 1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->muDirectionDeg, 270.0);
  EXPECT_EQ(found->sampleCount, 5);
  EXPECT_EQ(found->invSqrt2SigmaOff, 1.0 / (0.5 * kSqrt2));
  EXPECT_EQ(db.find(1, 2), nullptr);
  EXPECT_EQ(db.find(3, 0), nullptr);
}

TEST(MotionDatabaseCsrTest, BuiltIndexIsFrozenAndAFreshBuildSeesChanges) {
  // A database keeps no link to the entries it was built from: changes
  // to them after a build are invisible to it, and only a fresh build
  // sees them.  This is the contract the snapshot publication path
  // relies on.
  std::vector<core::MotionEntry> entries;
  const core::MotionDatabase empty(3, entries);
  EXPECT_EQ(empty.locationCount(), 3u);
  EXPECT_EQ(empty.entryCount(), 0u);

  entries.push_back({0, 1, stats(90.0, 10.0, 4.0, 1.0)});
  EXPECT_EQ(empty.entryCount(), 0u);
  EXPECT_EQ(empty.find(0, 1), nullptr);

  const core::MotionDatabase populated(3, entries);
  EXPECT_EQ(populated.entryCount(), 1u);
  ASSERT_NE(populated.find(0, 1), nullptr);
  EXPECT_EQ(populated.find(0, 1)->muDirectionDeg, 90.0);

  entries.push_back({1, 2, stats(0.0, 15.0, 5.0, 1.2)});
  EXPECT_EQ(populated.entryCount(), 1u);  // Still the frozen build.
  EXPECT_EQ(populated.find(1, 2), nullptr);
  EXPECT_EQ(core::MotionDatabase(3, entries).entryCount(), 2u);
}

TEST(MotionMatcherKernelTest, ScoreCandidatesMatchesSetProbabilityBitwise) {
  std::vector<core::MotionEntry> entries;
  core::appendWithMirror(entries, 0, 1, stats(90.0, 10.0, 4.0, 1.0));
  core::appendWithMirror(entries, 1, 2, stats(0.0, 15.0, 5.0, 1.2));
  entries.push_back({3, 4, stats(180.0, 9.0, 2.5, 0.7)});
  const core::MotionMatcher matcher(
      std::make_shared<const core::MotionDatabase>(5, entries));

  const std::vector<core::WeightedCandidate> prev{
      {0, 0.4}, {1, 0.3}, {2, 0.2}, {4, 0.1}};
  const std::vector<env::LocationId> targets{0, 1, 2, 3, 4};
  const sensors::MotionMeasurement motion{88.0, 4.2};

  std::vector<double> scores;
  matcher.scoreCandidates(prev, targets, motion, scores);
  ASSERT_EQ(scores.size(), targets.size());
  for (std::size_t c = 0; c < targets.size(); ++c)
    EXPECT_EQ(scores[c],
              matcher.setProbability(prev, targets[c], motion))
        << "target=" << targets[c];
}

TEST(MotionMatcherKernelTest, RebindAdoptsNewerPublishedWorld) {
  // The serving contract after the snapshot refactor: a matcher is a
  // frozen view of the world it was built (or last rebound) against.
  // Entries published to the online database later stay invisible —
  // and the frozen scores stay bitwise-stable — until the caller
  // rebinds to a newer snapshot's index.
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  core::BuilderConfig config;
  config.minSamplesPerPair = 3;
  core::OnlineMotionDatabase online(plan.positions(), config);
  core::MotionMatcher matcher(
      std::make_shared<const core::MotionDatabase>(online.database()));

  const std::vector<core::WeightedCandidate> prev{{0, 1.0}};
  const sensors::MotionMeasurement motion{90.0, 4.0};
  // No published entries yet: the pair takes the unreachable floor.
  const double before = matcher.setProbability(prev, 1, motion);
  EXPECT_EQ(before, matcher.params().unreachableFloor);

  EXPECT_TRUE(online.addObservation(0, 1, 90.0, 4.0));
  EXPECT_TRUE(online.addObservation(0, 1, 91.0, 4.1));
  EXPECT_TRUE(online.addObservation(0, 1, 89.0, 3.9));
  ASSERT_TRUE(online.database().hasEntry(0, 1));

  // Still the frozen world: late entries do not bleed into readers.
  EXPECT_EQ(matcher.setProbability(prev, 1, motion), before);

  // Publish: freeze a fresh read into a shared database and rebind.
  const auto published =
      std::make_shared<const core::MotionDatabase>(online.database());
  matcher.rebind(published);
  EXPECT_EQ(matcher.adjacencyPtr().get(), published.get());
  EXPECT_GT(matcher.setProbability(prev, 1, motion), before);
}

TEST(MotionMatcherKernelTest, SurvivesDatabaseDestroyAndStorageReuse) {
  // Regression for the ABA hazard of the retired version-stamp cache:
  // it keyed staleness on the database's *address*, so destroying a
  // database and reusing its storage for a new one could alias a stale
  // adjacency onto the newcomer.  A matcher now owns a share of its
  // database — it neither rereads the dead one nor confuses the
  // replacement living at the same address.
  std::optional<core::MotionDatabase> db;
  const std::vector<core::MotionEntry> entries{
      {0, 1, stats(90.0, 10.0, 4.0, 1.0)}};
  db.emplace(2, entries);
  const core::MotionMatcher matcher(
      std::make_shared<const core::MotionDatabase>(*db));

  const std::vector<core::WeightedCandidate> prev{{0, 1.0}};
  const sensors::MotionMeasurement motion{90.0, 4.0};
  const double before = matcher.setProbability(prev, 1, motion);
  EXPECT_GT(before, matcher.params().unreachableFloor);

  // Destroy and construct a new, *empty* database in the same storage
  // — the exact shape that used to alias the stale cache.
  db.emplace(2);
  EXPECT_EQ(db->entryCount(), 0u);
  EXPECT_EQ(matcher.setProbability(prev, 1, motion), before);
  EXPECT_EQ(matcher.adjacency().entryCount(), 1u);

  // A matcher built from the reused storage sees the new (empty) world.
  const core::MotionMatcher fresh(
      std::make_shared<const core::MotionDatabase>(*db));
  EXPECT_EQ(fresh.setProbability(prev, 1, motion),
            fresh.params().unreachableFloor);

  // Fully destroyed: the original matcher never dereferences its
  // source, so scoring stays valid and bitwise-stable.
  db.reset();
  EXPECT_EQ(matcher.setProbability(prev, 1, motion), before);
}

}  // namespace
}  // namespace moloc::kernel
