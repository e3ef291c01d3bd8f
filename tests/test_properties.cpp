// Property-style sweeps over randomized inputs: invariants that must
// hold for *any* world, not just the paper's office hall.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/moloc_engine.hpp"
#include "core/online_motion_database.hpp"
#include "env/walk_graph.hpp"
#include "geometry/angles.hpp"
#include "motion_support.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace moloc {
namespace {

/// A random floor plan: locations on a jittered grid, some random
/// walls; deterministic per seed.
env::FloorPlan randomPlan(util::Rng& rng, int locations = 12) {
  env::FloorPlan plan(30.0, 20.0);
  for (int i = 0; i < locations; ++i)
    plan.addReferenceLocation(
        {rng.uniform(1.0, 29.0), rng.uniform(1.0, 19.0)});
  const int walls = rng.uniformInt(0, 4);
  for (int w = 0; w < walls; ++w) {
    const geometry::Vec2 a{rng.uniform(0.0, 30.0), rng.uniform(0.0, 20.0)};
    const geometry::Vec2 b{rng.uniform(0.0, 30.0), rng.uniform(0.0, 20.0)};
    plan.addWall({a, b});
  }
  return plan;
}

class SeededPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SeededPropertyTest, WalkGraphIsSymmetricAndMetric) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto plan = randomPlan(rng);
  const auto graph = env::WalkGraph::build(plan, 8.0);
  const auto n = static_cast<env::LocationId>(graph.nodeCount());

  for (env::LocationId i = 0; i < n; ++i) {
    for (env::LocationId j = 0; j < n; ++j) {
      // Symmetry.
      EXPECT_EQ(graph.adjacent(i, j), graph.adjacent(j, i));
      const double dij = graph.walkableDistance(i, j);
      const double dji = graph.walkableDistance(j, i);
      if (std::isfinite(dij)) {
        EXPECT_NEAR(dij, dji, 1e-9);
      } else {
        EXPECT_FALSE(std::isfinite(dji));
      }
      // Walkable distance dominates straight-line distance.
      if (std::isfinite(dij) && i != j) {
        EXPECT_GE(dij + 1e-9,
                  geometry::distance(plan.location(i).pos,
                                     plan.location(j).pos));
      }
      // Identity.
      if (i == j) {
        EXPECT_DOUBLE_EQ(dij, 0.0);
      }
    }
  }
}

TEST_P(SeededPropertyTest, WalkGraphTriangleInequality) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto plan = randomPlan(rng);
  const auto graph = env::WalkGraph::build(plan, 8.0);
  const auto n = static_cast<env::LocationId>(graph.nodeCount());
  for (env::LocationId i = 0; i < n; ++i)
    for (env::LocationId j = 0; j < n; ++j)
      for (env::LocationId k = 0; k < n; ++k) {
        const double viaK = graph.walkableDistance(i, k) +
                            graph.walkableDistance(k, j);
        if (std::isfinite(viaK)) {
          EXPECT_LE(graph.walkableDistance(i, j), viaK + 1e-9);
        }
      }
}

TEST_P(SeededPropertyTest, GroundTruthRlmsMirror) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const auto plan = randomPlan(rng);
  const auto graph = env::WalkGraph::build(plan, 8.0);
  const auto n = static_cast<env::LocationId>(graph.nodeCount());
  for (env::LocationId i = 0; i < n; ++i) {
    for (const auto& edge : graph.neighbors(i)) {
      const auto forward = graph.groundTruthRlm(i, edge.to);
      const auto backward = graph.groundTruthRlm(edge.to, i);
      ASSERT_TRUE(forward && backward);
      EXPECT_NEAR(forward->offsetMeters, backward->offsetMeters, 1e-9);
      EXPECT_NEAR(geometry::angularDistDeg(
                      forward->directionDeg,
                      geometry::reverseHeadingDeg(backward->directionDeg)),
                  0.0, 1e-9);
    }
  }
}

TEST_P(SeededPropertyTest, BuilderOutputAlwaysMirrorConsistent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  const auto plan = randomPlan(rng);
  core::OnlineMotionDatabase online(plan.positions());

  // Random (noisy, sometimes junk) observations.
  const auto n = static_cast<env::LocationId>(plan.locationCount());
  for (int obs = 0; obs < 300; ++obs) {
    const auto i = static_cast<env::LocationId>(
        rng.uniformInt(0, n - 1));
    const auto j = static_cast<env::LocationId>(
        rng.uniformInt(0, n - 1));
    if (i == j) continue;
    const double mapDir = geometry::headingBetweenDeg(
        plan.location(i).pos, plan.location(j).pos);
    const double mapOff = geometry::distance(plan.location(i).pos,
                                             plan.location(j).pos);
    online.addObservation(i, j, mapDir + rng.normal(0.0, 8.0),
                          std::max(0.0, mapOff + rng.normal(0.0, 0.8)));
  }
  const auto db = online.database();

  // Invariants: every entry has a mirror with reversed direction and
  // identical offset stats, and positive sigmas.
  for (env::LocationId i = 0; i < n; ++i) {
    for (env::LocationId j = 0; j < n; ++j) {
      const auto entry = db.entry(i, j);
      if (!entry) continue;
      EXPECT_GT(entry->sigmaDirectionDeg, 0.0);
      EXPECT_GT(entry->sigmaOffsetMeters, 0.0);
      EXPECT_GE(entry->muOffsetMeters, 0.0);
      const auto mirror = db.entry(j, i);
      ASSERT_TRUE(mirror.has_value());
      EXPECT_NEAR(mirror->muOffsetMeters, entry->muOffsetMeters, 1e-9);
      EXPECT_NEAR(
          geometry::angularDistDeg(
              mirror->muDirectionDeg,
              geometry::reverseHeadingDeg(entry->muDirectionDeg)),
          0.0, 1e-9);
    }
  }
}

TEST_P(SeededPropertyTest, EnginePosteriorIsAlwaysADistribution) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);

  // Random fingerprint database over 10 locations, random motion DB.
  radio::FingerprintDatabase fingerprints;
  for (int i = 0; i < 10; ++i)
    fingerprints.addLocation(
        i, radio::Fingerprint({rng.uniform(-90.0, -30.0),
                               rng.uniform(-90.0, -30.0),
                               rng.uniform(-90.0, -30.0)}));
  // A pair drawn again replaces its earlier draw, mirror included.
  std::map<std::pair<env::LocationId, env::LocationId>, core::RlmStats>
      drawn;
  for (int e = 0; e < 12; ++e) {
    const auto i = static_cast<env::LocationId>(rng.uniformInt(0, 9));
    const auto j = static_cast<env::LocationId>(rng.uniformInt(0, 9));
    if (i == j) continue;
    std::vector<core::MotionEntry> leg;
    core::appendWithMirror(leg, i, j,
                           {rng.uniform(0.0, 360.0), rng.uniform(2.0, 12.0),
                            rng.uniform(2.0, 8.0), rng.uniform(0.1, 0.6),
                            5});
    for (const core::MotionEntry& entry : leg)
      drawn[{entry.from, entry.to}] = entry.stats;
  }
  std::vector<core::MotionEntry> entries;
  for (const auto& [pair, stats] : drawn)
    entries.push_back({pair.first, pair.second, stats});
  const core::MotionDatabase motion(10, entries);

  core::MoLocConfig config;
  config.candidateCount = static_cast<std::size_t>(rng.uniformInt(1, 10));
  core::MoLocEngine engine(fingerprints, motion, config);

  for (int step = 0; step < 25; ++step) {
    const radio::Fingerprint scan({rng.uniform(-90.0, -30.0),
                                   rng.uniform(-90.0, -30.0),
                                   rng.uniform(-90.0, -30.0)});
    std::optional<sensors::MotionMeasurement> measured;
    if (step > 0 && rng.chance(0.8))
      measured = sensors::MotionMeasurement{rng.uniform(0.0, 360.0),
                                            rng.uniform(0.0, 10.0)};
    const auto fix = engine.localize(scan, measured);

    double total = 0.0;
    bool estimateInSet = false;
    for (const auto& c : fix.candidates) {
      EXPECT_GE(c.probability, 0.0);
      EXPECT_TRUE(std::isfinite(c.probability));
      total += c.probability;
      if (c.location == fix.location) estimateInSet = true;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_TRUE(estimateInSet);
    EXPECT_EQ(fix.candidates.size(), config.candidateCount);
    // The estimate is the argmax of the posterior.
    for (const auto& c : fix.candidates)
      EXPECT_LE(c.probability, fix.probability + 1e-12);
  }
}

TEST_P(SeededPropertyTest, EngineIsDeterministic) {
  util::Rng worldRng(static_cast<std::uint64_t>(GetParam()) + 5000);
  radio::FingerprintDatabase fingerprints;
  for (int i = 0; i < 6; ++i)
    fingerprints.addLocation(
        i, radio::Fingerprint({worldRng.uniform(-90.0, -30.0),
                               worldRng.uniform(-90.0, -30.0)}));
  const core::MotionDatabase motion =
      test_support::mirroredDb(6, {{0, 1, {90.0, 5.0, 4.0, 0.3, 9}}});

  core::MoLocEngine a(fingerprints, motion);
  core::MoLocEngine b(fingerprints, motion);
  util::Rng scanRngA(99);
  util::Rng scanRngB(99);
  for (int step = 0; step < 10; ++step) {
    const radio::Fingerprint scanA({scanRngA.uniform(-90.0, -30.0),
                                    scanRngA.uniform(-90.0, -30.0)});
    const radio::Fingerprint scanB({scanRngB.uniform(-90.0, -30.0),
                                    scanRngB.uniform(-90.0, -30.0)});
    const sensors::MotionMeasurement motionMeas{90.0, 4.0};
    const auto fixA = a.localize(scanA, motionMeas);
    const auto fixB = b.localize(scanB, motionMeas);
    EXPECT_EQ(fixA.location, fixB.location);
    EXPECT_EQ(fixA.probability, fixB.probability);
  }
}

TEST_P(SeededPropertyTest, CdfIsMonotoneOnRandomData) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 6000);
  std::vector<double> xs;
  const int count = rng.uniformInt(1, 200);
  for (int i = 0; i < count; ++i) xs.push_back(rng.normal(5.0, 10.0));
  const auto cdf = util::empiricalCdf(xs);
  ASSERT_EQ(cdf.size(), xs.size());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].cumulative, cdf[i].cumulative);
  }
  EXPECT_NEAR(cdf.back().cumulative, 1.0, 1e-12);
}

TEST_P(SeededPropertyTest, CircularMeanAndMedianAgreeOnTightClusters) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const double center = rng.uniform(0.0, 360.0);
  std::vector<double> degs;
  for (int i = 0; i < 50; ++i)
    degs.push_back(
        geometry::normalizeDeg(center + rng.normal(0.0, 4.0)));
  const double mean = geometry::circularMeanDeg(degs);
  const double median = geometry::circularMedianDeg(degs);
  EXPECT_LT(geometry::angularDistDeg(mean, median), 4.0);
  EXPECT_LT(geometry::angularDistDeg(mean, center), 4.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace moloc
