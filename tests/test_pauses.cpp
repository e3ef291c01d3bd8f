// Lingering users: pause-aware trajectories, idle intervals in the
// trace simulator, and the engine's graceful handling of scans without
// motion — end to end.

#include <gtest/gtest.h>

#include "eval/experiment_world.hpp"
#include "traj/trajectory_generator.hpp"

namespace moloc {
namespace {

TEST(Pauses, TrajectoryCanRepeatNodes) {
  const auto hall = env::makeOfficeHall();
  traj::TrajectoryParams params;
  params.pauseProbability = 0.5;
  const traj::TrajectoryGenerator gen(hall.graph, params);
  util::Rng rng(1);
  const auto walk = gen.randomWalk(0, 200, rng);
  int pauses = 0;
  for (std::size_t i = 1; i < walk.size(); ++i)
    if (walk[i] == walk[i - 1]) ++pauses;
  EXPECT_GT(pauses, 50);
  EXPECT_LT(pauses, 150);
  // Non-pause steps remain graph legs.
  for (std::size_t i = 1; i < walk.size(); ++i)
    if (walk[i] != walk[i - 1]) {
      EXPECT_TRUE(hall.graph.adjacent(walk[i - 1], walk[i]));
    }
}

TEST(Pauses, ZeroProbabilityNeverPauses) {
  const auto hall = env::makeOfficeHall();
  const traj::TrajectoryGenerator gen(hall.graph);  // Default 0.
  util::Rng rng(2);
  const auto walk = gen.randomWalk(0, 200, rng);
  for (std::size_t i = 1; i < walk.size(); ++i)
    EXPECT_NE(walk[i], walk[i - 1]);
}

class PauseTraceTest : public ::testing::Test {
 protected:
  PauseTraceTest() {
    radio_ = std::make_unique<radio::RadioEnvironment>(
        hall_.plan,
        std::vector<radio::AccessPoint>{{0, hall_.apPositions[0]},
                                        {1, hall_.apPositions[3]}},
        radio::PropagationParams{});
    sim_ = std::make_unique<traj::TraceSimulator>(*radio_, hall_.graph);
  }

  env::OfficeHall hall_ = env::makeOfficeHall();
  std::unique_ptr<radio::RadioEnvironment> radio_;
  std::unique_ptr<traj::TraceSimulator> sim_;
  traj::UserProfile user_ = traj::makeDefaultUsers().front();
};

TEST_F(PauseTraceTest, IdleIntervalHasZeroOffsetTruth) {
  util::Rng rng(3);
  const auto trace = sim_->simulate(user_, {0, 1, 1, 2}, rng);
  ASSERT_EQ(trace.intervals.size(), 3u);
  EXPECT_EQ(trace.intervals[1].fromTruth, 1);
  EXPECT_EQ(trace.intervals[1].toTruth, 1);
  EXPECT_EQ(trace.intervals[1].trueOffsetMeters, 0.0);
  // Pause duration matches the configured interval.
  EXPECT_NEAR(trace.intervals[1].imu.duration(), 3.0, 0.1);
}

TEST_F(PauseTraceTest, IdleIntervalYieldsStationaryMeasurement) {
  util::Rng rng(4);
  const auto trace = sim_->simulate(user_, {0, 1, 1, 2}, rng);
  const sensors::MotionProcessor processor;
  const auto idle = processor.process(trace.intervals[1].imu,
                                      user_.estimatedStepLengthMeters());
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(idle->offsetMeters, 0.0);
  // The walking intervals produce genuine offsets.
  const auto walking = processor.process(
      trace.intervals[0].imu, user_.estimatedStepLengthMeters());
  ASSERT_TRUE(walking.has_value());
  EXPECT_GT(walking->offsetMeters, 1.0);
}

TEST_F(PauseTraceTest, PauseOnlyRouteWorks) {
  util::Rng rng(5);
  const auto trace = sim_->simulate(user_, {7, 7, 7}, rng);
  EXPECT_EQ(trace.intervals.size(), 2u);
  for (const auto& interval : trace.intervals) {
    EXPECT_EQ(interval.fromTruth, 7);
    EXPECT_EQ(interval.toTruth, 7);
  }
}

TEST(Pauses, EngineStaysAccurateThroughPauses) {
  // End to end: walks with frequent pauses still localize well — the
  // engine degrades to fingerprint updates during idle intervals and
  // keeps its candidate set.
  eval::WorldConfig config;  // Paper-scale training.
  eval::ExperimentWorld world(config);

  const auto& hall = world.hall();
  traj::TrajectoryParams pausey;
  pausey.pauseProbability = 0.3;
  const traj::TrajectoryGenerator gen(hall.graph, pausey);

  // Rebuild a simulator against the world's radio (same params).
  traj::TraceSimulator sim(world.radio(), hall.graph,
                           world.config().traceSim);

  auto engine = world.makeEngine();
  eval::ErrorStats stats;
  for (int t = 0; t < 10; ++t) {
    const auto& user =
        world.users()[static_cast<std::size_t>(t) % world.users().size()];
    const auto route = gen.randomWalk(12, world.evalRng());
    const auto trace = sim.simulate(user, route, world.evalRng());
    engine.reset();
    engine.localize(trace.initialScan, std::nullopt);
    for (const auto& interval : trace.intervals) {
      const auto motion = world.processInterval(interval, user);
      const auto fix = engine.localize(interval.scanAtArrival, motion);
      stats.add({fix.location, interval.toTruth,
                 world.locationDistance(fix.location, interval.toTruth)});
    }
  }
  EXPECT_GT(stats.accuracy(), 0.7);
}

}  // namespace
}  // namespace moloc
