#include "core/localization_session.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "eval/experiment_world.hpp"

namespace moloc::core {
namespace {

TEST(LocalizationSession, RejectsBadStepLength) {
  radio::FingerprintDatabase fingerprints;
  fingerprints.addLocation(0, radio::Fingerprint({-40.0}));
  const MotionDatabase motion(1);
  EXPECT_THROW(LocalizationSession(fingerprints, motion, 0.0),
               std::invalid_argument);
  EXPECT_THROW(LocalizationSession(fingerprints, motion, -0.7),
               std::invalid_argument);
}

TEST(LocalizationSession, EmptyImuIsFingerprintOnly) {
  radio::FingerprintDatabase fingerprints;
  fingerprints.addLocation(0, radio::Fingerprint({-40.0, -70.0}));
  fingerprints.addLocation(1, radio::Fingerprint({-70.0, -40.0}));
  const MotionDatabase motion(2);
  LocalizationSession session(fingerprints, motion, 0.72);

  const auto fix = session.onScan(radio::Fingerprint({-41.0, -69.0}),
                                  sensors::ImuTrace(50.0));
  EXPECT_EQ(fix.location, 0);
  EXPECT_FALSE(session.lastMotion().has_value());
  EXPECT_TRUE(session.hasHistory());
}

TEST(LocalizationSession, EndToEndMatchesManualPipeline) {
  // Feeding the session raw trace data must reproduce exactly what the
  // manual MotionProcessor + MoLocEngine pipeline computes.
  eval::WorldConfig config;
  config.trainingTraces = 40;
  config.legsPerTrainingTrace = 15;
  eval::ExperimentWorld world(config);
  const auto& user = world.users().front();
  const auto trace = world.makeTrace(user, 6, world.evalRng());

  LocalizationSession session(world.fingerprintDb(), world.motionDb(),
                              user.estimatedStepLengthMeters(),
                              config.moloc, config.motionProc);
  auto engine = world.makeEngine();

  const auto sessionInitial =
      session.onScan(trace.initialScan, sensors::ImuTrace(50.0));
  const auto manualInitial = engine.localize(trace.initialScan,
                                             std::nullopt);
  EXPECT_EQ(sessionInitial.location, manualInitial.location);

  for (const auto& interval : trace.intervals) {
    const auto sessionFix =
        session.onScan(interval.scanAtArrival, interval.imu);
    const auto manualFix = engine.localize(
        interval.scanAtArrival, world.processInterval(interval, user));
    EXPECT_EQ(sessionFix.location, manualFix.location);
    EXPECT_EQ(sessionFix.probability, manualFix.probability);
  }
}

TEST(LocalizationSession, WalkingIntervalsReportMotion) {
  eval::WorldConfig config;
  config.trainingTraces = 40;
  config.legsPerTrainingTrace = 15;
  eval::ExperimentWorld world(config);
  const auto& user = world.users().front();
  const auto trace = world.makeTrace(user, 3, world.evalRng());

  LocalizationSession session(world.fingerprintDb(), world.motionDb(),
                              user.estimatedStepLengthMeters());
  session.onScan(trace.initialScan, sensors::ImuTrace(50.0));
  session.onScan(trace.intervals[0].scanAtArrival,
                 trace.intervals[0].imu);
  ASSERT_TRUE(session.lastMotion().has_value());
  EXPECT_GT(session.lastMotion()->offsetMeters, 1.0);
}

TEST(LocalizationSession, ResetForgetsHistory) {
  radio::FingerprintDatabase fingerprints;
  fingerprints.addLocation(0, radio::Fingerprint({-40.0}));
  const MotionDatabase motion(1);
  LocalizationSession session(fingerprints, motion, 0.72);
  session.onScan(radio::Fingerprint({-42.0}), sensors::ImuTrace(50.0));
  EXPECT_TRUE(session.hasHistory());
  session.reset();
  EXPECT_FALSE(session.hasHistory());
}

TEST(LocalizationSession, ProbabilisticBackendWorks) {
  radio::ProbabilisticFingerprintDatabase fingerprints;
  std::vector<radio::Fingerprint> near{radio::Fingerprint({-40.0, -70.0}),
                                       radio::Fingerprint({-42.0, -68.0}),
                                       radio::Fingerprint({-41.0, -71.0})};
  std::vector<radio::Fingerprint> far{radio::Fingerprint({-70.0, -40.0}),
                                      radio::Fingerprint({-68.0, -42.0}),
                                      radio::Fingerprint({-71.0, -41.0})};
  fingerprints.addLocation(0, near);
  fingerprints.addLocation(1, far);
  const auto adjacency = std::make_shared<const MotionDatabase>(2);
  const CandidateEstimator estimator(fingerprints,
                                     MoLocConfig{}.candidateCount);
  LocalizationSession session(estimator, adjacency, 0.72);
  const auto fix = session.onScan(radio::Fingerprint({-41.0, -69.0}),
                                  sensors::ImuTrace(50.0));
  EXPECT_EQ(fix.location, 0);
  EXPECT_THROW(LocalizationSession(estimator, adjacency, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace moloc::core
