#include "eval/experiment_world.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "baseline/wifi_fingerprinting.hpp"
#include "core/online_motion_database.hpp"
#include "geometry/angles.hpp"
#include "sensors/compass_calibrator.hpp"
#include "util/error.hpp"

namespace moloc::eval {

namespace {

/// A replay provider cycling through one sample partition per location
/// (the paper's trace-driven protocol).  The shared cursor state makes
/// consecutive visits to a location see different held-out samples.
traj::ScanProvider makeReplayProvider(
    const radio::SurveyData& survey,
    std::vector<radio::Fingerprint> radio::LocationSamples::*partition) {
  auto cursors =
      std::make_shared<std::vector<std::size_t>>(survey.samples.size(), 0);
  return [&survey, partition, cursors](
             env::LocationId location, double /*orientationDeg*/,
             util::Rng& /*rng*/) -> radio::Fingerprint {
    const auto& samples =
        survey.samples.at(static_cast<std::size_t>(location)).*partition;
    if (samples.empty())
      throw util::StateError(
          "ExperimentWorld: replay partition is empty");
    auto& cursor = (*cursors)[static_cast<std::size_t>(location)];
    const auto& sample = samples[cursor % samples.size()];
    ++cursor;
    return sample;
  };
}

}  // namespace

ExperimentWorld::ExperimentWorld(WorldConfig config)
    : ExperimentWorld(env::makeOfficeHall(), config) {}

ExperimentWorld::ExperimentWorld(env::Site site, WorldConfig config)
    : config_(config), hall_(std::move(site)), evalRng_(0) {
  if (config_.apCount < 1 ||
      static_cast<std::size_t>(config_.apCount) >
          hall_.apPositions.size())
    throw util::ConfigError("ExperimentWorld: bad AP count");

  // Independent derived streams: survey, motion training, evaluation.
  util::Rng master(config_.seed);
  util::Rng surveyRng = master.split();
  util::Rng trainingRng = master.split();
  evalRng_ = master.split();

  std::vector<radio::AccessPoint> aps;
  for (int i = 0; i < config_.apCount; ++i)
    aps.push_back({i, hall_.apPositions[static_cast<std::size_t>(i)]});
  radio_ = std::make_unique<radio::RadioEnvironment>(
      hall_.plan, std::move(aps), config_.propagation);

  surveyData_ = radio::conductSurvey(*radio_, config_.survey, surveyRng);
  fingerprintDb_ = surveyData_.buildDatabase();

  users_ = traj::makeDefaultUsers();
  if (config_.userPlacementBiasDeg != 0.0)
    for (auto& user : users_)
      user.placementBiasDeg = config_.userPlacementBiasDeg;
  userBiasCorrections_.assign(users_.size(), 0.0);
  traceSim_ = std::make_unique<traj::TraceSimulator>(*radio_, hall_.graph,
                                                     config_.traceSim);
  trajectories_ =
      std::make_unique<traj::TrajectoryGenerator>(hall_.graph);

  if (config_.replayHeldOutScans)
    traceSim_->setScanProvider(makeReplayProvider(
        surveyData_, &radio::LocationSamples::motionEstimate));

  buildMotionDatabase(trainingRng);

  if (config_.replayHeldOutScans)
    traceSim_->setScanProvider(
        makeReplayProvider(surveyData_, &radio::LocationSamples::test));
}

void ExperimentWorld::buildMotionDatabase(util::Rng& trainingRng) {
  const sensors::MotionProcessor processor(config_.motionProc);
  const baseline::WifiFingerprinting wifi(fingerprintDb_);

  // Crowdsourcing (Sec. IV.B): the walker's phone self-localizes by
  // plain fingerprinting at each interval boundary and logs the RLM
  // measured in between.  Observations are collected first so the
  // optional compass calibration can run before the database is built.
  struct Observation {
    std::size_t userIndex;
    env::LocationId estimatedStart;
    env::LocationId estimatedEnd;
    double directionDeg;
    double offsetMeters;
  };
  std::vector<Observation> observations;

  for (int t = 0; t < config_.trainingTraces; ++t) {
    const auto userIndex = static_cast<std::size_t>(t) % users_.size();
    const auto& user = users_[userIndex];
    const auto route = trajectories_->randomWalk(
        config_.legsPerTrainingTrace, trainingRng);
    const auto trace = traceSim_->simulate(user, route, trainingRng);

    env::LocationId estimatedStart = wifi.localize(trace.initialScan);
    for (const auto& interval : trace.intervals) {
      const env::LocationId estimatedEnd =
          wifi.localize(interval.scanAtArrival);
      const auto motion = processor.process(
          interval.imu, user.estimatedStepLengthMeters());
      if (motion)
        observations.push_back({userIndex, estimatedStart, estimatedEnd,
                                motion->directionDeg,
                                motion->offsetMeters});
      estimatedStart = estimatedEnd;
    }
  }

  if (config_.calibrateCompass) {
    // Map-aided calibration: legs whose estimated endpoints are
    // map-adjacent vote for each user's constant heading bias; the
    // robust (median) estimate resists mis-estimated legs.
    std::vector<sensors::CompassCalibrator> calibrators(users_.size());
    for (const auto& obs : observations) {
      const auto rlm =
          hall_.graph.groundTruthRlm(obs.estimatedStart, obs.estimatedEnd);
      if (!rlm) continue;
      calibrators[obs.userIndex].addLeg(obs.directionDeg,
                                        rlm->directionDeg);
    }
    for (std::size_t u = 0; u < users_.size(); ++u)
      userBiasCorrections_[u] = calibrators[u].robustBiasDeg();
  }

  // Reservoirs sized to the whole campaign never evict, so the RNG is
  // never drawn and every entry is the fit of all of its pair's
  // surviving observations.
  core::OnlineMotionDatabase intake(
      hall_.plan.positions(), config_.builder,
      std::max(observations.size(),
               static_cast<std::size_t>(
                   std::max(config_.builder.minSamplesPerPair, 1))));
  for (const auto& obs : observations)
    intake.addObservation(
        obs.estimatedStart, obs.estimatedEnd,
        obs.directionDeg - userBiasCorrections_[obs.userIndex],
        obs.offsetMeters);
  motionDb_ = intake.database();
  builderReport_ = intake.report();
}

traj::Trace ExperimentWorld::makeTrace(const traj::UserProfile& user,
                                       int numLegs, util::Rng& rng) const {
  const auto route = trajectories_->randomWalk(numLegs, rng);
  return traceSim_->simulate(user, route, rng);
}

std::optional<sensors::MotionMeasurement> ExperimentWorld::processInterval(
    const traj::LocalizationInterval& interval,
    const traj::UserProfile& user) const {
  const sensors::MotionProcessor processor(config_.motionProc);
  auto motion =
      processor.process(interval.imu, user.estimatedStepLengthMeters());
  if (motion) {
    const double correction = compassBiasCorrectionDeg(user);
    if (correction != 0.0)
      motion->directionDeg =
          geometry::normalizeDeg(motion->directionDeg - correction);
  }
  return motion;
}

double ExperimentWorld::compassBiasCorrectionDeg(
    const traj::UserProfile& user) const {
  for (std::size_t u = 0; u < users_.size(); ++u)
    if (users_[u].name == user.name) return userBiasCorrections_[u];
  return 0.0;
}

core::MoLocEngine ExperimentWorld::makeEngine() const {
  return core::MoLocEngine(fingerprintDb_, motionDb_, config_.moloc);
}

double ExperimentWorld::locationDistance(env::LocationId a,
                                         env::LocationId b) const {
  return geometry::distance(hall_.plan.location(a).pos,
                            hall_.plan.location(b).pos);
}

std::vector<ComparisonOutcome> runComparison(ExperimentWorld& world,
                                             int numTraces,
                                             int legsPerTrace) {
  std::vector<ComparisonOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(numTraces));

  const baseline::WifiFingerprinting wifi(world.fingerprintDb());
  auto engine = world.makeEngine();
  const auto& users = world.users();

  for (int t = 0; t < numTraces; ++t) {
    const auto& user = users[static_cast<std::size_t>(t) % users.size()];
    const auto trace = world.makeTrace(user, legsPerTrace, world.evalRng());

    ComparisonOutcome outcome;
    engine.reset();

    auto record = [&world](env::LocationId estimated,
                           env::LocationId truth) {
      return LocalizationRecord{estimated, truth,
                                world.locationDistance(estimated, truth)};
    };

    // Initial fix at the walk's start (no motion yet).
    const auto initial = engine.localize(trace.initialScan, std::nullopt);
    outcome.moloc.push_back(record(initial.location, trace.startTruth));
    outcome.wifi.push_back(
        record(wifi.localize(trace.initialScan), trace.startTruth));

    for (const auto& interval : trace.intervals) {
      const auto motion = world.processInterval(interval, user);
      const auto estimate = engine.localize(interval.scanAtArrival, motion);
      outcome.moloc.push_back(record(estimate.location, interval.toTruth));
      outcome.wifi.push_back(
          record(wifi.localize(interval.scanAtArrival), interval.toTruth));
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace moloc::eval
