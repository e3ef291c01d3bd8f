#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/moloc_engine.hpp"
#include "core/motion_database.hpp"
#include "core/online_motion_database.hpp"
#include "env/office_hall.hpp"
#include "eval/error_stats.hpp"
#include "radio/fingerprint_database.hpp"
#include "radio/radio_environment.hpp"
#include "radio/site_survey.hpp"
#include "sensors/motion_processor.hpp"
#include "traj/trace_simulator.hpp"
#include "traj/trajectory_generator.hpp"
#include "traj/user_profile.hpp"
#include "util/rng.hpp"

namespace moloc::eval {

/// Everything needed to stand up the paper's experiment (Sec. VI.A) in
/// one object: the office hall, the radio environment with the chosen
/// AP count, the surveyed fingerprint database, and a motion database
/// crowdsourced from simulated training walks.
struct WorldConfig {
  int apCount = 6;            ///< 4, 5 or 6 in the paper.
  std::uint64_t seed = 42;    ///< Master seed; everything derives.
  radio::PropagationParams propagation;
  radio::SurveyConfig survey;
  traj::TraceSimulatorParams traceSim;
  sensors::MotionProcessorParams motionProc;
  core::BuilderConfig builder;
  core::MoLocConfig moloc;
  int trainingTraces = 150;       ///< Paper: 150 training walks.
  int legsPerTrainingTrace = 20;  ///< Aisle legs per training walk.
  /// The paper's trace-driven protocol (Sec. VI.A): instead of fresh
  /// radio-model draws, walkers' scans replay held-out site-survey
  /// samples — the `motionEstimate` partition during motion-DB
  /// training and the `test` partition during evaluation, cycling
  /// within each location.
  bool replayHeldOutScans = false;
  /// Map-aided compass calibration (the Zee fallback): estimate each
  /// user's constant heading bias from the training legs and subtract
  /// it from training observations and evaluation-time measurements.
  bool calibrateCompass = false;
  /// Overrides every user's placement bias (degrees); models a cohort
  /// without a placement-correcting front end.
  double userPlacementBiasDeg = 0.0;
};

class ExperimentWorld {
 public:
  /// The paper's office hall.
  explicit ExperimentWorld(WorldConfig config = {});

  /// Any other deployment site (e.g. env::makeCorridorBuilding()).
  /// `config.apCount` indexes into the site's AP positions.
  ExperimentWorld(env::Site site, WorldConfig config);

  const WorldConfig& config() const { return config_; }
  const env::OfficeHall& hall() const { return hall_; }
  const radio::RadioEnvironment& radio() const { return *radio_; }
  const radio::FingerprintDatabase& fingerprintDb() const {
    return fingerprintDb_;
  }
  const core::MotionDatabase& motionDb() const { return motionDb_; }
  /// The sanitation report of the intake that built motionDb().
  const core::BuilderReport& builderReport() const {
    return builderReport_;
  }
  const std::vector<traj::UserProfile>& users() const { return users_; }

  /// The RNG stream for evaluation-time draws (test traces); training
  /// used an independent stream, so adding test work never perturbs the
  /// trained databases.
  util::Rng& evalRng() { return evalRng_; }

  /// Simulates one walk of `numLegs` aisle legs by `user` from a random
  /// start.
  traj::Trace makeTrace(const traj::UserProfile& user, int numLegs,
                        util::Rng& rng) const;

  /// Runs the motion processing unit on one interval of a trace.
  std::optional<sensors::MotionMeasurement> processInterval(
      const traj::LocalizationInterval& interval,
      const traj::UserProfile& user) const;

  /// A fresh MoLoc engine bound to this world's databases.
  core::MoLocEngine makeEngine() const;

  /// The calibrated heading-bias correction for `user` (degrees); 0
  /// when calibration is disabled or the user is unknown.
  double compassBiasCorrectionDeg(const traj::UserProfile& user) const;

  /// Euclidean distance between two reference locations (metres).
  double locationDistance(env::LocationId a, env::LocationId b) const;

 private:
  void buildMotionDatabase(util::Rng& trainingRng);

  WorldConfig config_;
  env::OfficeHall hall_;
  std::unique_ptr<radio::RadioEnvironment> radio_;
  radio::SurveyData surveyData_;
  radio::FingerprintDatabase fingerprintDb_;
  core::MotionDatabase motionDb_;
  core::BuilderReport builderReport_;
  std::vector<traj::UserProfile> users_;
  std::vector<double> userBiasCorrections_;  ///< Parallel to users_.
  std::unique_ptr<traj::TraceSimulator> traceSim_;
  std::unique_ptr<traj::TrajectoryGenerator> trajectories_;
  util::Rng evalRng_;
};

/// Paired per-interval outcomes of MoLoc and the WiFi baseline on one
/// test walk.  The first entry is the initial fix at the walk's start.
struct ComparisonOutcome {
  std::vector<LocalizationRecord> moloc;
  std::vector<LocalizationRecord> wifi;
};

/// Runs `numTraces` test walks (users cycled round-robin) through both
/// MoLoc and the WiFi baseline and returns the paired records.
std::vector<ComparisonOutcome> runComparison(ExperimentWorld& world,
                                             int numTraces,
                                             int legsPerTrace);

}  // namespace moloc::eval
