#pragma once

/// Umbrella header: the full public API of the MoLoc library.
///
/// Downstream code can include individual headers for faster builds;
/// this header exists so a quick experiment is one include away:
///
///   #include "moloc.hpp"
///   moloc::eval::ExperimentWorld world({.apCount = 6});

// Utilities.
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// Geometry.
#include "geometry/angles.hpp"
#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"

// Environments.
#include "env/corridor_building.hpp"
#include "env/floor_plan.hpp"
#include "env/office_hall.hpp"
#include "env/site.hpp"
#include "env/walk_graph.hpp"

// Radio substrate.
#include "radio/access_point.hpp"
#include "radio/fingerprint.hpp"
#include "radio/fingerprint_database.hpp"
#include "radio/probabilistic_database.hpp"
#include "radio/propagation.hpp"
#include "radio/radio_environment.hpp"
#include "radio/site_survey.hpp"

// Sensor substrate.
#include "sensors/accelerometer_model.hpp"
#include "sensors/compass_calibrator.hpp"
#include "sensors/compass_model.hpp"
#include "sensors/gyroscope_model.hpp"
#include "sensors/heading_filter.hpp"
#include "sensors/imu_trace.hpp"
#include "sensors/motion_processor.hpp"
#include "sensors/step_counter.hpp"
#include "sensors/step_detector.hpp"
#include "sensors/step_length.hpp"
#include "sensors/walking_detector.hpp"

// Trajectories.
#include "traj/trace_simulator.hpp"
#include "traj/trajectory_generator.hpp"
#include "traj/user_profile.hpp"

// The MoLoc core.
#include "core/candidate_estimator.hpp"
#include "core/construction_methods.hpp"
#include "core/localization_session.hpp"
#include "core/moloc_engine.hpp"
#include "core/motion_database.hpp"
#include "core/motion_database_builder.hpp"
#include "core/motion_matcher.hpp"
#include "core/online_motion_database.hpp"
#include "core/trace_smoother.hpp"

// Baselines.
#include "baseline/dead_reckoning.hpp"
#include "baseline/hmm_localizer.hpp"
#include "baseline/knn_averaging.hpp"
#include "baseline/particle_filter.hpp"
#include "baseline/wifi_fingerprinting.hpp"

// Evaluation.
#include "eval/ambiguity.hpp"
#include "eval/ascii_map.hpp"
#include "eval/convergence.hpp"
#include "eval/error_stats.hpp"
#include "eval/experiment_world.hpp"

// Persistence.
#include "io/serialization.hpp"
#include "io/trace_io.hpp"

// Concurrent serving layer.
#include "service/localization_service.hpp"
