#pragma once

#include <exception>
#include <memory>
#include <span>

#include "core/moloc_engine.hpp"
#include "sensors/imu_trace.hpp"
#include "sensors/motion_processor.hpp"

namespace moloc::core {

/// The phone-side facade: one object per tracked user that accepts
/// exactly what the handset produces — a WiFi scan plus the raw IMU
/// recording since the previous scan — and runs the full MoLoc
/// pipeline (motion processing unit -> candidate estimation -> motion
/// matching -> Eq. 7 evaluation) internally.
///
/// Use MoLocEngine directly when the (direction, offset) measurements
/// come from elsewhere; use this when feeding raw sensor data.
class LocalizationSession {
 public:
  /// `stepLengthMeters` is the user's estimated step length (from the
  /// profile height/weight; see sensors::estimateStepLength).  Must be
  /// positive (throws std::invalid_argument).  The fingerprint
  /// database must outlive the session; `motion` is copied.
  LocalizationSession(const radio::FingerprintDatabase& fingerprints,
                      const MotionDatabase& motion,
                      double stepLengthMeters, MoLocConfig config = {},
                      sensors::MotionProcessorParams motionParams = {});

  /// The general form (see MoLocEngine's): any candidate source over
  /// a shared motion database — how the serving layer builds
  /// a session on its current world without copying anything
  /// venue-sized.  `config.candidateCount` is ignored in favour of the
  /// estimator's own k.  Whatever the estimator captures must outlive
  /// the session.
  LocalizationSession(CandidateEstimator estimator,
                      std::shared_ptr<const MotionDatabase> motion,
                      double stepLengthMeters, MoLocConfig config = {},
                      sensors::MotionProcessorParams motionParams = {});

  /// One localization round: the scan just taken and the IMU recording
  /// covering the interval since the last round (pass an empty trace
  /// for the first fix).  Standing still or undetectable walking
  /// degrades to a fingerprint-only update automatically.
  LocationEstimate onScan(const radio::Fingerprint& scan,
                          const sensors::ImuTrace& imuSinceLastScan);

  /// Variant of onScan() for a caller that already matched the scan
  /// against the radio map (the serving layer's batched fingerprint
  /// kernel): `candidates` must be exactly what this session's engine
  /// would compute for the scan, and the estimate is then
  /// bitwise-identical to onScan().  `scanError`, when non-null, is the
  /// exception the scan's precomputed match raised; it is rethrown
  /// after motion processing — the same point at which onScan() would
  /// have raised it — so failure ordering matches the unbatched path.
  LocationEstimate onScanWithCandidates(
      std::span<const Candidate> candidates, std::exception_ptr scanError,
      const sensors::ImuTrace& imuSinceLastScan);

  /// Starts a new walk (forgets retained candidates).
  void reset() { engine_.reset(); }

  /// Adopts a newer motion world (a published WorldSnapshot's motion
  /// database) without disturbing the walk in progress.  Serialized by
  /// the caller against onScan* on the same session — the serving
  /// layer's per-session slot lock covers both.  Throws on null.
  void rebindMotion(std::shared_ptr<const MotionDatabase> adjacency) {
    engine_.rebindMotion(std::move(adjacency));
  }

  /// The motion database the session currently scores against
  /// (identity comparisons drive snapshot adoption in the service).
  const std::shared_ptr<const MotionDatabase>& motionAdjacency() const {
    return engine_.motionAdjacency();
  }

  bool hasHistory() const { return engine_.hasHistory(); }

  /// The motion measurement extracted in the most recent onScan, if
  /// walking was detected (diagnostics).
  const std::optional<sensors::MotionMeasurement>& lastMotion() const {
    return lastMotion_;
  }

 private:
  MoLocEngine engine_;
  sensors::MotionProcessor processor_;
  double stepLengthMeters_;
  std::optional<sensors::MotionMeasurement> lastMotion_;
};

}  // namespace moloc::core
