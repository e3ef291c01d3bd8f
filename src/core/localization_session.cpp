#include "core/localization_session.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "util/error.hpp"

namespace moloc::core {

namespace {

double checkStepLength(double stepLengthMeters) {
  if (stepLengthMeters <= 0.0)
    throw util::ConfigError(
        "LocalizationSession: step length must be positive");
  return stepLengthMeters;
}

}  // namespace

LocalizationSession::LocalizationSession(
    const radio::FingerprintDatabase& fingerprints,
    const MotionDatabase& motion, double stepLengthMeters,
    MoLocConfig config, sensors::MotionProcessorParams motionParams)
    : engine_(fingerprints, motion, config),
      processor_(motionParams),
      stepLengthMeters_(checkStepLength(stepLengthMeters)) {}

LocalizationSession::LocalizationSession(
    CandidateEstimator estimator,
    std::shared_ptr<const MotionDatabase> motion,
    double stepLengthMeters, MoLocConfig config,
    sensors::MotionProcessorParams motionParams)
    : engine_(std::move(estimator), std::move(motion), config),
      processor_(motionParams),
      stepLengthMeters_(checkStepLength(stepLengthMeters)) {}

LocationEstimate LocalizationSession::onScan(
    const radio::Fingerprint& scan,
    const sensors::ImuTrace& imuSinceLastScan) {
  lastMotion_ = imuSinceLastScan.empty()
                    ? std::nullopt
                    : processor_.process(imuSinceLastScan,
                                         stepLengthMeters_);
  return engine_.localize(scan, lastMotion_);
}

LocationEstimate LocalizationSession::onScanWithCandidates(
    std::span<const Candidate> candidates, std::exception_ptr scanError,
    const sensors::ImuTrace& imuSinceLastScan) {
  lastMotion_ = imuSinceLastScan.empty()
                    ? std::nullopt
                    : processor_.process(imuSinceLastScan,
                                         stepLengthMeters_);
  if (scanError) std::rethrow_exception(scanError);
  return engine_.localizeWithCandidates(candidates, lastMotion_);
}

}  // namespace moloc::core
