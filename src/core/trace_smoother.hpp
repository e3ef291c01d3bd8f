#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/candidate_estimator.hpp"
#include "core/motion_database.hpp"
#include "core/motion_matcher.hpp"
#include "core/moloc_engine.hpp"

namespace moloc::core {

/// Offline maximum-likelihood smoothing of a whole walk.
///
/// The MoLoc engine is causal: each fix sees only past measurements, so
/// an erroneous *initial* fix costs a few steps to shake off (the EL
/// metric of the paper's Table I).  When the whole walk is available —
/// on a crowdsourcing server, or for post-hoc analytics — a Viterbi
/// pass over the same two models (Eq. 4 fingerprint probabilities as
/// emissions, Eq. 5 motion probabilities as transitions) finds the
/// jointly most likely location sequence, fixing early errors
/// retroactively from later evidence.
class TraceSmoother {
 public:
  /// The radio map must outlive the smoother (the motion database is
  /// copied); `config` carries the same k / alpha / beta knobs the
  /// engine uses.
  TraceSmoother(const radio::FingerprintDatabase& fingerprints,
                const MotionDatabase& motion, MoLocConfig config = {});

  /// The max-likelihood location sequence for a walk of n scans and
  /// n-1 inter-scan motion measurements (nullopt entries mean "no
  /// usable motion" and contribute uninformative transitions).
  ///
  /// Returns one location per scan.  Throws std::invalid_argument when
  /// `motions.size() + 1 != scans.size()` or scans is empty.
  std::vector<env::LocationId> smooth(
      std::span<const radio::Fingerprint> scans,
      std::span<const std::optional<sensors::MotionMeasurement>> motions)
      const;

 private:
  CandidateEstimator estimator_;
  MotionMatcher matcher_;
  MoLocConfig config_;
};

}  // namespace moloc::core
