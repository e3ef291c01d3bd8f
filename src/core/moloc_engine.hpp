#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/candidate_estimator.hpp"
#include "core/motion_database.hpp"
#include "core/motion_matcher.hpp"
#include "obs/metrics.hpp"
#include "radio/fingerprint_database.hpp"
#include "sensors/motion_processor.hpp"

namespace moloc::core {

/// Tunables of the localization engine (Sec. V).
struct MoLocConfig {
  std::size_t candidateCount = 12;  ///< k, the candidate set size.
  MotionMatcherParams matcher;
  /// Optional observability sink: a non-null registry receives the
  /// per-stage timers (`moloc_engine_stage_seconds{stage=...}`) and
  /// the candidate-set size distribution (`moloc_engine_candidates`).
  /// Metrics never influence estimates.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The engine's answer for one query: the top-ranked location plus the
/// full candidate set retained for the next round.
///
/// A default-constructed estimate is the well-defined "no fix" answer
/// (empty candidate set, zero probability) the engine returns when the
/// candidate source yields nothing; check hasFix() before consuming
/// `location`.
struct LocationEstimate {
  env::LocationId location = 0;
  double probability = 0.0;
  std::vector<WeightedCandidate> candidates;

  /// True when the engine produced a ranked answer this round.
  bool hasFix() const { return !candidates.empty(); }

  /// Shannon entropy of the posterior, normalized to [0, 1] by the
  /// maximum log(k): 0 = certain, 1 = uniform over the candidates.
  /// Applications use this as a confidence signal (e.g. suppress the
  /// position dot until the posterior sharpens).
  double normalizedEntropy() const;
};

/// The MoLoc localization engine (Fig. 2, right; Sec. V.C).
///
/// The first fix ranks candidates by fingerprint alone (Eq. 3-4); each
/// subsequent fix combines the new fingerprint's candidate probabilities
/// with the motion-matching probability from the retained previous
/// candidate set (Eq. 6) via the normalized independence product of
/// Eq. 7, and the posterior candidate set is carried forward.
///
/// When a localization interval carries no usable motion (the user stood
/// still, or step detection failed), `localize` falls back to the
/// fingerprint-only update but still refreshes the candidate set, so the
/// engine degrades to plain fingerprinting rather than stalling.
class MoLocEngine {
 public:
  /// The paper's deterministic candidate source over `fingerprints`,
  /// scoring motion on a private copy of `motion`.  The fingerprint
  /// database must outlive the engine.
  MoLocEngine(const radio::FingerprintDatabase& fingerprints,
              const MotionDatabase& motion, MoLocConfig config = {});

  /// The general form: any candidate source (e.g. the Horus-style
  /// probabilistic radio map, or the serving layer's tiered index)
  /// scoring motion on a shared motion database (e.g. a published
  /// WorldSnapshot's).  `config.candidateCount` is ignored in favour
  /// of the estimator's own k.  Throws std::invalid_argument on a null
  /// database.
  MoLocEngine(CandidateEstimator estimator,
              std::shared_ptr<const MotionDatabase> motion,
              MoLocConfig config = {});

  const MoLocConfig& config() const { return config_; }

  /// True once at least one fix has been produced since construction or
  /// the last reset().
  bool hasHistory() const { return !previous_.empty(); }

  /// Forgets the retained candidate set (start of a new walk).
  void reset() { previous_.clear(); }

  /// One localization round.  Pass the motion measured since the last
  /// round; pass nullopt for the first fix of a walk or when no motion
  /// was detected.
  LocationEstimate localize(
      const radio::Fingerprint& query,
      const std::optional<sensors::MotionMeasurement>& motion);

  /// Variant of localize() for a caller that already ran candidate
  /// estimation — e.g. the serving layer, which batches every scan in a
  /// localizeBatch() into one fingerprint-kernel invocation.
  /// `candidates` must be exactly what this engine's estimator would
  /// yield for the query; given that, the estimate is bitwise-identical
  /// to localize().  The fingerprint stage timer is not observed here
  /// (that work happened in the caller); the candidate-set size and the
  /// motion/fusion stages are.
  LocationEstimate localizeWithCandidates(
      std::span<const Candidate> candidates,
      const std::optional<sensors::MotionMeasurement>& motion);

  /// The retained candidate set (posterior of the last fix).
  std::span<const WeightedCandidate> retainedCandidates() const {
    return previous_;
  }

  /// Swaps the motion matcher onto a newer motion database (a freshly
  /// published WorldSnapshot's).  Retained candidates survive —
  /// the next fix scores them against the new motion world.  Callers
  /// serialize this with localize() on the same engine (the serving
  /// layer's per-session lock does).  Throws on null.
  void rebindMotion(std::shared_ptr<const MotionDatabase> adjacency) {
    matcher_.rebind(std::move(adjacency));
  }

  /// The motion database the matcher currently scores against.
  const std::shared_ptr<const MotionDatabase>& motionAdjacency() const {
    return matcher_.adjacencyPtr();
  }

 private:
  /// Shared back half of localize()/localizeWithCandidates(): motion
  /// scoring (Eq. 5-6 via the matcher's batch path), Eq. 7 fusion, and
  /// ranking for one already-estimated candidate set.
  LocationEstimate fuse(std::span<const Candidate> candidates,
                        const std::optional<sensors::MotionMeasurement>& motion);

  LocationEstimate finalize(std::vector<WeightedCandidate> scored);

  /// Registers the Eq. 1-7 pipeline instruments when config_.metrics
  /// is set (called from every constructor).
  void initMetrics();

  CandidateEstimator estimator_;
  MotionMatcher matcher_;
  MoLocConfig config_;
  std::vector<WeightedCandidate> previous_;
  /// Reused across localize() rounds so the per-query candidate list
  /// does not allocate on the serving hot path.
  std::vector<Candidate> candidateScratch_;
  /// Scratch for the batched Eq. 6 call (candidate ids in, scores out);
  /// reused across rounds for the same reason.
  std::vector<env::LocationId> motionIdScratch_;
  std::vector<double> motionScoreScratch_;

  obs::Histogram* stageFingerprint_ = nullptr;  ///< Eq. 3-4 matching.
  obs::Histogram* stageMotion_ = nullptr;       ///< Eq. 5-6 scoring.
  obs::Histogram* stageFusion_ = nullptr;       ///< Eq. 7 + ranking.
  obs::Histogram* candidateSetSize_ = nullptr;
};

}  // namespace moloc::core
