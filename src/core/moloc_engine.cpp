#include "core/moloc_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace moloc::core {

double LocationEstimate::normalizedEntropy() const {
  if (candidates.size() < 2) return 0.0;
  double entropy = 0.0;
  for (const auto& c : candidates)
    if (c.probability > 0.0)
      entropy -= c.probability * std::log(c.probability);
  return entropy / std::log(static_cast<double>(candidates.size()));
}

MoLocEngine::MoLocEngine(const radio::FingerprintDatabase& fingerprints,
                         const MotionDatabase& motion, MoLocConfig config)
    : estimator_(fingerprints, config.candidateCount),
      matcher_(std::make_shared<const MotionDatabase>(motion),
               config.matcher),
      config_(config) {
  initMetrics();
}

MoLocEngine::MoLocEngine(
    CandidateEstimator estimator,
    std::shared_ptr<const MotionDatabase> motion,
    MoLocConfig config)
    : estimator_(std::move(estimator)),
      matcher_(std::move(motion), config.matcher),
      config_(config) {
  initMetrics();
}

void MoLocEngine::initMetrics() {
  obs::MetricsRegistry* registry = config_.metrics;
  if (!registry) return;
  const std::string stageHelp =
      "Wall time of one engine pipeline stage per localization round";
  auto stageBounds = [] {
    return obs::Histogram::exponentialBuckets(1e-6, 2.0, 20);
  };
  stageFingerprint_ =
      &registry->histogram("moloc_engine_stage_seconds", stageHelp,
                           stageBounds(), {{"stage", "fingerprint"}});
  stageMotion_ =
      &registry->histogram("moloc_engine_stage_seconds", stageHelp,
                           stageBounds(), {{"stage", "motion"}});
  stageFusion_ =
      &registry->histogram("moloc_engine_stage_seconds", stageHelp,
                           stageBounds(), {{"stage", "fusion"}});
  candidateSetSize_ = &registry->histogram(
      "moloc_engine_candidates",
      "Candidate-set size the estimator yielded per round",
      obs::Histogram::linearBuckets(1.0, 1.0, 32));
}

LocationEstimate MoLocEngine::localize(
    const radio::Fingerprint& query,
    const std::optional<sensors::MotionMeasurement>& motion) {
  // Stage boundaries share timestamps where they can (5 tick reads per
  // round instead of three timers' 6), which is what keeps per-stage
  // timing cheap enough to leave enabled in serving builds.
  const bool timed = stageFingerprint_ != nullptr;
  const std::uint64_t t0 = timed ? obs::detail::ticksNow() : 0;
  estimator_.estimateInto(query, candidateScratch_);
  if (timed)
    stageFingerprint_->observe(
        obs::detail::ticksToSeconds(t0, obs::detail::ticksNow()));
  return fuse(candidateScratch_, motion);
}

LocationEstimate MoLocEngine::localizeWithCandidates(
    std::span<const Candidate> candidates,
    const std::optional<sensors::MotionMeasurement>& motion) {
  return fuse(candidates, motion);
}

LocationEstimate MoLocEngine::fuse(
    std::span<const Candidate> candidates,
    const std::optional<sensors::MotionMeasurement>& motion) {
  const bool timed = stageMotion_ != nullptr;
  const std::uint64_t t1 = timed ? obs::detail::ticksNow() : 0;
  if (candidateSetSize_)
    candidateSetSize_->observe(static_cast<double>(candidates.size()));

  // A candidate source that yields nothing means there is no basis for
  // a fix this round; report "no fix" and keep the retained set so a
  // transient outage does not erase history.
  if (candidates.empty()) return LocationEstimate{};

  std::vector<WeightedCandidate> scored;
  scored.reserve(candidates.size());

  // Defensive: non-finite motion (corrupt sensor data that slipped
  // through processing) degrades to a fingerprint-only update rather
  // than poisoning the posterior.
  const bool motionUsable = motion.has_value() &&
                            std::isfinite(motion->directionDeg) &&
                            std::isfinite(motion->offsetMeters);
  const bool useMotion = motionUsable && !previous_.empty();
  if (useMotion) {
    // Eq. 6 for the whole candidate set in one call, so the matcher's
    // batch-invariant work (adjacency sync, prior-mass sum, stationary
    // factor) runs once per round instead of once per candidate.
    motionIdScratch_.clear();
    motionIdScratch_.reserve(candidates.size());
    for (const auto& candidate : candidates)
      motionIdScratch_.push_back(candidate.location);
    matcher_.scoreCandidates(previous_, motionIdScratch_, *motion,
                             motionScoreScratch_);
  }
  double total = 0.0;
  // The motion stage covers candidate scoring even on fingerprint-only
  // rounds (the loop then degenerates to a copy), so its count matches
  // the fusion stage one-to-one.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double weight = candidates[i].probability;
    // Eq. 7 numerator: P(x=j|F) * P_{L',j}(d, o).
    if (useMotion) weight *= motionScoreScratch_[i];
    scored.push_back({candidates[i].location, weight});
    total += weight;
  }
  const std::uint64_t t2 = timed ? obs::detail::ticksNow() : 0;
  if (timed) stageMotion_->observe(obs::detail::ticksToSeconds(t1, t2));

  if (total <= 0.0) {
    // Every candidate's motion mass vanished (can only happen with a
    // zero floor); degrade to fingerprint-only ranking, as on a first
    // fix.
    scored.clear();
    for (const auto& candidate : candidates)
      scored.push_back({candidate.location, candidate.probability});
    total = 0.0;
    for (const auto& c : scored) total += c.probability;
  }

  if (total <= 0.0) {
    // Even the fingerprint term carries no mass (all candidate
    // probabilities underflowed to zero); dividing would produce NaN
    // posteriors.  A uniform posterior over the candidate set is the
    // honest maximum-entropy answer.
    const double uniform = 1.0 / static_cast<double>(scored.size());
    for (auto& c : scored) c.probability = uniform;
  } else {
    // Eq. 7 normalizer N.
    for (auto& c : scored) c.probability /= total;
  }

  LocationEstimate estimate = finalize(std::move(scored));
  if (timed)
    stageFusion_->observe(
        obs::detail::ticksToSeconds(t2, obs::detail::ticksNow()));
  return estimate;
}

LocationEstimate MoLocEngine::finalize(
    std::vector<WeightedCandidate> scored) {
  // Defensive twin of the localize() guard: an empty scored set must
  // yield the "no fix" estimate, never scored.front() UB.
  if (scored.empty()) return LocationEstimate{};

  std::sort(scored.begin(), scored.end(),
            [](const WeightedCandidate& a, const WeightedCandidate& b) {
              return a.probability > b.probability;
            });

  LocationEstimate estimate;
  estimate.location = scored.front().location;
  estimate.probability = scored.front().probability;
  estimate.candidates = scored;

  // "All these candidates are retained for localization next time."
  previous_ = std::move(scored);
  return estimate;
}

}  // namespace moloc::core
