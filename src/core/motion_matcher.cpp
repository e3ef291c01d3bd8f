#include "core/motion_matcher.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geometry/angles.hpp"
#include "util/error.hpp"

namespace moloc::core {

double gaussianWindowProbability(double x, double halfWidth, double mu,
                                 double sigma) {
  if (kernel::degenerateSigma(sigma))
    return std::abs(x - mu) <= halfWidth ? 1.0 : 0.0;
  return kernel::windowMass(x, halfWidth, mu,
                            1.0 / (sigma * kernel::kSqrt2));
}

double circularGaussianWindowProbability(double deviationDeg,
                                         double halfWidthDeg,
                                         double sigmaDeg) {
  if (kernel::degenerateSigma(sigmaDeg))
    return std::abs(deviationDeg) <= halfWidthDeg ? 1.0 : 0.0;
  return kernel::circularWindowMass(deviationDeg, halfWidthDeg,
                                    1.0 / (sigmaDeg * kernel::kSqrt2));
}

MotionMatcher::MotionMatcher(std::shared_ptr<const MotionDatabase> db,
                             MotionMatcherParams params)
    : adj_(std::move(db)), params_(params) {
  if (!adj_) throw util::ConfigError("MotionMatcher: null database");
}

void MotionMatcher::rebind(std::shared_ptr<const MotionDatabase> db) {
  if (!db) throw util::ConfigError("MotionMatcher::rebind: null database");
  adj_ = std::move(db);
}

double MotionMatcher::directionFactor(const RlmStats& stats,
                                      double directionDeg) const {
  // Integrate the wrapped deviation from the stored circular mean over
  // a window of width alpha centred on the measurement, clamped to the
  // circle so the factor never exceeds valid circular probability mass.
  const double deviation =
      geometry::signedAngularDiffDeg(stats.muDirectionDeg, directionDeg);
  return circularGaussianWindowProbability(deviation, params_.alphaDeg / 2.0,
                                           stats.sigmaDirectionDeg);
}

double MotionMatcher::offsetFactor(const RlmStats& stats,
                                   double offsetMeters) const {
  return gaussianWindowProbability(offsetMeters, params_.betaMeters / 2.0,
                                   stats.muOffsetMeters,
                                   stats.sigmaOffsetMeters);
}

double MotionMatcher::windowDirectionFactor(const kernel::PairWindow& w,
                                            double directionDeg) const {
  const double deviation =
      geometry::signedAngularDiffDeg(w.muDirectionDeg, directionDeg);
  if (kernel::degenerateSigma(w.sigmaDirectionDeg))
    return std::abs(deviation) <= params_.alphaDeg / 2.0 ? 1.0 : 0.0;
  return kernel::circularWindowMass(deviation, params_.alphaDeg / 2.0,
                                    w.invSqrt2SigmaDir);
}

double MotionMatcher::windowOffsetFactor(const kernel::PairWindow& w,
                                         double offsetMeters) const {
  if (kernel::degenerateSigma(w.sigmaOffsetMeters))
    return std::abs(offsetMeters - w.muOffsetMeters) <=
                   params_.betaMeters / 2.0
               ? 1.0
               : 0.0;
  return kernel::windowMass(offsetMeters, params_.betaMeters / 2.0,
                            w.muOffsetMeters, w.invSqrt2SigmaOff);
}

double MotionMatcher::stationaryProbability(
    const sensors::MotionMeasurement& motion) const {
  // Staying put: any direction is equally (un)informative; the offset
  // should be near zero up to sensor noise.  Capped at 1: an alpha
  // wider than the circle still covers at most the whole circle.
  const double directionFactorStationary =
      std::min(params_.alphaDeg / 360.0, 1.0);
  const double offsetFactorStationary = gaussianWindowProbability(
      motion.offsetMeters, params_.betaMeters / 2.0, 0.0,
      params_.stationarySigmaMeters);
  return std::max(directionFactorStationary * offsetFactorStationary,
                  params_.unreachableFloor);
}

double MotionMatcher::pairProbability(
    env::LocationId i, env::LocationId j,
    const sensors::MotionMeasurement& motion) const {
  // find() rejects bad ids, the stationary pair's included.  The
  // window path is bitwise-identical to the RlmStats path (same
  // precomputed 1/(sigma*sqrt(2)) expression; pinned by
  // MotionMatcherKernelTest).
  const kernel::PairWindow* w = adj_->find(i, j);
  if (i == j) {
    if (!params_.allowStationary) return params_.unreachableFloor;
    return stationaryProbability(motion);
  }
  if (!w) return params_.unreachableFloor;
  const double p = windowDirectionFactor(*w, motion.directionDeg) *
                   windowOffsetFactor(*w, motion.offsetMeters);
  return std::max(p, params_.unreachableFloor);
}

double MotionMatcher::scoreOne(std::span<const WeightedCandidate> prev,
                               env::LocationId j,
                               const sensors::MotionMeasurement& motion,
                               double stationaryP, double totalPrior) const {
  double acc = 0.0;      // mass scored through an explicit model
  double covered = 0.0;  // prior mass behind those terms
  for (const auto& candidate : prev) {
    if (candidate.location == j) {
      if (params_.allowStationary) {
        acc += candidate.probability * stationaryP;
        covered += candidate.probability;
      }
      continue;
    }
    if (const kernel::PairWindow* w = adj_->find(candidate.location, j)) {
      const double p = windowDirectionFactor(*w, motion.directionDeg) *
                       windowOffsetFactor(*w, motion.offsetMeters);
      acc += candidate.probability * std::max(p, params_.unreachableFloor);
      covered += candidate.probability;
    }
  }
  // Every unit of prior mass not covered by a stored pair (or the
  // stationary model) contributes exactly the floor, so one multiply
  // replaces the dense scan's per-pair floor additions.  When all mass
  // is covered, `covered` sums the same terms in the same order as
  // `totalPrior` and the correction is exactly zero.
  return acc + params_.unreachableFloor * (totalPrior - covered);
}

double MotionMatcher::setProbability(
    std::span<const WeightedCandidate> previousCandidates,
    env::LocationId j, const sensors::MotionMeasurement& motion) const {
  double totalPrior = 0.0;
  for (const auto& candidate : previousCandidates)
    totalPrior += candidate.probability;
  return scoreOne(previousCandidates, j, motion,
                  stationaryProbability(motion), totalPrior);
}

void MotionMatcher::scoreCandidates(
    std::span<const WeightedCandidate> previousCandidates,
    std::span<const env::LocationId> candidates,
    const sensors::MotionMeasurement& motion,
    std::vector<double>& out) const {
  double totalPrior = 0.0;
  for (const auto& candidate : previousCandidates)
    totalPrior += candidate.probability;
  const double stationaryP = stationaryProbability(motion);
  out.clear();
  out.reserve(candidates.size());
  for (const env::LocationId j : candidates)
    out.push_back(
        scoreOne(previousCandidates, j, motion, stationaryP, totalPrior));
}

}  // namespace moloc::core
