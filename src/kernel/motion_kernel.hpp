#pragma once

#include <cmath>
#include <cstdint>

#include "env/floor_plan.hpp"

namespace moloc::kernel {

/// sqrt(2), hoisted out of the per-pair Gaussian window math.  The
/// call std::sqrt(2.0) is correctly rounded, so substituting this
/// constant for an inline call is bitwise-neutral.
inline const double kSqrt2 = std::sqrt(2.0);

/// One directed motion-database entry — the row element of
/// core::MotionDatabase's CSR storage — with its query-time constants
/// precomputed: the entry itself (means, sigmas kept for the
/// degenerate sigma <= 0 / non-finite branch, sample count) and
/// 1/(sigma*sqrt(2)) so the hot path runs two erf calls per factor and
/// nothing else.  The struct has no padding, so its bytes are a pure
/// function of its values (the venue image writes them verbatim).
struct PairWindow {
  env::LocationId to = 0;
  std::int32_t sampleCount = 0;
  double muDirectionDeg = 0.0;
  double sigmaDirectionDeg = 0.0;
  double invSqrt2SigmaDir = 0.0;  ///< 0 when the sigma is degenerate.
  double muOffsetMeters = 0.0;
  double sigmaOffsetMeters = 0.0;
  double invSqrt2SigmaOff = 0.0;  ///< 0 when the sigma is degenerate.
};

/// True when a sigma cannot parameterize the Gaussian window: zero,
/// negative, or NaN (a NaN would otherwise poison the erf math).
/// +inf is finite-path-safe — the erf arguments collapse to 0 and the
/// window mass is an honest 0 — so it is not treated as degenerate.
inline bool degenerateSigma(double sigma) {
  return std::isnan(sigma) || sigma <= 0.0;
}

/// N(mu, sigma) mass inside [x - halfWidth, x + halfWidth], with the
/// 1/(sigma*sqrt(2)) factor precomputed.  The arithmetic is exactly
/// the inline form's, so precomputed and inline callers agree bitwise.
inline double windowMass(double x, double halfWidth, double mu,
                         double invSqrt2Sigma) {
  const double upper = (x + halfWidth - mu) * invSqrt2Sigma;
  const double lower = (x - halfWidth - mu) * invSqrt2Sigma;
  return 0.5 * (std::erf(upper) - std::erf(lower));
}

/// Zero-mean circular window mass with the integration bounds clamped
/// to the circle's extent [-180, 180] (see
/// core::circularGaussianWindowProbability).
inline double circularWindowMass(double deviationDeg, double halfWidthDeg,
                                 double invSqrt2Sigma) {
  const double lowerDeg = deviationDeg - halfWidthDeg < -180.0
                              ? -180.0
                              : deviationDeg - halfWidthDeg;
  const double upperDeg = deviationDeg + halfWidthDeg > 180.0
                              ? 180.0
                              : deviationDeg + halfWidthDeg;
  if (lowerDeg >= upperDeg) return 0.0;
  return 0.5 * (std::erf(upperDeg * invSqrt2Sigma) -
                std::erf(lowerDeg * invSqrt2Sigma));
}

}  // namespace moloc::kernel
