#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/candidate_estimator.hpp"
#include "core/motion_database.hpp"
#include "sensors/motion_processor.hpp"

namespace moloc::core {

/// A location carrying a probability — the shape of both the previous
/// candidate set S of Eq. 6 and the posterior set the engine retains.
struct WeightedCandidate {
  env::LocationId location = 0;
  double probability = 0.0;
};

/// Parameters of the motion matching unit (Sec. V.B).
struct MotionMatcherParams {
  /// Discretization interval of the direction Gaussian (Eq. 5's alpha).
  /// The paper sets 20 degrees from the motion DB's direction sigmas.
  double alphaDeg = 20.0;
  /// Discretization interval of the offset Gaussian (Eq. 5's beta).
  /// The paper sets 1 m from the motion DB's offset sigmas.
  double betaMeters = 1.0;
  /// Probability floor for pairs without a motion-DB entry, so a single
  /// missing edge cannot zero the posterior (see DESIGN.md).
  double unreachableFloor = 1e-6;
  /// Whether a candidate may explain the motion by staying put (i == j).
  bool allowStationary = true;
  /// Offset sigma (m) of the stationary model: lingering users still
  /// register small offsets from sensor noise.
  double stationarySigmaMeters = 0.5;
};

/// The motion matching unit: evaluates how well a measured (direction,
/// offset) pair matches the motion database between locations.
///
/// Scoring runs on the database's CSR rows, whose window constants
/// (1/(sigma*sqrt(2))) are precomputed.  The matcher *owns a share of*
/// its database (shared_ptr<const>): the database is immutable, so
/// every scoring method is const, lock-free, and safe to call from any
/// number of threads concurrently.  Callers that serve over an evolving
/// OnlineMotionDatabase adopt each published snapshot's database via
/// rebind() (the serving layer does this per session under its slot
/// lock — see docs/serving.md).
class MotionMatcher {
 public:
  /// Scores against `db` (e.g. the one a published WorldSnapshot
  /// owns).  Throws std::invalid_argument on null.
  explicit MotionMatcher(std::shared_ptr<const MotionDatabase> db,
                         MotionMatcherParams params = {});

  /// Swaps in a newer database (a freshly published snapshot's).  Not
  /// synchronized with concurrent scoring on *this* matcher — callers
  /// serialize rebind against their own scoring, which the serving
  /// layer's per-session lock already does.  Throws on null.
  void rebind(std::shared_ptr<const MotionDatabase> db);

  const MotionMatcherParams& params() const { return params_; }

  /// Eq. 5: P_ij(d, o) = D_ij(d) * O_ij(o), the product of the
  /// discretized direction and offset Gaussian integrals.  Directions
  /// are handled circularly (the integration window is recentred on the
  /// wrapped deviation from the stored mean).  Unknown pairs return the
  /// configured floor; i == j uses the stationary model when enabled.
  double pairProbability(env::LocationId i, env::LocationId j,
                         const sensors::MotionMeasurement& motion) const;

  /// Eq. 6: the probability of arriving at `j` from the previous
  /// candidate set, marginalizing over candidates' probabilities:
  /// P_{S,j}(d,o) = sum_i P(x=i) P_ij(d,o).
  double setProbability(
      std::span<const WeightedCandidate> previousCandidates,
      env::LocationId j, const sensors::MotionMeasurement& motion) const;

  /// Eq. 6 over a whole candidate set at once: fills `out` (clearing it
  /// first) with out[c] = setProbability(previousCandidates,
  /// candidates[c], motion), bitwise-identical to the per-j calls.  The
  /// work shared across the set — summing the prior mass and the
  /// stationary probability (which depends only on the measurement, not
  /// on j) — is done once per batch instead of once per candidate.
  void scoreCandidates(std::span<const WeightedCandidate> previousCandidates,
                       std::span<const env::LocationId> candidates,
                       const sensors::MotionMeasurement& motion,
                       std::vector<double>& out) const;

  /// The direction factor D_ij alone; exposed for tests and ablations.
  double directionFactor(const RlmStats& stats, double directionDeg) const;

  /// The offset factor O_ij alone; exposed for tests and ablations.
  double offsetFactor(const RlmStats& stats, double offsetMeters) const;

  /// The database this matcher scores against; exposed for tests.
  const MotionDatabase& adjacency() const { return *adj_; }

  /// The same database as a shareable handle — what a session hands
  /// to a twin matcher, or a test uses to pin a snapshot's database.
  const std::shared_ptr<const MotionDatabase>& adjacencyPtr() const {
    return adj_;
  }

 private:
  /// setProbability for one j with the batch-invariant inputs supplied
  /// by the caller.  `stationaryP` is the precomputed i == j
  /// probability; `totalPrior` the prior mass of `prev`, summed in
  /// iteration order.
  double scoreOne(std::span<const WeightedCandidate> prev,
                  env::LocationId j,
                  const sensors::MotionMeasurement& motion,
                  double stationaryP, double totalPrior) const;

  /// The i == j probability: max(stationary direction x offset, floor).
  double stationaryProbability(
      const sensors::MotionMeasurement& motion) const;

  /// directionFactor/offsetFactor on a precomputed window —
  /// bitwise-identical to the RlmStats overloads.
  double windowDirectionFactor(const kernel::PairWindow& w,
                               double directionDeg) const;
  double windowOffsetFactor(const kernel::PairWindow& w,
                            double offsetMeters) const;

  /// Shared so the owning snapshot (and any twin matcher) stays alive
  /// while this matcher can still score.
  std::shared_ptr<const MotionDatabase> adj_;
  MotionMatcherParams params_;
};

/// The probability mass of a N(mu, sigma) variable inside
/// [x - halfWidth, x + halfWidth]; the building block of Eq. 5.
/// Degenerate sigma (zero, negative, or NaN) returns 1 when
/// |x - mu| <= halfWidth, else 0 — a NaN sigma previously leaked into
/// the erf math and poisoned the result.  sigma = +inf is not
/// degenerate: the erf arguments collapse to 0 and the window honestly
/// claims no mass.
double gaussianWindowProbability(double x, double halfWidth, double mu,
                                 double sigma);

/// The circular-direction building block of Eq. 5: the mass of a
/// zero-mean N(0, sigma) deviation inside the window
/// [deviation - halfWidth, deviation + halfWidth] with the bounds
/// clamped to the circle's extent [-180, 180], so a window wider than
/// the circle cannot claim mass beyond the antipode.  `deviationDeg`
/// must already be wrapped into (-180, 180].  Degenerate sigma (zero,
/// negative, or NaN) is an indicator, as above.
double circularGaussianWindowProbability(double deviationDeg,
                                         double halfWidthDeg,
                                         double sigmaDeg);

}  // namespace moloc::core
