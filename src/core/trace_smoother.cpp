#include "core/trace_smoother.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/error.hpp"

namespace moloc::core {

TraceSmoother::TraceSmoother(const radio::FingerprintDatabase& fingerprints,
                             const MotionDatabase& motion,
                             MoLocConfig config)
    : estimator_(fingerprints, config.candidateCount),
      matcher_(std::make_shared<const MotionDatabase>(motion),
               config.matcher),
      config_(config) {}

std::vector<env::LocationId> TraceSmoother::smooth(
    std::span<const radio::Fingerprint> scans,
    std::span<const std::optional<sensors::MotionMeasurement>> motions)
    const {
  if (scans.empty())
    throw util::ConfigError("TraceSmoother: no scans");
  if (motions.size() + 1 != scans.size())
    throw util::ConfigError(
        "TraceSmoother: need exactly one motion per scan transition");

  // Per-step candidate lattices (the Viterbi state space).
  std::vector<std::vector<Candidate>> lattice;
  lattice.reserve(scans.size());
  for (const auto& scan : scans) lattice.push_back(estimator_.estimate(scan));

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto logOf = [](double p) {
    return p > 0.0 ? std::log(p) : -1e30;  // Finite so paths survive.
  };

  // Forward pass: delta[t][j] = best log-likelihood of any path ending
  // in candidate j at step t; psi[t][j] = argmax predecessor index.
  std::vector<std::vector<double>> delta(lattice.size());
  std::vector<std::vector<std::size_t>> psi(lattice.size());
  delta[0].reserve(lattice[0].size());
  for (const auto& candidate : lattice[0])
    delta[0].push_back(logOf(candidate.probability));
  psi[0].assign(lattice[0].size(), 0);

  for (std::size_t t = 1; t < lattice.size(); ++t) {
    delta[t].assign(lattice[t].size(), kNegInf);
    psi[t].assign(lattice[t].size(), 0);
    const auto& motion = motions[t - 1];
    for (std::size_t j = 0; j < lattice[t].size(); ++j) {
      double best = kNegInf;
      std::size_t bestPrev = 0;
      for (std::size_t i = 0; i < lattice[t - 1].size(); ++i) {
        // Uninformative transition when no motion was measured.
        const double transition =
            motion ? logOf(matcher_.pairProbability(
                         lattice[t - 1][i].location,
                         lattice[t][j].location, *motion))
                   : 0.0;
        const double score = delta[t - 1][i] + transition;
        if (score > best) {
          best = score;
          bestPrev = i;
        }
      }
      delta[t][j] = best + logOf(lattice[t][j].probability);
      psi[t][j] = bestPrev;
    }
  }

  // Backtrack from the best terminal state.
  std::vector<env::LocationId> path(lattice.size());
  std::size_t cursor = static_cast<std::size_t>(
      std::max_element(delta.back().begin(), delta.back().end()) -
      delta.back().begin());
  for (std::size_t t = lattice.size(); t-- > 0;) {
    path[t] = lattice[t][cursor].location;
    cursor = psi[t][cursor];
  }
  return path;
}

}  // namespace moloc::core
