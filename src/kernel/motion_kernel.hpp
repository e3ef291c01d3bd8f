#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/motion_database.hpp"
#include "env/floor_plan.hpp"

namespace moloc::kernel {

/// sqrt(2), hoisted out of the per-pair Gaussian window math.  The
/// call std::sqrt(2.0) is correctly rounded, so substituting this
/// constant for an inline call is bitwise-neutral.
inline const double kSqrt2 = std::sqrt(2.0);

/// One directed motion-DB entry with its query-time constants
/// precomputed: the means, the sigmas (kept for the degenerate
/// sigma <= 0 / non-finite branch), and 1/(sigma*sqrt(2)) so the hot
/// path runs two erf calls per factor and nothing else.
struct PairWindow {
  env::LocationId to = 0;
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

/// A CSR-style adjacency view of a MotionDatabase: per source
/// location, the sorted list of populated out-edges with their
/// precomputed window constants.  Replaces the dense per-(i,j)
/// optional<RlmStats> lookup on the Eq. 5-6 hot path — candidate sets
/// touch only pairs that actually have entries, everything else takes
/// the closed-form unreachable-floor path.
///
/// The index is built once, at construction, and is immutable after:
/// it does not track the source database, so readers scoring through
/// a built adjacency never observe a mutation mid-query.  The serving
/// stack builds one per published core::WorldSnapshot and shares it
/// across sessions behind a shared_ptr<const MotionAdjacency>;
/// anything that wants newer data builds (or adopts) a new index.
/// This snapshot-owned design is what replaced the process-wide
/// version-stamp cache: a stamp compared a database *address* against
/// a counter, so a destroyed database whose storage was reused could
/// alias a stale cache (ABA); an owned index has no identity to
/// confuse.
class MotionAdjacency {
 public:
  /// Builds the index from `db`'s current contents.
  explicit MotionAdjacency(const core::MotionDatabase& db);

  /// A non-owning view over externally owned CSR arrays — the
  /// zero-copy path of the mmap venue image (src/image).  `rowStart`
  /// must hold locationCount + 1 monotonically non-decreasing offsets
  /// starting at 0 and ending at edges.size(), and `edges` must be
  /// sorted by (from, to); both must outlive the adjacency and every
  /// copy of it.  The caller (the image loader) validates those
  /// invariants — this factory only checks the shape.
  static MotionAdjacency view(std::span<const std::size_t> rowStart,
                              std::span<const PairWindow> edges);

  std::size_t locationCount() const { return locationCount_; }
  std::size_t edgeCount() const {
    return isView() ? borrowedEdgeCount_ : edges_.size();
  }

  /// True when this adjacency borrows external storage (see view()).
  bool isView() const { return borrowedRowStart_ != nullptr; }

  /// The row-start offsets (locationCount() + 1 entries) and the edge
  /// array they index — exposed for the venue-image writer.
  std::span<const std::size_t> rowStarts() const {
    if (borrowedRowStart_ != nullptr)
      return {borrowedRowStart_, locationCount_ + 1};
    return {rowStart_.data(), rowStart_.size()};
  }
  std::span<const PairWindow> edges() const {
    return isView() ? std::span<const PairWindow>{borrowedEdges_,
                                                  borrowedEdgeCount_}
                    : std::span<const PairWindow>{edges_};
  }

  /// The populated out-edges of `i`, sorted by destination id.
  /// `i` must be < locationCount().
  std::span<const PairWindow> outEdges(env::LocationId i) const {
    const auto row = static_cast<std::size_t>(i);
    const std::size_t* rs =
        isView() ? borrowedRowStart_ : rowStart_.data();
    const PairWindow* ed = isView() ? borrowedEdges_ : edges_.data();
    return {ed + rs[row], rs[row + 1] - rs[row]};
  }

  /// The window for the directed pair (i, j), or nullptr when the pair
  /// has no entry.  Binary search over i's out-edges.
  const PairWindow* find(env::LocationId i, env::LocationId j) const;

 private:
  MotionAdjacency() = default;  ///< view()'s starting point.

  std::vector<std::size_t> rowStart_;  ///< locationCount_ + 1 offsets.
  std::vector<PairWindow> edges_;      ///< Sorted by (from, to).
  /// Set iff this adjacency is a view; owning instances read the
  /// vectors so default copy/move stay correct (a copied view stays a
  /// shallow view, a copied owner re-points at its own buffers).
  const std::size_t* borrowedRowStart_ = nullptr;
  const PairWindow* borrowedEdges_ = nullptr;
  std::size_t borrowedEdgeCount_ = 0;
  std::size_t locationCount_ = 0;
};

/// Finds `to` inside one sorted out-edge row (exposed for reuse when a
/// caller has already resolved the row span).
const PairWindow* findInRow(std::span<const PairWindow> row,
                            env::LocationId to);

/// Builds the precomputed window for one RlmStats entry.
PairWindow makeWindow(env::LocationId to, const core::RlmStats& stats);

}  // namespace moloc::kernel
