#include "kernel/motion_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/error.hpp"

namespace moloc::kernel {

PairWindow makeWindow(env::LocationId to, const core::RlmStats& stats) {
  PairWindow window;
  window.to = to;
  window.muDirectionDeg = stats.muDirectionDeg;
  window.sigmaDirectionDeg = stats.sigmaDirectionDeg;
  window.muOffsetMeters = stats.muOffsetMeters;
  window.sigmaOffsetMeters = stats.sigmaOffsetMeters;
  if (!degenerateSigma(stats.sigmaDirectionDeg))
    window.invSqrt2SigmaDir = 1.0 / (stats.sigmaDirectionDeg * kSqrt2);
  if (!degenerateSigma(stats.sigmaOffsetMeters))
    window.invSqrt2SigmaOff = 1.0 / (stats.sigmaOffsetMeters * kSqrt2);
  return window;
}

MotionAdjacency MotionAdjacency::view(
    std::span<const std::size_t> rowStart,
    std::span<const PairWindow> edges) {
  if (rowStart.empty())
    throw util::ConfigError(
        "MotionAdjacency: view rowStart must hold at least one offset");
  MotionAdjacency adjacency;
  adjacency.borrowedRowStart_ = rowStart.data();
  adjacency.borrowedEdges_ = edges.data();
  adjacency.borrowedEdgeCount_ = edges.size();
  adjacency.locationCount_ = rowStart.size() - 1;
  return adjacency;
}

MotionAdjacency::MotionAdjacency(const core::MotionDatabase& db)
    : rowStart_(db.locationCount() + 1, 0),
      locationCount_(db.locationCount()) {
  edges_.reserve(db.entryCount());
  // forEachEntry walks row-major, so edges_ lands sorted by (from, to)
  // without a separate sort pass.
  db.forEachEntry([this](env::LocationId from, env::LocationId to,
                         const core::RlmStats& stats) {
    ++rowStart_[static_cast<std::size_t>(from) + 1];
    edges_.push_back(makeWindow(to, stats));
  });
  for (std::size_t row = 0; row < locationCount_; ++row)
    rowStart_[row + 1] += rowStart_[row];
}

const PairWindow* findInRow(std::span<const PairWindow> row,
                            env::LocationId to) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const PairWindow& w, env::LocationId id) { return w.to < id; });
  if (it == row.end() || it->to != to) return nullptr;
  return &*it;
}

const PairWindow* MotionAdjacency::find(env::LocationId i,
                                        env::LocationId j) const {
  return findInRow(outEdges(i), j);
}

}  // namespace moloc::kernel
