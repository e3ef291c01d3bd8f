#include "core/motion_database.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "geometry/angles.hpp"
#include "util/error.hpp"

namespace moloc::core {

void appendWithMirror(std::vector<MotionEntry>& entries, env::LocationId i,
                      env::LocationId j, const RlmStats& stats) {
  RlmStats mirrored = stats;
  mirrored.muDirectionDeg =
      geometry::reverseHeadingDeg(stats.muDirectionDeg);
  entries.push_back({i, j, stats});
  entries.push_back({j, i, mirrored});
}

kernel::PairWindow makeWindow(env::LocationId to, const RlmStats& stats) {
  kernel::PairWindow window;
  window.to = to;
  window.sampleCount = stats.sampleCount;
  window.muDirectionDeg = stats.muDirectionDeg;
  window.sigmaDirectionDeg = stats.sigmaDirectionDeg;
  window.muOffsetMeters = stats.muOffsetMeters;
  window.sigmaOffsetMeters = stats.sigmaOffsetMeters;
  if (!kernel::degenerateSigma(stats.sigmaDirectionDeg))
    window.invSqrt2SigmaDir =
        1.0 / (stats.sigmaDirectionDeg * kernel::kSqrt2);
  if (!kernel::degenerateSigma(stats.sigmaOffsetMeters))
    window.invSqrt2SigmaOff =
        1.0 / (stats.sigmaOffsetMeters * kernel::kSqrt2);
  return window;
}

MotionDatabase::MotionDatabase(std::size_t locationCount,
                               std::span<const MotionEntry> entries)
    : rowStart_(locationCount + 1, 0), locationCount_(locationCount) {
  for (const MotionEntry& e : entries) {
    checkIds(e.from, e.to);
    ++rowStart_[static_cast<std::size_t>(e.from) + 1];
  }
  for (std::size_t row = 0; row < locationCount_; ++row)
    rowStart_[row + 1] += rowStart_[row];

  edges_.resize(entries.size());
  std::vector<std::size_t> next(rowStart_.begin(), rowStart_.end() - 1);
  for (const MotionEntry& e : entries)
    edges_[next[static_cast<std::size_t>(e.from)]++] =
        makeWindow(e.to, e.stats);

  const auto byTo = [](const kernel::PairWindow& a,
                       const kernel::PairWindow& b) { return a.to < b.to; };
  const auto sameTo = [](const kernel::PairWindow& a,
                         const kernel::PairWindow& b) {
    return a.to == b.to;
  };
  for (std::size_t row = 0; row < locationCount_; ++row) {
    const auto first =
        edges_.begin() + static_cast<std::ptrdiff_t>(rowStart_[row]);
    const auto last =
        edges_.begin() + static_cast<std::ptrdiff_t>(rowStart_[row + 1]);
    std::sort(first, last, byTo);
    const auto dup = std::adjacent_find(first, last, sameTo);
    if (dup != last)
      throw util::ConfigError("MotionDatabase: duplicate entry (" +
                              std::to_string(row) + ", " +
                              std::to_string(dup->to) + ")");
  }
}

MotionDatabase MotionDatabase::view(
    std::span<const std::size_t> rowStart,
    std::span<const kernel::PairWindow> edges) {
  if (rowStart.empty())
    throw util::ConfigError(
        "MotionDatabase: view rowStart must hold at least one offset");
  MotionDatabase db;
  db.borrowedRowStart_ = rowStart.data();
  db.borrowedEdges_ = edges.data();
  db.borrowedEdgeCount_ = edges.size();
  db.locationCount_ = rowStart.size() - 1;
  return db;
}

void MotionDatabase::checkIds(env::LocationId i, env::LocationId j) const {
  if (i < 0 || j < 0 || static_cast<std::size_t>(i) >= locationCount_ ||
      static_cast<std::size_t>(j) >= locationCount_)
    throw std::out_of_range("MotionDatabase: bad location pair (" +
                            std::to_string(i) + ", " + std::to_string(j) +
                            ")");
}

const kernel::PairWindow* MotionDatabase::find(env::LocationId i,
                                               env::LocationId j) const {
  checkIds(i, j);
  const std::span<const kernel::PairWindow> row = outEdges(i);
  const auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const kernel::PairWindow& w, env::LocationId id) {
        return w.to < id;
      });
  if (it == row.end() || it->to != j) return nullptr;
  return &*it;
}

std::optional<RlmStats> MotionDatabase::entry(env::LocationId i,
                                              env::LocationId j) const {
  if (const kernel::PairWindow* window = find(i, j)) return statsOf(*window);
  return std::nullopt;
}

}  // namespace moloc::core
