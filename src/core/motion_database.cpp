#include "core/motion_database.hpp"

#include <stdexcept>
#include <string>

#include "geometry/angles.hpp"

namespace moloc::core {

MotionDatabase::MotionDatabase(std::size_t locationCount)
    : n_(locationCount) {}

std::uint64_t MotionDatabase::index(env::LocationId i,
                                    env::LocationId j) const {
  return static_cast<std::uint64_t>(i) * n_ + static_cast<std::uint64_t>(j);
}

void MotionDatabase::checkIds(env::LocationId i, env::LocationId j) const {
  if (i < 0 || j < 0 || static_cast<std::size_t>(i) >= n_ ||
      static_cast<std::size_t>(j) >= n_)
    throw std::out_of_range("MotionDatabase: bad location pair (" +
                            std::to_string(i) + ", " + std::to_string(j) +
                            ")");
}

void MotionDatabase::setEntry(env::LocationId i, env::LocationId j,
                              RlmStats stats) {
  checkIds(i, j);
  entries_[index(i, j)] = stats;
}

void MotionDatabase::setEntryWithMirror(env::LocationId i,
                                        env::LocationId j, RlmStats stats) {
  setEntry(i, j, stats);
  RlmStats mirrored = stats;
  mirrored.muDirectionDeg =
      geometry::reverseHeadingDeg(stats.muDirectionDeg);
  setEntry(j, i, mirrored);
}

bool MotionDatabase::hasEntry(env::LocationId i, env::LocationId j) const {
  checkIds(i, j);
  return entries_.find(index(i, j)) != entries_.end();
}

std::optional<RlmStats> MotionDatabase::entry(env::LocationId i,
                                              env::LocationId j) const {
  checkIds(i, j);
  const auto it = entries_.find(index(i, j));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

}  // namespace moloc::core
