#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "env/floor_plan.hpp"

namespace moloc::core {

/// The Gaussian relative-location-measurement model between one ordered
/// pair of locations: means and standard deviations of the walking
/// direction and offset (the quadruple stored per matrix entry in
/// Sec. IV.C).
struct RlmStats {
  double muDirectionDeg = 0.0;
  double sigmaDirectionDeg = 0.0;
  double muOffsetMeters = 0.0;
  double sigmaOffsetMeters = 0.0;
  int sampleCount = 0;
};

/// The motion database: an n x n matrix M where entry M[i][j] models
/// the RLM from location i to location j (Sec. IV.C).
///
/// Entries are optional — most pairs are not adjacent and never receive
/// crowdsourced measurements; the localization engine treats a missing
/// entry as "no known walkable leg".
///
/// Storage is sparse (keyed by the row-major pair index): real venues
/// have O(n) walkable legs, and a dense n^2 table is intractable at the
/// 10k–100k locations the worldgen venues reach.
class MotionDatabase {
 public:
  MotionDatabase() = default;
  explicit MotionDatabase(std::size_t locationCount);

  std::size_t locationCount() const { return n_; }

  /// Stores M[i][j].  Throws std::out_of_range on bad ids.
  void setEntry(env::LocationId i, env::LocationId j, RlmStats stats);

  /// Stores M[i][j] and its mutual-reachability mirror M[j][i]
  /// (reverse direction = mu + 180 mod 360, same offset and sigmas —
  /// the rule of Sec. IV.B.2).
  void setEntryWithMirror(env::LocationId i, env::LocationId j,
                          RlmStats stats);

  bool hasEntry(env::LocationId i, env::LocationId j) const;

  /// M[i][j], or nullopt when the pair was never learned.
  std::optional<RlmStats> entry(env::LocationId i, env::LocationId j) const;

  /// Number of populated directed entries.
  std::size_t entryCount() const { return entries_.size(); }

  /// Calls fn(i, j, stats) for every populated directed entry, in
  /// row-major (i, then j) order — how kernel::MotionAdjacency builds
  /// its CSR index without n^2 entry() copies.  The ordered map key is
  /// the row-major pair index, so in-order iteration is exactly that.
  template <typename Fn>
  void forEachEntry(Fn&& fn) const {
    for (const auto& [idx, stats] : entries_)
      fn(static_cast<env::LocationId>(idx / n_),
         static_cast<env::LocationId>(idx % n_), stats);
  }

 private:
  std::uint64_t index(env::LocationId i, env::LocationId j) const;
  void checkIds(env::LocationId i, env::LocationId j) const;

  std::size_t n_ = 0;
  std::map<std::uint64_t, RlmStats> entries_;
};

}  // namespace moloc::core
