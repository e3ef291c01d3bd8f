#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "env/floor_plan.hpp"
#include "kernel/motion_kernel.hpp"

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

/// One directed entry M[from][to], as MotionDatabase's builder takes it.
struct MotionEntry {
  env::LocationId from = 0;
  env::LocationId to = 0;
  RlmStats stats;
};

/// Appends M[i][j] = stats and its mutual-reachability mirror M[j][i]
/// (reverse direction = mu + 180 mod 360; offset, sigmas and sample
/// count unchanged — the rule of Sec. IV.B.2).
void appendWithMirror(std::vector<MotionEntry>& entries, env::LocationId i,
                      env::LocationId j, const RlmStats& stats);

/// The motion database: an n x n matrix M where entry M[i][j] models
/// the RLM from location i to location j (Sec. IV.C).
///
/// Entries are optional — most pairs are not adjacent and never receive
/// crowdsourced measurements; the localization engine treats a missing
/// entry as "no known walkable leg".
///
/// Storage is CSR: per source location, the populated out-edges sorted
/// by destination, each a kernel::PairWindow that carries the entry
/// losslessly plus the window constants Eq. 5 scores with.  Real
/// venues have O(n) walkable legs, so the matrix costs O(n + entries)
/// and a candidate set touches only pairs that have entries.
///
/// A database is immutable once built, so any number of threads may
/// read it.  The serving stack builds one per published
/// core::WorldSnapshot and shares it across sessions behind a
/// shared_ptr<const MotionDatabase>; anything that wants newer data
/// builds (or adopts) a new database.
class MotionDatabase {
 public:
  /// No locations, no entries.
  MotionDatabase() : MotionDatabase(0) {}

  /// The one builder.  Takes directed entries in any order, counts
  /// each row's degree, fills the rows and sorts each by destination.
  /// Throws std::out_of_range on an id outside [0, locationCount) and
  /// util::ConfigError on a duplicate (from, to).
  explicit MotionDatabase(std::size_t locationCount,
                          std::span<const MotionEntry> entries = {});

  /// A non-owning view over externally owned CSR arrays — the
  /// zero-copy path of the mmap venue image (src/image).  `rowStart`
  /// must hold locationCount + 1 monotonically non-decreasing offsets
  /// starting at 0 and ending at edges.size(), and `edges` must be
  /// sorted by (from, to); both must outlive the database and every
  /// copy of it.  The caller (the image loader) validates those
  /// invariants — this factory only checks the shape.
  static MotionDatabase view(std::span<const std::size_t> rowStart,
                             std::span<const kernel::PairWindow> edges);

  std::size_t locationCount() const { return locationCount_; }

  /// Number of populated directed entries.
  std::size_t entryCount() const { return edges().size(); }

  /// Whether M[i][j] is populated.  Throws std::out_of_range on bad ids.
  bool hasEntry(env::LocationId i, env::LocationId j) const {
    return find(i, j) != nullptr;
  }

  /// M[i][j], or nullopt when the pair was never learned.  Throws
  /// std::out_of_range on bad ids.
  std::optional<RlmStats> entry(env::LocationId i, env::LocationId j) const;

  /// Calls fn(i, j, stats) for every populated directed entry, in
  /// row-major (i, then j) order.
  template <typename Fn>
  void forEachEntry(Fn&& fn) const {
    const std::span<const std::size_t> rows = rowStarts();
    const std::span<const kernel::PairWindow> windows = edges();
    for (std::size_t row = 0; row < locationCount_; ++row)
      for (std::size_t e = rows[row]; e < rows[row + 1]; ++e)
        fn(static_cast<env::LocationId>(row), windows[e].to,
           statsOf(windows[e]));
  }

  /// True when this database borrows external storage (see view()).
  bool isView() const { return borrowedRowStart_ != nullptr; }

  /// The row-start offsets (locationCount() + 1 entries) and the edge
  /// array they index — exposed for the venue-image writer.
  std::span<const std::size_t> rowStarts() const {
    if (isView()) return {borrowedRowStart_, locationCount_ + 1};
    return rowStart_;
  }
  std::span<const kernel::PairWindow> edges() const {
    if (isView()) return {borrowedEdges_, borrowedEdgeCount_};
    return edges_;
  }

  /// The populated out-edges of `i`, sorted by destination id.
  /// `i` must be < locationCount().
  std::span<const kernel::PairWindow> outEdges(env::LocationId i) const {
    const auto row = static_cast<std::size_t>(i);
    const std::size_t* rs = isView() ? borrowedRowStart_ : rowStart_.data();
    const kernel::PairWindow* ed =
        isView() ? borrowedEdges_ : edges_.data();
    return {ed + rs[row], rs[row + 1] - rs[row]};
  }

  /// The window of M[i][j], or nullptr when the pair has no entry.
  /// Binary search over i's out-edges.  Throws std::out_of_range on
  /// bad ids — the one id check of the Eq. 5-6 hot path.
  const kernel::PairWindow* find(env::LocationId i, env::LocationId j) const;

 private:
  /// The entry a window carries.
  static RlmStats statsOf(const kernel::PairWindow& window) {
    return {window.muDirectionDeg, window.sigmaDirectionDeg,
            window.muOffsetMeters, window.sigmaOffsetMeters,
            window.sampleCount};
  }

  void checkIds(env::LocationId i, env::LocationId j) const;

  std::vector<std::size_t> rowStart_;     ///< locationCount_ + 1 offsets.
  std::vector<kernel::PairWindow> edges_; ///< Sorted by (from, to).
  /// Set iff this database is a view; owning instances read the
  /// vectors so default copy/move stay correct (a copied view stays a
  /// shallow view, a copied owner re-points at its own buffers).
  const std::size_t* borrowedRowStart_ = nullptr;
  const kernel::PairWindow* borrowedEdges_ = nullptr;
  std::size_t borrowedEdgeCount_ = 0;
  std::size_t locationCount_ = 0;
};

/// The window of one entry: the entry itself plus 1/(sigma*sqrt(2))
/// for each non-degenerate sigma.
kernel::PairWindow makeWindow(env::LocationId to, const RlmStats& stats);

}  // namespace moloc::core
