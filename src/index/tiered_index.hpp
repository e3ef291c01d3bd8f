#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "index/quantizer.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/error.hpp"

namespace moloc::index {

/// Tuning for the tiered candidate index.
struct IndexConfig {
  QuantizerConfig quantizer;

  /// Upper bound on entries per shard; larger shards are split.  Small
  /// enough that one shard's signatures stay cache-resident during a
  /// scan, large enough to amortize the per-shard bound check.
  std::size_t maxShardEntries = 4096;

  /// Worker threads for construction-time shard building.  Shards are
  /// independent (each task quantizes and profiles only its own row
  /// range), so the built shards are bitwise-identical at any thread
  /// count.  0 selects the hardware concurrency; the build stays
  /// serial whenever it resolves to 1 thread or there is only one
  /// shard.  Has no effect on queries.
  std::size_t buildThreads = 0;

  /// The prefilter shortlists at least this many candidates (when the
  /// map has them) regardless of k, absorbing quantization noise in
  /// the bucket-space ranking before the exact kernel re-ranks.
  std::size_t minShortlist = 96;

  /// Shortlist admission slack in bucket units: every entry whose
  /// bucket-space distance is within `marginBuckets` of the
  /// minShortlist-th best is kept.  Wider margins trade scan output
  /// size for recall headroom (docs/scaling.md).
  std::uint32_t marginBuckets = 8;

  /// Paranoid mode: after every query, run the exact full scan and
  /// throw util::StateError if the shortlist dropped any true top-k
  /// entry.  Orders of magnitude slower — for tests, benches, and
  /// recall audits only.
  bool exhaustiveCheck = false;
};

/// Per-query observability for benches and the exhaustive-check audit.
struct QueryStats {
  std::size_t shortlistSize = 0;
  std::size_t scannedShards = 0;
  std::size_t totalShards = 0;
  std::size_t scannedEntries = 0;
  /// True top-k rows missing from the shortlist; only counted (just
  /// before the throw) when IndexConfig::exhaustiveCheck is on.
  std::size_t missedTopK = 0;
};

/// Row-range and sparsity summary of one shard (tests, docs, benches).
struct ShardInfo {
  std::size_t rowBegin = 0;
  std::size_t rowEnd = 0;
  std::size_t activeApCount = 0;
  std::size_t varyingColumnCount = 0;
};

/// An entry's signature is padded with zero buckets to a multiple of
/// this many bytes, so the per-entry L1 runs as whole 16-byte chunks
/// the compiler vectorizes at any optimization level.
inline constexpr std::size_t kSignatureChunk = 16;

/// Signature bytes per entry of a shard with `activeApCount` active
/// APs.
constexpr std::size_t signatureStride(std::size_t activeApCount) {
  return (activeApCount + kSignatureChunk - 1) / kSignatureChunk *
         kSignatureChunk;
}

/// One shard's storage, as spans: what the venue-image writer
/// serializes (TieredIndex::shardView) and what the image loader hands
/// back to TieredIndex::fromImageViews to reconstruct the index
/// without rebuilding a single signature.  Spans passed to
/// fromImageViews must outlive the index (the loader pins the
/// mapping).
struct ShardView {
  std::size_t rowBegin = 0;
  std::size_t rowEnd = 0;
  /// Column indices of APs heard by at least one entry, strictly
  /// increasing.
  std::span<const std::uint32_t> activeAps;
  /// Per active AP: the shard-wide bucket range (1 <= max < B,
  /// min <= max).
  std::span<const std::uint8_t> minBucket;
  std::span<const std::uint8_t> maxBucket;
  /// Bucket bytes, entry-major: signatures[e * stride + a] is entry
  /// e's bucket for activeAps[a], stride = signatureStride(activeAps
  /// .size()), padding bytes 0.
  std::span<const std::uint8_t> signatures;
  /// Column profile: the columns whose value differs (as a bit
  /// pattern) between the shard's rows, strictly increasing...
  std::span<const std::uint32_t> varyingColumns;
  /// ...and, per column (apCount values), the value every row holds
  /// in it; +0.0 for a varying column.
  std::span<const double> columnValues;
};

/// The tiered candidate index: a byte-signature prefilter in front of
/// an exact, column-planned re-rank.
///
/// The radio map is partitioned into shards of contiguous rows
/// (callers pass natural boundaries — worldgen supplies per-floor
/// starts — and oversized segments are split at maxShardEntries).
/// Each shard stores one bucket byte per (entry, AP heard anywhere in
/// the shard); APs silent across a whole shard are dropped from its
/// signatures entirely — that sparsity is why a city-scale venue scans
/// only the shards near the query.  Each shard also records its column
/// profile: which columns vary across its rows, and the single value
/// every row holds in each other column.
///
/// A query quantizes once, orders shards by a per-shard lower bound on
/// the bucket-space L1 distance (silent-in-shard APs contribute their
/// full query bucket; active APs contribute their distance to the
/// shard's per-AP bucket range), scans shards in that order while
/// maintaining the running minShortlist-th best distance, and stops
/// once the next shard's bound exceeds it by more than marginBuckets.
/// The surviving shortlist is re-ranked exactly, in place in the flat
/// matrix, by kernel::plannedSquaredDistances with one column plan per
/// scanned shard, then by selectSmallestK in ascending row order — so
/// whenever the shortlist contains the true top-k (audited by
/// exhaustiveCheck), results are bitwise-identical to
/// FingerprintDatabase::queryInto, ties included.
///
/// Immutable after construction; concurrent queries share nothing but
/// the shard storage (per-thread scratch), which is what lets a
/// WorldSnapshot own one index across all serving threads.
class TieredIndex {
 public:
  /// Builds the index over `database` (shared ownership: the index
  /// reads the flat matrix in place and keeps the database alive).
  /// `shardStarts`, when non-empty, lists segment-starting rows
  /// (strictly increasing, first must be 0).  Throws
  /// std::invalid_argument on a null database, bad config, or bad
  /// shard starts.
  explicit TieredIndex(
      std::shared_ptr<const radio::FingerprintDatabase> database,
      IndexConfig config = {},
      std::span<const std::size_t> shardStarts = {});

  /// Zero-copy reconstruction from a venue image (src/image): adopts
  /// the already-built shards as non-owning views instead of
  /// quantizing rows and profiling columns — queries are
  /// bitwise-identical to the originally built index.  `database` is
  /// typically the image's own view database; the spans in `shards`
  /// must outlive the index.  Validates the cheap structural
  /// invariants (shards partition the rows, activeAps and
  /// varyingColumns strictly increasing and in range, bucket ranges
  /// sane, signature and column-value sizes exact) and throws
  /// std::invalid_argument on any violation; content integrity is the
  /// image's CRC contract.  No pass over rows.
  static TieredIndex fromImageViews(
      std::shared_ptr<const radio::FingerprintDatabase> database,
      IndexConfig config, std::span<const ShardView> shards);

  /// An index is shared immutably behind shared_ptr by every snapshot
  /// and session; copying one (and dangling a view shard's spans) is
  /// never intended.
  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;
  TieredIndex(TieredIndex&&) = default;
  TieredIndex& operator=(TieredIndex&&) = default;

  const IndexConfig& config() const { return config_; }
  std::size_t entryCount() const { return db_->size(); }
  std::size_t shardCount() const { return shards_.size(); }
  ShardInfo shardInfo(std::size_t shard) const;

  /// The storage of one shard, for the venue-image writer and
  /// white-box tests.  Spans are valid while the index lives.
  const ShardView& shardView(std::size_t shard) const;
  const std::shared_ptr<const radio::FingerprintDatabase>& database()
      const {
    return db_;
  }

  /// Drop-in for FingerprintDatabase::queryInto — same validation,
  /// same exceptions, and (given full shortlist recall) bitwise the
  /// same matches.  `stats`, when non-null, receives per-query scan
  /// observability.
  void queryInto(const radio::Fingerprint& query, std::size_t k,
                 std::vector<radio::Match>& out,
                 QueryStats* stats = nullptr) const;

  /// Allocating convenience wrapper over queryInto.
  std::vector<radio::Match> query(const radio::Fingerprint& query,
                                  std::size_t k) const;

  /// Drop-in for FingerprintDatabase::queryBatchInto: database-wide
  /// preconditions always throw; with a non-null `errors`, per-query
  /// failures are captured in errors[i] (out[i] left empty) instead of
  /// thrown.
  void queryBatchInto(
      std::span<const radio::Fingerprint* const> queries, std::size_t k,
      std::vector<std::vector<radio::Match>>& out,
      std::vector<std::exception_ptr>* errors = nullptr) const;

 private:
  /// Storage behind a built shard's spans.  The heap buffers stay put
  /// when storage_ grows or the index moves, so the spans in shards_
  /// stay valid; an image-loaded index has no storage (its spans point
  /// into the mapping).
  struct ShardStorage {
    std::vector<std::uint32_t> activeAps;
    std::vector<std::uint8_t> minBucket;
    std::vector<std::uint8_t> maxBucket;
    std::vector<std::uint8_t> signatures;
    std::vector<std::uint32_t> varyingColumns;
    std::vector<double> columnValues;
  };

  struct ScanWorkspace;
  static ScanWorkspace& threadWorkspace();

  /// Used by fromImageViews, which fills the members itself.
  TieredIndex() = default;

  void buildShard(std::size_t shard, std::size_t rowBegin,
                  std::size_t rowEnd);
  void queryPrepared(const radio::Fingerprint& query, std::size_t k,
                     ScanWorkspace& ws, std::vector<radio::Match>& out,
                     QueryStats* stats) const;
  void scanShard(const ShardView& shard, const std::uint8_t* qBuckets,
                 std::uint32_t offset, ScanWorkspace& ws) const;

  std::shared_ptr<const radio::FingerprintDatabase> db_;
  IndexConfig config_;
  std::vector<ShardView> shards_;
  std::vector<ShardStorage> storage_;
};

}  // namespace moloc::index
