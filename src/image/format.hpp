#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "env/floor_plan.hpp"
#include "index/tiered_index.hpp"
#include "kernel/motion_kernel.hpp"

namespace moloc::image {

/// Any venue-image failure with a *format* cause: truncated or
/// corrupt headers, bad section geometry, CRC mismatches, layout-tag
/// mismatches, semantic cross-checks.  Pure I/O failures (open, read,
/// rename) surface as store::StoreError like the rest of the
/// persistence layer; everything a hostile file can trigger is an
/// ImageError — the image fuzz surface enforces exactly that split.
class ImageError : public std::runtime_error {
 public:
  explicit ImageError(const std::string& what)
      : std::runtime_error("moloc::image: " + what) {}
};

/// # Venue image: one mmap-able file, cold start without a rebuild
///
/// A venue image stores the *exact in-memory layouts* the serving
/// stack computes at startup — the blocked kernel::FlatMatrix (the
/// radio map's only copy), the CSR arrays of core::MotionDatabase
/// (each entry a kernel::PairWindow, window constants included), and
/// the index::TieredIndex shards (signature bytes and column profiles) —
/// so the loader maps the file read-only and serves straight out of
/// the page cache: no parsing, no quantizing, no pass over the RSS
/// values.
///
/// File layout (docs/persistence.md has the full spec):
///
///   [FileHeader: 32 bytes]
///   [SectionEntry x sectionCount: 32 bytes each]
///   [sections, each offset aligned to kSectionAlignment ...]
///
/// Every section carries its own CRC32C in the table; the table
/// itself is covered by FileHeader::tableCrc.  Sections are raw host
/// arrays, which is why the header pins a layout tag (endianness,
/// size_t width, PairWindow size): an image is a host-format cache of
/// a built world (a venue build, or the WAL/checkpoint lineage), to be
/// rewritten from that source on each host, not an interchange format
/// — a loader on a different ABI rejects it with a typed error instead
/// of misreading it.

inline constexpr char kMagic[8] = {'M', 'O', 'L', 'O', 'C', 'I',
                                   'M', 'G'};
inline constexpr std::uint32_t kFormatVersion = 4;

/// Section payloads start at multiples of this (cache-line sized, and
/// a multiple of every element alignment used by a section).
inline constexpr std::size_t kSectionAlignment = 64;

/// Hard cap on the section count: v4 defines 12 section ids, so any
/// larger table is damage (and the cap bounds hostile allocation).
inline constexpr std::uint32_t kMaxSections = 64;

enum class SectionId : std::uint32_t {
  kMeta = 1,               ///< Encoded ImageMeta (store::detail codec).
  kLocationIds = 2,        ///< env::LocationId[n], insertion order.
  // Id 3 held a row-major copy of the RSS values up to v2; it is
  // retired, and the loader rejects it as an unknown section.
  kFlatBlocked = 4,        ///< double[paddedRows * apCount], AoSoA.
  kAdjacencyRowStart = 5,  ///< std::size_t[adjacencyLocations + 1].
  kAdjacencyEdges = 6,     ///< kernel::PairWindow[edgeCount].
  kIndexShards = 7,        ///< ShardRecord[shardCount].
  kIndexActiveAps = 8,     ///< uint32[sum of activeApCount].
  kIndexMinBuckets = 9,    ///< uint8[sum of activeApCount].
  kIndexMaxBuckets = 10,   ///< uint8[sum of activeApCount].
  kIndexSignatures = 11,   ///< uint8[sum of signatureBytes].
  kIndexVaryingColumns = 12,  ///< uint32[sum of varyingCount].
  kIndexColumnValues = 13,    ///< double[shardCount * apCount].
};

/// The fixed file header.  Every field is validated by value on load
/// (magic, version, layout tag, file size, section count), and the
/// section table after it is covered by tableCrc — so no byte of
/// header or table is trusted unchecked.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t layoutTag;
  std::uint64_t fileSize;
  std::uint32_t sectionCount;
  std::uint32_t tableCrc;  ///< crc32c over the section table bytes.
};
static_assert(sizeof(FileHeader) == 32);

/// One section-table entry.
struct SectionEntry {
  std::uint32_t id;       ///< SectionId.
  std::uint32_t crc;      ///< crc32c over the section's bytes.
  std::uint64_t offset;   ///< Absolute, kSectionAlignment-aligned.
  std::uint64_t length;   ///< Exact payload bytes (may be 0).
  std::uint64_t reserved; ///< Zero.
};
static_assert(sizeof(SectionEntry) == 32);

/// One tiered-index shard descriptor.  Element offsets index into the
/// kIndexActiveAps / kIndexMinBuckets / kIndexMaxBuckets (all three
/// share activeApsStart/activeApCount), kIndexSignatures and
/// kIndexVaryingColumns sections; shard s's column values are
/// kIndexColumnValues[s * apCount, (s + 1) * apCount).  Shards are
/// packed back to back (each start equals the previous shard's start
/// + count), which the loader enforces.
struct ShardRecord {
  std::uint64_t rowBegin;
  std::uint64_t rowEnd;
  std::uint64_t activeApsStart;
  std::uint64_t activeApCount;
  std::uint64_t signatureStart;
  /// (rowEnd - rowBegin) * index::signatureStride(activeApCount).
  std::uint64_t signatureBytes;
  std::uint64_t varyingStart;
  std::uint64_t varyingCount;
};
static_assert(sizeof(ShardRecord) == 64);

// The sections are raw host arrays; pin the exact ABI the format
// assumes so a drifting struct layout fails the build here, not a
// reader in production.
static_assert(sizeof(env::LocationId) == 4);
static_assert(sizeof(std::size_t) == 8);
static_assert(sizeof(double) == 8);
static_assert(std::has_unique_object_representations_v<SectionEntry>);
static_assert(std::has_unique_object_representations_v<ShardRecord>);
static_assert(sizeof(kernel::PairWindow) == 56);
static_assert(alignof(kernel::PairWindow) == 8);
static_assert(offsetof(kernel::PairWindow, to) == 0);
static_assert(offsetof(kernel::PairWindow, sampleCount) == 4);
static_assert(offsetof(kernel::PairWindow, muDirectionDeg) == 8);
static_assert(offsetof(kernel::PairWindow, sigmaDirectionDeg) == 16);
static_assert(offsetof(kernel::PairWindow, invSqrt2SigmaDir) == 24);
static_assert(offsetof(kernel::PairWindow, muOffsetMeters) == 32);
static_assert(offsetof(kernel::PairWindow, sigmaOffsetMeters) == 40);
static_assert(offsetof(kernel::PairWindow, invSqrt2SigmaOff) == 48);

/// Host layout fingerprint embedded in the header: byte order plus
/// the two sizes whose drift would silently re-interpret sections.
inline constexpr std::uint32_t kLayoutTag =
    (std::endian::native == std::endian::little ? 1u : 2u) |
    (static_cast<std::uint32_t>(sizeof(std::size_t)) << 8) |
    (static_cast<std::uint32_t>(sizeof(kernel::PairWindow)) << 16);

/// The decoded kMeta section: venue shape, provenance counters, and
/// the index configuration needed to reconstruct the TieredIndex
/// around the mapped shards.
struct ImageMeta {
  std::uint64_t locationCount = 0;
  std::uint64_t apCount = 0;
  /// MotionDatabase::locationCount() — may exceed locationCount (the
  /// motion world can know locations the survey never fingerprinted)
  /// but every fingerprinted id must lie below it.
  std::uint64_t adjacencyLocationCount = 0;
  std::uint64_t edgeCount = 0;
  /// WorldSnapshot provenance at write time.
  std::uint64_t generation = 0;
  std::uint64_t intakeRecords = 0;
  bool hasIndex = false;
  std::uint64_t shardCount = 0;
  /// Meaningful only when hasIndex (exhaustiveCheck/buildThreads are
  /// not persisted — one is a debug mode, the other build-only).
  index::IndexConfig index;
};

/// ceil(n / kRowBlock) * kRowBlock, the FlatMatrix padded row count.
inline std::uint64_t paddedRowCount(std::uint64_t rows) {
  return (rows + kernel::kRowBlock - 1) / kernel::kRowBlock *
         kernel::kRowBlock;
}

}  // namespace moloc::image
