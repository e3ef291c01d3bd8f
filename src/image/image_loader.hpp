#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/motion_database.hpp"
#include "image/format.hpp"
#include "index/tiered_index.hpp"
#include "radio/fingerprint_database.hpp"

namespace moloc::image {

/// How much of the file the loader checksums before serving it.
/// Structural validation (header, table CRC, section bounds, overlap
/// and alignment checks, row-start monotonicity, shard geometry, id
/// ranges) ALWAYS runs in every mode — memory safety never depends on
/// this knob.
enum class VerifyMode {
  /// CRC every section.  The default; detects any bit flip, at the
  /// cost of touching every byte (so load time grows with the image).
  kFull,
  /// CRC the metadata-sized sections only (meta, ids, row starts,
  /// shard table, active-AP tables, bucket ranges, column profiles)
  /// and skip the bulk arrays (flat matrix, edges, signatures).  This
  /// is the millisecond cold-attach path for images the same host just
  /// wrote and published atomically; bulk content is still
  /// bounds-safe, merely not re-checksummed.
  kBulkUnverified,
};

/// A loaded venue image: the mapping plus zero-copy serving structures
/// built over it.  All accessors hand out shared_ptrs whose control
/// blocks pin the mapping, so a caller can drop the VenueImage and
/// keep any piece alive independently — the bytes cannot be unmapped
/// out from under a view.
///
/// Construction performs no parsing or allocation proportional to the
/// bulk data: the FlatMatrix (the radio map's only copy), the motion
/// database's CSR rows, and index shards are views into the mapping.
/// The only O(n) work is the small per-row tables (the id table and
/// its hash) — bytes, not megabytes, per location.
class VenueImage {
 public:
  /// Maps `path` read-only and fully validates it: load cost is
  /// independent of venue size (pages fault in lazily from the page
  /// cache).  Throws ImageError for any format damage and
  /// store::StoreError for I/O failures.
  static VenueImage open(const std::string& path,
                         VerifyMode verify = VerifyMode::kFull);

  /// Parses an in-memory buffer (copies it) with the same validation
  /// as open(): the fuzz surface and the fault-injection tests go
  /// through here.
  static VenueImage fromBuffer(std::span<const std::uint8_t> bytes,
                               VerifyMode verify = VerifyMode::kFull);

  const ImageMeta& meta() const { return meta_; }
  std::size_t locationCount() const { return meta_.locationCount; }
  std::size_t apCount() const { return meta_.apCount; }
  bool hasIndex() const { return index_ != nullptr; }
  /// Whether the bytes are an actual mmap (false after fromBuffer).
  bool mapped() const { return mapped_; }

  const std::shared_ptr<const radio::FingerprintDatabase>& fingerprints()
      const {
    return fingerprints_;
  }
  const std::shared_ptr<const core::MotionDatabase>& adjacency() const {
    return adjacency_;
  }
  /// Null when the image was written without an index.
  const std::shared_ptr<const index::TieredIndex>& tieredIndex() const {
    return index_;
  }

 private:
  struct Core;

  VenueImage() = default;
  static VenueImage load(std::shared_ptr<Core> core, VerifyMode verify);

  std::shared_ptr<const Core> core_;
  std::shared_ptr<const radio::FingerprintDatabase> fingerprints_;
  std::shared_ptr<const core::MotionDatabase> adjacency_;
  std::shared_ptr<const index::TieredIndex> index_;
  ImageMeta meta_;
  bool mapped_ = false;
};

}  // namespace moloc::image
