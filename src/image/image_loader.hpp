#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/world_snapshot.hpp"
#include "image/format.hpp"

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

/// A loaded venue image: the mapping plus the serving world built over
/// it.  Every handle of that world pins the mapping through its
/// control block, so a caller can drop the VenueImage (and the world)
/// and keep any piece alive independently — the bytes cannot be
/// unmapped out from under a view.
///
/// Construction performs no parsing or allocation proportional to the
/// bulk data: the FlatMatrix (the radio map's only copy), the motion
/// database's CSR rows, and index shards are views into the mapping.
/// The only O(n) work is the small per-location tables (the id table
/// and its hash, and a copy of the reference coordinates) — bytes, not
/// megabytes, per location.
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
  /// Whether the bytes are an actual mmap (false after fromBuffer).
  bool mapped() const { return mapped_; }

  /// The world the image stores, as a service serves it: radio map,
  /// motion database, reference coordinates, the embedded index (null
  /// when written without one), and the generation and intake-record
  /// count it was written at.
  const std::shared_ptr<const core::WorldSnapshot>& world() const {
    return world_;
  }

 private:
  struct Core;

  VenueImage() = default;
  static VenueImage load(std::shared_ptr<Core> core, VerifyMode verify);

  std::shared_ptr<const core::WorldSnapshot> world_;
  ImageMeta meta_;
  bool mapped_ = false;
};

}  // namespace moloc::image
