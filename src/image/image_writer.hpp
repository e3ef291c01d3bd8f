#pragma once

#include <cstdint>
#include <string>

#include "core/world_snapshot.hpp"
#include "image/format.hpp"

namespace moloc::image {

/// What writeVenueImage produced (logging and benches).
struct ImageWriteInfo {
  std::uint64_t bytes = 0;
  std::size_t sections = 0;
};

/// Serializes a live world into a venue image at `path` using the
/// store's crash discipline: stream to `path`.tmp, fsync, rename over
/// `path`, fsync the directory — a crash leaves the old image or the
/// new one, never a torn file.  The world's fingerprints and reference
/// coordinates must be non-null, every coordinate finite, and every
/// fingerprinted location id a valid row of the world's adjacency
/// (that is the invariant serving relies on; the loader re-checks
/// it).  The snapshot's tiered index, when present, is embedded so the
/// loader skips the index build.
///
/// Sections are streamed in bounded chunks with incremental CRC32C —
/// a campus-64k image is ~900 MB and is never materialized in memory.
///
/// Throws ImageError on semantic violations (null fingerprints or
/// coordinates, a non-finite coordinate, an id outside the adjacency)
/// and store::StoreError on I/O failures.
ImageWriteInfo writeVenueImage(const std::string& path,
                               const core::WorldSnapshot& world);

}  // namespace moloc::image
