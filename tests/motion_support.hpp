#pragma once

// Motion-database helpers shared by the tests: a builder for small
// hand-written databases, and FNV-1a digests that pin a builder's
// output bitwise.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/motion_database.hpp"

namespace moloc::test_support {

/// A walkable leg i -> j, stored with its mirror j -> i.
struct Leg {
  env::LocationId i = 0;
  env::LocationId j = 0;
  core::RlmStats stats;
};

/// A database over `locationCount` locations holding every leg and its
/// mirror.
inline core::MotionDatabase mirroredDb(std::size_t locationCount,
                                       std::initializer_list<Leg> legs) {
  std::vector<core::MotionEntry> entries;
  for (const Leg& leg : legs)
    core::appendWithMirror(entries, leg.i, leg.j, leg.stats);
  return core::MotionDatabase(locationCount, entries);
}

/// 64-bit FNV-1a, fed eight little-endian bytes per value.
class Fnv64 {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }

  /// Every entry — (i, j, the four doubles' bit patterns, sampleCount)
  /// — in forEachEntry's row-major order.
  void mix(const core::MotionDatabase& db) {
    db.forEachEntry(
        [this](env::LocationId i, env::LocationId j, const core::RlmStats& s) {
          mix(static_cast<std::uint64_t>(i));
          mix(static_cast<std::uint64_t>(j));
          mix(std::bit_cast<std::uint64_t>(s.muDirectionDeg));
          mix(std::bit_cast<std::uint64_t>(s.sigmaDirectionDeg));
          mix(std::bit_cast<std::uint64_t>(s.muOffsetMeters));
          mix(std::bit_cast<std::uint64_t>(s.sigmaOffsetMeters));
          mix(static_cast<std::uint64_t>(s.sampleCount));
        });
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace moloc::test_support
