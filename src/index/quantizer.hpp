#pragma once

#include <cstdint>

namespace moloc::index {

/// Maps an RSS reading to a few-bit bucket for the prefilter tier.
///
/// Bucket 0 is reserved for "not heard" (readings at or below the
/// detection floor), which makes AP absence first-class in the index:
/// a location that does not hear an AP is at least one bucket away
/// from every location that does.
struct QuantizerConfig {
  /// Readings at or below this are "not heard" (bucket 0).  Matches
  /// radio::PropagationParams::detectionFloorDbm by default.
  double floorDbm = -100.0;
  /// Width in dB of each heard bucket above the floor.
  double bucketWidthDb = 8.0;
  /// Total buckets including bucket 0.  Must be in
  /// [2, kMaxBucketCount].
  int bucketCount = 8;
};

/// Upper bound on QuantizerConfig::bucketCount.
inline constexpr int kMaxBucketCount = 16;

/// Throws std::invalid_argument when the config is unusable
/// (non-finite floor, non-positive width, bucketCount out of range).
void validateQuantizer(const QuantizerConfig& config);

/// The bucket of one RSS reading: 0 when not heard, else
/// 1 + floor((rss - floor) / width) clamped to bucketCount - 1.
///
/// The quantizer's contract with the prefilter: for any two readings
/// with buckets qa, qb, |rssA - rssB| > (|qa - qb| - 1) * width — so a
/// bucket-space L1 distance is, up to one bucket of slack per AP, a
/// lower bound on the dB-space L1 distance.
std::uint8_t quantizeRss(double rssDbm, const QuantizerConfig& config);

}  // namespace moloc::index
