#include "index/quantizer.hpp"

#include <cmath>
#include <string>

#include "util/error.hpp"

namespace moloc::index {

void validateQuantizer(const QuantizerConfig& config) {
  if (!std::isfinite(config.floorDbm))
    throw util::ConfigError("QuantizerConfig: non-finite floorDbm");
  if (!(config.bucketWidthDb > 0.0) ||
      !std::isfinite(config.bucketWidthDb))
    throw util::ConfigError(
        "QuantizerConfig: bucketWidthDb must be positive and finite");
  if (config.bucketCount < 2 || config.bucketCount > kMaxBucketCount)
    throw util::ConfigError(
        "QuantizerConfig: bucketCount must be in [2, " +
        std::to_string(kMaxBucketCount) + "], got " +
        std::to_string(config.bucketCount));
}

std::uint8_t quantizeRss(double rssDbm, const QuantizerConfig& config) {
  // NaN compares false, landing in bucket 0 alongside "not heard" —
  // the callers validate finiteness before trusting a reading, and the
  // quantizer itself stays total.
  if (!(rssDbm > config.floorDbm)) return 0;
  const double above = (rssDbm - config.floorDbm) / config.bucketWidthDb;
  const double bucket = 1.0 + std::floor(above);
  const double top = static_cast<double>(config.bucketCount - 1);
  return static_cast<std::uint8_t>(bucket < top ? bucket : top);
}

}  // namespace moloc::index
