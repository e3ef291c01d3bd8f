#include "index/quantizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace moloc::index {
namespace {

TEST(QuantizerTest, ValidatesConfig) {
  QuantizerConfig config;
  EXPECT_NO_THROW(validateQuantizer(config));

  config.bucketCount = 1;
  EXPECT_THROW(validateQuantizer(config), std::invalid_argument);
  config.bucketCount = kMaxBucketCount + 1;
  EXPECT_THROW(validateQuantizer(config), std::invalid_argument);

  config = QuantizerConfig{};
  config.bucketWidthDb = 0.0;
  EXPECT_THROW(validateQuantizer(config), std::invalid_argument);
  config.bucketWidthDb = -1.0;
  EXPECT_THROW(validateQuantizer(config), std::invalid_argument);

  config = QuantizerConfig{};
  config.floorDbm = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validateQuantizer(config), std::invalid_argument);
}

TEST(QuantizerTest, FloorAndBelowIsNotHeard) {
  const QuantizerConfig config;  // floor -100, width 8, 8 buckets.
  EXPECT_EQ(quantizeRss(-100.0, config), 0);
  EXPECT_EQ(quantizeRss(-150.0, config), 0);
  EXPECT_EQ(quantizeRss(-std::numeric_limits<double>::infinity(), config),
            0);
  // NaN must map somewhere total rather than poison the index; it maps
  // to "not heard".
  EXPECT_EQ(quantizeRss(std::numeric_limits<double>::quiet_NaN(), config),
            0);
  // Just above the floor is the first heard bucket.
  EXPECT_EQ(quantizeRss(-99.9, config), 1);
}

TEST(QuantizerTest, BucketsAreMonotoneAndClamped) {
  const QuantizerConfig config;
  std::uint8_t prev = 0;
  for (double rss = -120.0; rss <= 0.0; rss += 0.25) {
    const std::uint8_t bucket = quantizeRss(rss, config);
    EXPECT_GE(bucket, prev) << "rss " << rss;
    EXPECT_LT(bucket, config.bucketCount);
    prev = bucket;
  }
  // Strong signals clamp to the top bucket.
  EXPECT_EQ(quantizeRss(0.0, config), config.bucketCount - 1);
  EXPECT_EQ(quantizeRss(-35.0, config), config.bucketCount - 1);
}

// The contract the prefilter's lower bound rests on: bucket distance
// (minus one bucket of slack) never exceeds the dB distance / width.
TEST(QuantizerTest, BucketDistanceLowerBoundsDbDistance) {
  const QuantizerConfig config;
  util::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const double a = rng.uniform(-130.0, -20.0);
    const double b = rng.uniform(-130.0, -20.0);
    const int qa = quantizeRss(a, config);
    const int qb = quantizeRss(b, config);
    const int gap = qa > qb ? qa - qb : qb - qa;
    if (gap <= 1) continue;  // The slack covers adjacent buckets.
    // Both heard (gap > 1 implies at least one heard; if the other is
    // unheard its reading is <= floor so the dB gap is even larger).
    EXPECT_GT(std::abs(a - b),
              (gap - 1) * config.bucketWidthDb - 1e-9)
        << a << " vs " << b;
  }
}

}  // namespace
}  // namespace moloc::index
