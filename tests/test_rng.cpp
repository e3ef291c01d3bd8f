#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

namespace moloc::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i)
    if (a() != b()) ++differing;
  EXPECT_GT(differing, 12);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniformInt(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    sawLo = sawLo || x == 0;
    sawHi = sawHi || x == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  double sumSq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, NormalWithZeroStddevReturnsTheMeanAndKeepsTheStream) {
  for (const double mean : {-3.5, 0.0, 7.25}) {
    Rng rng(19);
    Rng twin(19);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(rng.normal(mean, 0.0), mean);
      twin.normal(mean, 1.0);
      ASSERT_EQ(rng.state(), twin.state()) << "draw " << i;
    }
  }
}

TEST(Rng, NormalMatchesTheLibraryDistributionBitwise) {
  Rng rng(23);
  Rng twin(23);
  for (int i = 0; i < 1000; ++i) {
    const double mean = -60.0 + 0.5 * (i % 7);
    const double stddev = 0.25 + 0.75 * (i % 5);
    const double expected =
        std::normal_distribution<double>(mean, stddev)(twin);
    const double x = rng.normal(mean, stddev);
    ASSERT_EQ(std::memcmp(&x, &expected, sizeof(double)), 0)
        << "draw " << i;
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, UniformIndexStaysBelowBound) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i)
    EXPECT_LT(rng.uniformIndex(7), 7u);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(rng.uniformIndex(1), 0u);
}

TEST(Rng, UniformIndexZeroBoundThrows) {
  Rng rng(23);
  EXPECT_THROW(rng.uniformIndex(0), std::invalid_argument);
}

TEST(Rng, UniformIndexRoughlyUniform) {
  Rng rng(29);
  const std::uint64_t bound = 5;
  const int n = 50000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.uniformIndex(bound)];
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c), n / 5.0, n / 5.0 * 0.05);
}

TEST(Rng, UniformIndexHandlesBoundsBeyond32Bits) {
  // The motivating bug: reservoir `seen` counters were squeezed
  // through int before drawing a slot.  Verify draws against a bound
  // past 2^32 stay in range and actually reach the upper region.
  Rng rng(31);
  const std::uint64_t bound = (1ULL << 33) + 12345;
  bool sawHigh = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng.uniformIndex(bound);
    EXPECT_LT(x, bound);
    sawHigh = sawHigh || x > (1ULL << 32);
  }
  EXPECT_TRUE(sawHigh);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  // The child stream should differ from the parent's continued stream.
  int differing = 0;
  for (int i = 0; i < 16; ++i)
    if (parent() != child()) ++differing;
  EXPECT_GT(differing, 12);
}

}  // namespace
}  // namespace moloc::util
