#pragma once

// Bitwise equality of two intake states, shared by the recovery tests:
// the contract is "identical", not "close".

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/online_motion_database.hpp"

namespace moloc::test_support {

inline std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// Compares what the intake's future behaviour and its readers depend
/// on: RNG state, every reservoir sample, the accepted counter, and
/// every entry's four moments and sample count.  The
/// admission counters (observations, rejectedCoarse, droppedSelfPairs)
/// are left out: rejected observations never reach the WAL, so a
/// recovery may lag them by design.
inline void expectIdenticalIntakeState(
    const core::OnlineMotionDatabase& a,
    const core::OnlineMotionDatabase& b) {
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_EQ(sa.rngState, sb.rngState);
  EXPECT_EQ(sa.counters.accepted, sb.counters.accepted);
  ASSERT_EQ(sa.reservoirs.size(), sb.reservoirs.size());
  for (std::size_t p = 0; p < sa.reservoirs.size(); ++p) {
    const auto& ra = sa.reservoirs[p];
    const auto& rb = sb.reservoirs[p];
    EXPECT_EQ(ra.i, rb.i);
    EXPECT_EQ(ra.j, rb.j);
    EXPECT_EQ(ra.seen, rb.seen);
    ASSERT_EQ(ra.samples.size(), rb.samples.size());
    for (std::size_t k = 0; k < ra.samples.size(); ++k) {
      EXPECT_EQ(bits(ra.samples[k].directionDeg),
                bits(rb.samples[k].directionDeg));
      EXPECT_EQ(bits(ra.samples[k].offsetMeters),
                bits(rb.samples[k].offsetMeters));
    }
  }

  using Entry = std::tuple<env::LocationId, env::LocationId,
                           core::RlmStats>;
  const auto entries = [](const core::OnlineMotionDatabase& db) {
    std::vector<Entry> out;
    db.database().forEachEntry(
        [&](env::LocationId i, env::LocationId j,
            const core::RlmStats& stats) { out.emplace_back(i, j, stats); });
    return out;
  };
  const auto ea = entries(a);
  const auto eb = entries(b);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t e = 0; e < ea.size(); ++e) {
    const auto& [ai, aj, as] = ea[e];
    const auto& [bi, bj, bs] = eb[e];
    EXPECT_EQ(ai, bi);
    EXPECT_EQ(aj, bj);
    EXPECT_EQ(bits(as.muDirectionDeg), bits(bs.muDirectionDeg));
    EXPECT_EQ(bits(as.sigmaDirectionDeg), bits(bs.sigmaDirectionDeg));
    EXPECT_EQ(bits(as.muOffsetMeters), bits(bs.muOffsetMeters));
    EXPECT_EQ(bits(as.sigmaOffsetMeters), bits(bs.sigmaOffsetMeters));
    EXPECT_EQ(as.sampleCount, bs.sampleCount);
  }
}

}  // namespace moloc::test_support
