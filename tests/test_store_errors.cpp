// Typed-error contract of the durable-state parsers: malformed frames
// and headers must raise store::CorruptionError (a StoreError, a
// std::runtime_error) or be skipped where the API documents skipping —
// never crash, never allocate unboundedly, never surface an untyped
// exception.  Companion to the fuzz harnesses in fuzz/targets/, which
// found several of these paths (see fuzz/corpus/regressions/).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "store/checkpoint.hpp"
#include "store/crc32c.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"

namespace moloc::store {
namespace {

std::string freshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_err_" + tag + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string walHeader(std::uint64_t firstSeq) {
  std::string out("MOLOCWAL", 8);
  detail::putU32(out, 1);
  detail::putU64(out, firstSeq);
  return out;
}

std::string walRecord(std::uint64_t seq) {
  std::string payload;
  detail::putU8(payload, 1);  // observation type
  detail::putU64(payload, seq);
  detail::putI32(payload, 0);
  detail::putI32(payload, 1);
  detail::putF64(payload, 90.0);
  detail::putF64(payload, 4.5);
  std::string frame;
  detail::putU32(frame, static_cast<std::uint32_t>(payload.size()));
  detail::putU32(frame, crc32c(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

// The exception hierarchy is part of the contract: callers classify
// damage with catch (const CorruptionError&) and fall back to
// StoreError / runtime_error for plain I/O failure.
TEST(StoreErrors, CorruptionErrorIsTypedStoreError) {
  const CorruptionError err("x");
  const StoreError* asStore = &err;
  const std::runtime_error* asRuntime = asStore;
  EXPECT_NE(nullptr, asRuntime);
}

TEST(StoreErrors, ZeroLengthRecordFrameRaisesCorruption) {
  const std::string dir = freshDir("zero_len");
  // A CRC-valid frame with zero payload bytes: the checksum passes, so
  // the structural parse must reject it (no type byte to read) —
  // and with the typed error, not a crash.
  std::string segment = walHeader(1);
  detail::putU32(segment, 0);
  detail::putU32(segment, crc32c("", 0));
  writeFileBytes(dir + "/wal-0000000000000001.log", segment);
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(StoreErrors, OversizedLengthFieldMidLogRaisesCorruption) {
  const std::string dir = freshDir("oversized_mid");
  std::string segment = walHeader(1);
  detail::putU32(segment, 1u << 20);  // Over the parsing sanity bound.
  detail::putU32(segment, 0xdeadbeef);
  segment += walRecord(1);  // Valid data after: cannot be a torn tail.
  writeFileBytes(dir + "/wal-0000000000000001.log", segment);
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(StoreErrors, OversizedLengthFieldAtTailIsToleratedAsTorn) {
  const std::string dir = freshDir("oversized_tail");
  std::string segment = walHeader(1);
  segment += walRecord(1);
  detail::putU32(segment, 1u << 20);
  detail::putU32(segment, 0xdeadbeef);
  writeFileBytes(dir + "/wal-0000000000000001.log", segment);
  const WalScan scan = WalReader(dir).scan();
  EXPECT_TRUE(scan.tailDamaged);
  EXPECT_EQ(1u, scan.records);  // The record before the damage survives.
}

TEST(StoreErrors, TruncatedHeaderInNonFinalSegmentRaisesCorruption) {
  const std::string dir = freshDir("trunc_header");
  // A headerless file behind a later segment cannot be crash fallout:
  // writers create segments in order and never leave one torn behind.
  writeFileBytes(dir + "/wal-0000000000000001.log",
                 walHeader(1).substr(0, 10));
  writeFileBytes(dir + "/wal-0000000000000002.log", walHeader(1));
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(StoreErrors, TruncatedCheckpointHeaderIsSkipped) {
  const std::string dir = freshDir("ckpt_trunc");
  writeFileBytes(dir + "/checkpoint-00000000000000000001.ckpt",
                 std::string("MOLOCKPT", 8));
  EXPECT_FALSE(loadNewestCheckpoint(dir).has_value());
}

TEST(StoreErrors, CheckpointCountBombIsRejectedWithoutAllocating) {
  const std::string dir = freshDir("ckpt_bomb");
  // CRC-valid checkpoint whose reservoir count claims 2^40 pairs.  A
  // decoder that reserved from the unvalidated count would attempt a
  // multi-terabyte allocation (v1's radio-map block had exactly this
  // bug with its AP count).
  std::string body("MOLOCKPT", 8);
  detail::putU32(body, 2);  // version
  detail::putU64(body, 1);  // throughSeq
  detail::putF64(body, 15.0);
  detail::putF64(body, 2.0);
  detail::putF64(body, 3.0);
  detail::putI32(body, 2);
  detail::putF64(body, 1.0);
  detail::putF64(body, 0.05);
  detail::putU8(body, 1);
  detail::putU8(body, 1);
  detail::putU64(body, 4);  // capacity
  detail::putU64(body, 3);  // locationCount
  for (int w = 0; w < 4; ++w) detail::putU64(body, 17 + w);  // rng
  for (int c = 0; c < 6; ++c) detail::putU64(body, 0);       // counters
  detail::putU64(body, std::uint64_t{1} << 40);  // reservoirs
  detail::putU32(body, crc32c(body.data(), body.size()));
  writeFileBytes(dir + "/checkpoint-00000000000000000001.ckpt", body);
  // The loader's contract is skip-not-throw; completing at all (and
  // fast) is the regression being pinned.
  EXPECT_FALSE(loadNewestCheckpoint(dir).has_value());
}

TEST(StoreErrors, CheckpointSeqOverflowInFileNameIsIgnored) {
  const std::string dir = freshDir("ckpt_overflow");
  // 20 decimal digits can exceed uint64; a wrapped parse would
  // mis-order checkpoints, so the name must simply not parse.
  writeFileBytes(dir + "/checkpoint-99999999999999999999.ckpt", "junk");
  EXPECT_FALSE(loadNewestCheckpoint(dir).has_value());
}

}  // namespace
}  // namespace moloc::store
