#include "store/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "intake_state.hpp"
#include "store/crc32c.hpp"
#include "store/fault_injection.hpp"
#include "store/format.hpp"

namespace moloc::store {
namespace {

std::string freshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_ckpt_" + tag +
                          "_" + std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

using test_support::expectIdenticalIntakeState;

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() {
    plan_.addReferenceLocation({2.0, 2.0});
    plan_.addReferenceLocation({6.0, 2.0});
    plan_.addReferenceLocation({10.0, 2.0});
  }

  /// A database with busy reservoirs: small capacity so eviction (and
  /// thus the RNG stream) is exercised.  Built behind a unique_ptr —
  /// the intake mutex makes the database immovable.
  std::unique_ptr<core::OnlineMotionDatabase> populatedDb(
      std::uint64_t seed = 7) {
    auto db = std::make_unique<core::OnlineMotionDatabase>(
        plan_.positions(), core::BuilderConfig{}, /*reservoirCapacity=*/4,
        seed);
    for (int k = 0; k < 40; ++k) {
      db->addObservation(k % 2, 1 + k % 2, 88.0 + 0.2 * (k % 9),
                         3.7 + 0.02 * (k % 11));
    }
    return db;
  }

  env::FloorPlan plan_{12.0, 4.0};
};

TEST_F(CheckpointTest, SnapshotRestoreRoundTripsAndStaysInLockstep) {
  auto originalPtr = populatedDb();
  auto& original = *originalPtr;
  core::OnlineMotionDatabase restored(plan_.positions(), {}, 4, /*seed=*/999);
  restored.restore(original.snapshot());
  expectIdenticalIntakeState(original, restored);

  // The real contract: after restore, the two databases evolve in
  // lockstep — same acceptances, same evictions, same refits.
  for (int k = 0; k < 30; ++k) {
    const bool a = original.addObservation(0, 2, 89.5, 7.9 + 0.01 * k);
    const bool b = restored.addObservation(0, 2, 89.5, 7.9 + 0.01 * k);
    EXPECT_EQ(a, b);
  }
  expectIdenticalIntakeState(original, restored);
}

TEST_F(CheckpointTest, RestoreRefitsEvictedAndInvalidatedPairsExactly) {
  // The snapshot carries reservoirs, not entries: the first read after
  // restore() fits every pair.  Exercise both fit outcomes — pairs
  // with an entry after evictions, and a pair whose fine filter leaves
  // it without one — and check the counters come from the snapshot.
  core::BuilderConfig config;
  config.minSamplesPerPair = 3;
  config.fineSigmaMultiplier = 0.9;
  const auto feed = [](core::OnlineMotionDatabase& db, int from, int to) {
    std::vector<bool> accepted;
    for (int k = from; k < to; ++k) {
      // Pair (0,1) alternates blocks of three at 4.0 m and 6.9 m: the
      // second block makes it bimodal, and the fine filter (0.9 sigma)
      // drops every sample, leaving the pair without an entry.
      accepted.push_back(
          db.addObservation(0, 1, 90.0, (k / 3) % 2 == 0 ? 4.0 : 6.9));
      accepted.push_back(db.addObservation(
          1, 2, 89.0 + 0.4 * (k % 5), 3.9 + 0.05 * (k % 4)));
      accepted.push_back(db.addObservation(2, 0, 270.0 + 0.5 * (k % 3),
                                           8.0 + 0.03 * (k % 7)));
      if (k % 9 == 4) accepted.push_back(db.addObservation(1, 1, 0.0, 0.0));
      if (k % 11 == 7)
        accepted.push_back(db.addObservation(0, 1, 179.0, 4.0));
    }
    return accepted;
  };
  const auto expectEqualCounters = [](const core::OnlineMotionDatabase& a,
                                      const core::OnlineMotionDatabase& b) {
    const auto ca = a.counters();
    const auto cb = b.counters();
    EXPECT_EQ(ca.observations, cb.observations);
    EXPECT_EQ(ca.accepted, cb.accepted);
    EXPECT_EQ(ca.rejectedCoarse, cb.rejectedCoarse);
    EXPECT_EQ(ca.droppedSelfPairs, cb.droppedSelfPairs);
  };

  core::OnlineMotionDatabase original(plan_.positions(), config,
                                      /*reservoirCapacity=*/6, 5);
  // After 20 rounds (0,1) holds a full, bimodal reservoir that
  // supports no entry; the rest of the feed gives it one again and
  // then takes it away.
  feed(original, 0, 20);
  const auto counters = original.counters();
  ASSERT_GT(counters.rejectedCoarse, 0u);
  ASSERT_GT(counters.droppedSelfPairs, 0u);
  const auto stats = original.reservoirStats();
  ASSERT_GT(stats.totalSeen, stats.totalSamples);  // Evictions ran.
  const auto db = original.database();
  ASSERT_GT(db.entryCount(), 0u);
  ASSERT_FALSE(db.hasEntry(0, 1));
  ASSERT_FALSE(db.hasEntry(1, 0));
  ASSERT_EQ(original.reservoirSamples(0, 1).size(), 6u);

  core::OnlineMotionDatabase restored(plan_.positions(), {}, 64, /*seed=*/999);
  restored.restore(original.snapshot());
  expectIdenticalIntakeState(original, restored);
  expectEqualCounters(original, restored);

  EXPECT_EQ(feed(original, 20, 60), feed(restored, 20, 60));
  expectIdenticalIntakeState(original, restored);
  expectEqualCounters(original, restored);
}

TEST_F(CheckpointTest, FileRoundTripIsExact) {
  const std::string dir = freshDir("roundtrip");
  auto dbPtr = populatedDb();
  auto& db = *dbPtr;

  const std::string path = writeCheckpointFile(dir, 42, db.snapshot());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 42u);
  EXPECT_EQ(loaded->skippedInvalid, 0u);

  core::OnlineMotionDatabase restored(plan_.positions());
  restored.restore(loaded->data.snapshot);
  expectIdenticalIntakeState(db, restored);
}

TEST_F(CheckpointTest, RewriteReplacesTheFileWholeAndLeavesNoTemporary) {
  const std::string dir = freshDir("rewrite");
  auto firstPtr = populatedDb(/*seed=*/7);
  auto secondPtr = populatedDb(/*seed=*/8);
  const std::string path = writeCheckpointFile(dir, 42, firstPtr->snapshot());
  EXPECT_EQ(writeCheckpointFile(dir, 42, secondPtr->snapshot()), path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->skippedInvalid, 0u);
  core::OnlineMotionDatabase restored(plan_.positions());
  restored.restore(loaded->data.snapshot);
  expectIdenticalIntakeState(*secondPtr, restored);
}

TEST_F(CheckpointTest, FailedWriteNamesThePath) {
  const auto snapshot = populatedDb()->snapshot();
  const auto expectStoreErrorNaming = [&](const std::string& dir,
                                          const std::string& named) {
    try {
      writeCheckpointFile(dir, 42, snapshot);
      ADD_FAILURE() << "expected a StoreError naming " << named;
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  };

  // The directory cannot be created: a regular file holds its name.
  const std::string blocked = freshDir("blocked");
  std::ofstream(blocked) << "not a directory";
  expectStoreErrorNaming(blocked, blocked);

  // The final rename fails: a directory holds the checkpoint's name.
  // The temporary is removed, not left behind.
  const std::string dir = freshDir("occupied");
  const std::string path = writeCheckpointFile(dir, 42, snapshot);
  std::filesystem::remove(path);
  std::filesystem::create_directory(path);
  expectStoreErrorNaming(dir, path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CheckpointTest, EmptyDirectoryLoadsNothing) {
  EXPECT_FALSE(loadNewestCheckpoint(freshDir("none")).has_value());
}

TEST_F(CheckpointTest, CorruptNewestFallsBackToOlder) {
  const std::string dir = freshDir("fallback");
  auto dbPtr = populatedDb();
  auto& db = *dbPtr;

  writeCheckpointFile(dir, 10, db.snapshot());

  db.addObservation(0, 1, 90.0, 4.0);
  const std::string newerPath = writeCheckpointFile(dir, 20, db.snapshot());

  testing::FaultFile(newerPath).flipByte(100);

  // Newest of all, a CRC-valid file in the retired v2 layout: version
  // 2, and two more u64 counters after the four v3 keeps.
  const std::string v2Path = writeCheckpointFile(dir, 30, db.snapshot());
  std::string v2;
  {
    std::ifstream in(v2Path, std::ios::binary);
    v2.assign(std::istreambuf_iterator<char>(in), {});
  }
  v2.resize(v2.size() - 4);  // Drop the CRC.
  std::string version;
  detail::putU32(version, 2);
  v2.replace(8, version.size(), version);  // After the magic.
  const std::size_t countersEnd = 8 + 4 + 8 + 46 + 16 + 32 + 32;
  v2.insert(countersEnd, std::string(16, '\0'));
  detail::putU32(v2, crc32c(v2.data(), v2.size()));
  std::ofstream(v2Path, std::ios::binary | std::ios::trunc) << v2;

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 10u);
  EXPECT_EQ(loaded->skippedInvalid, 2u);
  // The corrupt files are evidence; loading must not delete them.
  EXPECT_TRUE(std::filesystem::exists(newerPath));
  EXPECT_TRUE(std::filesystem::exists(v2Path));
}

TEST_F(CheckpointTest, StrayTmpAndForeignFilesAreIgnored) {
  const std::string dir = freshDir("stray");
  const std::string path = writeCheckpointFile(
      dir, 5, core::OnlineMotionDatabase(plan_.positions()).snapshot());

  // A crash mid-publish leaves a .tmp; operators leave notes.
  std::ofstream(path + ".tmp") << "torn half-written checkpoint";
  std::ofstream(dir + "/README") << "not a checkpoint";
  std::ofstream(dir + "/checkpoint-99999999999999999999.ckpt.bak") << "x";

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 5u);
  EXPECT_EQ(loaded->skippedInvalid, 0u);
}

TEST_F(CheckpointTest, NameContentSeqMismatchIsSkipped) {
  const std::string dir = freshDir("mismatch");
  const std::string path = writeCheckpointFile(
      dir, 5, core::OnlineMotionDatabase(plan_.positions()).snapshot());
  // Forge a "newer" checkpoint by renaming: contents still say 5.
  std::filesystem::rename(
      path, dir + "/checkpoint-00000000000000000009.ckpt");
  EXPECT_FALSE(loadNewestCheckpoint(dir).has_value());
}

TEST_F(CheckpointTest, PruneKeepsNewest) {
  const std::string dir = freshDir("prune");
  const auto snapshot =
      core::OnlineMotionDatabase(plan_.positions()).snapshot();
  for (std::uint64_t seq : {3u, 7u, 11u, 15u})
    writeCheckpointFile(dir, seq, snapshot);
  EXPECT_EQ(pruneCheckpoints(dir, 2), 2u);
  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 15u);
  std::size_t remaining = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    remaining += entry.path().extension() == ".ckpt" ? 1 : 0;
  EXPECT_EQ(remaining, 2u);
  EXPECT_THROW(pruneCheckpoints(dir, 0), std::invalid_argument);
}

TEST_F(CheckpointTest, RestoreValidatesAgainstThisDatabase) {
  auto dbPtr = populatedDb();
  auto& db = *dbPtr;
  const auto good = db.snapshot();

  {  // Wrong floor plan size.
    auto bad = good;
    bad.locationCount = 99;
    core::OnlineMotionDatabase target(plan_.positions());
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {  // Non-canonical pair key.
    auto bad = good;
    ASSERT_FALSE(bad.reservoirs.empty());
    std::swap(bad.reservoirs[0].i, bad.reservoirs[0].j);
    core::OnlineMotionDatabase target(plan_.positions());
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {  // Reservoir above capacity.
    auto bad = good;
    bad.capacity = 1;
    core::OnlineMotionDatabase target(plan_.positions());
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {  // Zero RNG state (xoshiro fixed point).
    auto bad = good;
    bad.rngState = {0, 0, 0, 0};
    core::OnlineMotionDatabase target(plan_.positions());
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  // A failed restore leaves the target untouched (strong guarantee).
  core::OnlineMotionDatabase target(plan_.positions());
  auto bad = good;
  bad.locationCount = 99;
  try {
    target.restore(bad);
  } catch (const std::invalid_argument&) {
  }
  EXPECT_EQ(target.trackedPairs(), 0u);
  target.restore(good);  // And the good one still lands.
  expectIdenticalIntakeState(db, target);
}

}  // namespace
}  // namespace moloc::store
