#include "store/state_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "intake_state.hpp"
#include "obs/metrics.hpp"
#include "store/fault_injection.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"

namespace moloc::store {
namespace {

constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kFrameBytes = 41;

std::string freshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_store_" + tag +
                          "_" + std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

struct Obs {
  env::LocationId start, end;
  double directionDeg, offsetMeters;
};

/// A stream with accepted, coarse-rejected, and self-pair observations
/// mixed in — rejections must never reach the log.
std::vector<Obs> mixedStream(int n) {
  std::vector<Obs> out;
  for (int k = 0; k < n; ++k) {
    if (k % 7 == 3) {
      out.push_back({0, 1, 179.0, 4.0});  // Coarse-rejected (direction).
    } else if (k % 11 == 5) {
      out.push_back({1, 1, 90.0, 0.0});  // Self-pair.
    } else {
      const env::LocationId a = k % 2, b = 1 + k % 2;
      out.push_back({a, b, 87.0 + 0.3 * (k % 13), 3.6 + 0.03 * (k % 17)});
    }
  }
  return out;
}

using test_support::expectIdenticalIntakeState;

class StateStoreTest : public ::testing::Test {
 protected:
  StateStoreTest() {
    plan_.addReferenceLocation({2.0, 2.0});
    plan_.addReferenceLocation({6.0, 2.0});
    plan_.addReferenceLocation({10.0, 2.0});
  }

  /// Small reservoirs: eviction — and therefore the RNG stream — is in
  /// play for every durability test.
  core::OnlineMotionDatabase makeDb(std::uint64_t seed = 11) {
    return core::OnlineMotionDatabase(plan_.positions(), {},
                                      /*reservoirCapacity=*/4, seed);
  }

  env::FloorPlan plan_{12.0, 4.0};
};

TEST_F(StateStoreTest, AcceptedObservationsAreLoggedRejectionsAreNot) {
  const std::string dir = freshDir("filter");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  StateStore store(dir, config);
  db.setSink(&store);

  std::uint64_t accepted = 0;
  for (const auto& o : mixedStream(50))
    accepted += db.addObservation(o.start, o.end, o.directionDeg,
                                  o.offsetMeters)
                    ? 1
                    : 0;
  ASSERT_GT(accepted, 0u);
  ASSERT_LT(accepted, 50u);  // The stream really is mixed.
  EXPECT_EQ(store.lastSeq(), accepted);
  EXPECT_EQ(store.walStats().records, accepted);
  EXPECT_EQ(store.recordsSinceCheckpoint(), accepted);
}

TEST_F(StateStoreTest, RecoverFromWalOnlyIsBitIdentical) {
  const std::string dir = freshDir("walonly");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  {
    StateStore store(dir, config);
    db.setSink(&store);
    for (const auto& o : mixedStream(60))
      db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters);
    db.setSink(nullptr);
  }

  // Without a checkpoint there is no RNG state to restore: WAL-only
  // recovery reproduces the original only from the same initial state
  // (same seed, config, and capacity the database was born with).
  auto recovered = makeDb();
  const RecoveryResult result = recover(dir, recovered);
  EXPECT_FALSE(result.checkpointLoaded);
  EXPECT_EQ(result.replayedRecords, db.counters().accepted);
  EXPECT_EQ(result.skippedRecords, 0u);
  EXPECT_FALSE(result.droppedTornTail);
  expectIdenticalIntakeState(db, recovered);
}

TEST_F(StateStoreTest, CheckpointPlusTailReplayIsBitIdentical) {
  const std::string dir = freshDir("ckpt_tail");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  StateStore store(dir, config);
  db.setSink(&store);

  const auto stream = mixedStream(80);
  for (int k = 0; k < 50; ++k)
    db.addObservation(stream[k].start, stream[k].end,
                      stream[k].directionDeg, stream[k].offsetMeters);
  const CheckpointInfo info = store.checkpoint(db);
  EXPECT_EQ(info.throughSeq, store.lastSeq());
  EXPECT_EQ(store.recordsSinceCheckpoint(), 0u);

  for (int k = 50; k < 80; ++k)
    db.addObservation(stream[k].start, stream[k].end,
                      stream[k].directionDeg, stream[k].offsetMeters);
  const std::uint64_t tail = store.lastSeq() - info.throughSeq;
  db.setSink(nullptr);

  auto recovered = makeDb(999);
  const RecoveryResult result = recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  EXPECT_EQ(result.checkpointSeq, info.throughSeq);
  EXPECT_EQ(result.replayedRecords, tail);
  EXPECT_EQ(result.lastSeq, store.lastSeq());
  expectIdenticalIntakeState(db, recovered);
  // Documented caveat: coarse rejections after the checkpoint are not
  // logged, so the recovered rejection counters can lag the originals.
  EXPECT_LE(recovered.counters().rejectedCoarse,
            db.counters().rejectedCoarse);
}

/// The acceptance property: kill the process at ANY record boundary —
/// or tear/flip the tail — and recovery rebuilds exactly the state the
/// surviving prefix describes.
TEST_F(StateStoreTest, KillAtAnyRecordBoundaryRecoversExactPrefix) {
  const std::string srcDir = freshDir("kill_src");
  auto db = makeDb();
  std::vector<Obs> acceptedArgs;  // Original args of accepted records.
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  {
    StateStore store(srcDir, config);
    db.setSink(&store);
    for (const auto& o : mixedStream(40)) {
      if (db.addObservation(o.start, o.end, o.directionDeg,
                            o.offsetMeters))
        acceptedArgs.push_back(o);
    }
    db.setSink(nullptr);
  }
  const auto segments = WalReader(srcDir).scan().segments;
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0].path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(),
            kHeaderBytes + acceptedArgs.size() * kFrameBytes);

  // The incremental reference: after k accepted records, the state a
  // crash at boundary k must recover to.
  auto reference = makeDb();
  const std::string cutDir = freshDir("kill_cut");
  std::filesystem::create_directories(cutDir);
  const std::string cutPath =
      cutDir + "/" +
      std::filesystem::path(segments[0].path).filename().string();
  for (std::size_t k = 0; k <= acceptedArgs.size(); ++k) {
    if (k > 0)
      reference.addObservation(
          acceptedArgs[k - 1].start, acceptedArgs[k - 1].end,
          acceptedArgs[k - 1].directionDeg,
          acceptedArgs[k - 1].offsetMeters);
    {
      std::ofstream out(cutPath, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(),
                static_cast<std::streamsize>(kHeaderBytes +
                                             k * kFrameBytes));
    }
    auto recovered = makeDb();  // Same birth seed: no checkpoint here.
    const RecoveryResult result = recover(cutDir, recovered);
    EXPECT_EQ(result.replayedRecords, k) << "boundary " << k;
    expectIdenticalIntakeState(reference, recovered);
  }
}

TEST_F(StateStoreTest, TornAndFlippedTailsRecoverTheSurvivingPrefix) {
  for (const bool flip : {false, true}) {
    const std::string dir = freshDir(flip ? "tail_flip" : "tail_torn");
    auto db = makeDb();
    std::vector<Obs> acceptedArgs;
    StoreConfig config;
    config.wal.fsync = FsyncPolicy::kNone;
    {
      StateStore store(dir, config);
      db.setSink(&store);
      for (const auto& o : mixedStream(40)) {
        if (db.addObservation(o.start, o.end, o.directionDeg,
                              o.offsetMeters))
          acceptedArgs.push_back(o);
      }
      db.setSink(nullptr);
    }
    const auto segments = WalReader(dir).scan().segments;
    ASSERT_EQ(segments.size(), 1u);
    testing::FaultFile fault(segments[0].path);
    if (flip) {
      // Flip a bit inside the final record's payload.
      fault.flipBit(fault.size() - 12, 5);
    } else {
      fault.chopBytes(17);  // Tear mid-record.
    }

    auto reference = makeDb();
    for (std::size_t k = 0; k + 1 < acceptedArgs.size(); ++k)
      reference.addObservation(acceptedArgs[k].start, acceptedArgs[k].end,
                               acceptedArgs[k].directionDeg,
                               acceptedArgs[k].offsetMeters);

    auto recovered = makeDb();
    const RecoveryResult result = recover(dir, recovered);
    EXPECT_TRUE(result.droppedTornTail);
    EXPECT_GT(result.tailBytesDropped, 0u);
    EXPECT_EQ(result.replayedRecords, acceptedArgs.size() - 1);
    expectIdenticalIntakeState(reference, recovered);

    // Reopening for writing repairs the tail and continues; the full
    // chain then replays with no damage reported.
    {
      StateStore store(dir, config);
      recovered.setSink(&store);
      recovered.addObservation(0, 1, 90.0, 4.0);
      reference.addObservation(0, 1, 90.0, 4.0);
      recovered.setSink(nullptr);
    }
    auto recovered2 = makeDb();
    const RecoveryResult again = recover(dir, recovered2);
    EXPECT_FALSE(again.droppedTornTail);
    EXPECT_EQ(again.lastSeq, acceptedArgs.size());  // -1 torn, +1 new.
    expectIdenticalIntakeState(reference, recovered2);
  }
}

TEST_F(StateStoreTest, CompactionDeletesCoveredSegmentsOnly) {
  const std::string dir = freshDir("compact");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  config.wal.segmentMaxBytes = kHeaderBytes + 5 * kFrameBytes;
  config.keepCheckpoints = 1;
  StateStore store(dir, config);
  db.setSink(&store);

  const auto stream = mixedStream(80);
  for (const auto& o : stream)
    db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters);
  const std::size_t segmentsBefore = WalReader(dir).scan().segments.size();
  ASSERT_GT(segmentsBefore, 3u);

  const CheckpointInfo info = store.checkpoint(db);
  EXPECT_GT(info.compactedSegments, 0u);
  // Only the active segment survives: every closed one was covered.
  EXPECT_EQ(WalReader(dir).scan().segments.size(), 1u);

  // More intake after compaction, then a clean recovery.
  for (int k = 0; k < 10; ++k)
    db.addObservation(0, 1, 89.0 + 0.1 * k, 4.0);
  db.setSink(nullptr);
  auto recovered = makeDb(999);
  const RecoveryResult result = recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  expectIdenticalIntakeState(db, recovered);
}

/// The scenario behind the sequence-lower-bound rule: checkpoint
/// compaction leaves only a record-free active segment, the process
/// restarts cleanly, and the reopened store must continue the sequence
/// — not restart at 1 and reissue checkpoint-covered seqs that
/// recovery would then silently skip.
TEST_F(StateStoreTest, RestartBehindRecordFreeSegmentContinuesSequence) {
  const std::string dir = freshDir("reissue");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;

  const auto stream = mixedStream(80);
  std::uint64_t checkpointSeq = 0;
  {
    StateStore store(dir, config);
    db.setSink(&store);
    for (int k = 0; k < 50; ++k)
      db.addObservation(stream[k].start, stream[k].end,
                        stream[k].directionDeg, stream[k].offsetMeters);
    db.setSink(nullptr);
    checkpointSeq = store.lastSeq();
  }
  {
    // Restart #1: the reopened store starts a fresh segment; the
    // checkpoint then compacts away every record-bearing one, leaving
    // only the record-free active segment.
    StateStore store(dir, config);
    ASSERT_EQ(store.lastSeq(), checkpointSeq);
    store.checkpoint(db);
  }
  {
    // Restart #2: only an empty segment (header firstSeq =
    // checkpointSeq + 1) plus the checkpoint file remain on disk.
    StateStore store(dir, config);
    EXPECT_EQ(store.lastSeq(), checkpointSeq);
    db.setSink(&store);
    for (int k = 50; k < 80; ++k)
      db.addObservation(stream[k].start, stream[k].end,
                        stream[k].directionDeg, stream[k].offsetMeters);
    db.setSink(nullptr);
    EXPECT_GT(store.lastSeq(), checkpointSeq);
  }

  auto recovered = makeDb(999);
  const RecoveryResult result = recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  EXPECT_EQ(result.checkpointSeq, checkpointSeq);
  // The post-checkpoint records were assigned fresh seqs and replay;
  // none may be skipped as checkpoint-covered.
  EXPECT_GT(result.replayedRecords, 0u);
  EXPECT_EQ(result.skippedRecords, 0u);
  expectIdenticalIntakeState(db, recovered);
}

/// Belt-and-braces: even with every WAL segment gone (so no header can
/// pin the sequence), the newest checkpoint's throughSeq must seed the
/// writer past the seqs it covers.
TEST_F(StateStoreTest, CheckpointSeqSeedsWriterWhenWalIsGone) {
  const std::string dir = freshDir("walgone");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  std::uint64_t checkpointSeq = 0;
  {
    StateStore store(dir, config);
    db.setSink(&store);
    for (const auto& o : mixedStream(40))
      db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters);
    store.checkpoint(db);
    db.setSink(nullptr);
    checkpointSeq = store.lastCheckpointSeq();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".log")
      std::filesystem::remove(entry.path());

  {
    StateStore store(dir, config);
    EXPECT_EQ(store.lastSeq(), checkpointSeq);
    db.setSink(&store);
    for (int k = 0; k < 10; ++k)
      db.addObservation(0, 1, 89.0 + 0.1 * k, 4.0);
    db.setSink(nullptr);
  }
  auto recovered = makeDb(999);
  const RecoveryResult result = recover(dir, recovered);
  EXPECT_TRUE(result.checkpointLoaded);
  EXPECT_EQ(result.skippedRecords, 0u);
  expectIdenticalIntakeState(db, recovered);
}

TEST_F(StateStoreTest, ConcurrentCheckpointsPublishAValidFile) {
  const std::string dir = freshDir("ckpt_race");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  StateStore store(dir, config);
  db.setSink(&store);
  for (const auto& o : mixedStream(60))
    db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters);
  db.setSink(nullptr);

  // Same database, same throughSeq, four threads: the publishes share
  // a .tmp path and must be serialized, or the file interleaves.
  const std::uint64_t throughSeq = store.lastSeq();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] { store.checkpoint(db); });
  for (auto& thread : threads) thread.join();

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, throughSeq);
  EXPECT_EQ(loaded->skippedInvalid, 0u);
}

TEST_F(StateStoreTest, MissingCheckpointWithCompactedWalRaises) {
  const std::string dir = freshDir("gone");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  config.wal.segmentMaxBytes = kHeaderBytes + 5 * kFrameBytes;
  StateStore store(dir, config);
  db.setSink(&store);
  for (const auto& o : mixedStream(80))
    db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters);
  store.checkpoint(db);
  for (int k = 0; k < 10; ++k)
    db.addObservation(0, 1, 89.0 + 0.1 * k, 4.0);
  db.setSink(nullptr);

  // Delete every checkpoint: the compacted WAL alone cannot reach back
  // to seq 1, and recovery must say so rather than fabricate state.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".ckpt")
      std::filesystem::remove(entry.path());

  auto recovered = makeDb();
  EXPECT_THROW(recover(dir, recovered), CorruptionError);
}

TEST_F(StateStoreTest, RecoverRefusesAttachedSink) {
  const std::string dir = freshDir("sinked");
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  StateStore store(dir, config);
  auto db = makeDb();
  db.setSink(&store);
  EXPECT_THROW(recover(dir, db), StoreError);
}

TEST_F(StateStoreTest, RejectsZeroKeptCheckpoints) {
  StoreConfig keepNone;
  keepNone.keepCheckpoints = 0;
  EXPECT_THROW(StateStore(freshDir("keep0"), keepNone),
               std::invalid_argument);
}

TEST_F(StateStoreTest, RecoveredDatabaseContinuesInLockstep) {
  const std::string dir = freshDir("lockstep");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kNone;
  {
    StateStore store(dir, config);
    db.setSink(&store);
    for (const auto& o : mixedStream(60))
      db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters);
    db.setSink(nullptr);
  }
  auto recovered = makeDb();
  recover(dir, recovered);

  // Post-recovery, the recovered instance must keep making the exact
  // same decisions (same RNG stream, same reservoirs) as the original.
  for (const auto& o : mixedStream(40)) {
    EXPECT_EQ(
        db.addObservation(o.start, o.end, o.directionDeg, o.offsetMeters),
        recovered.addObservation(o.start, o.end, o.directionDeg,
                                 o.offsetMeters));
  }
  expectIdenticalIntakeState(db, recovered);
}

TEST_F(StateStoreTest, MetricsExposeDurabilityActivity) {
  obs::MetricsRegistry registry;
  const std::string dir = freshDir("metrics");
  auto db = makeDb();
  StoreConfig config;
  config.wal.fsync = FsyncPolicy::kEveryN;
  config.wal.fsyncEveryN = 8;
  config.metrics = &registry;
  StateStore store(dir, config);
  db.setSink(&store);
  std::uint64_t accepted = 0;
  for (const auto& o : mixedStream(50))
    accepted += db.addObservation(o.start, o.end, o.directionDeg,
                                  o.offsetMeters)
                    ? 1
                    : 0;
  store.checkpoint(db);
  db.setSink(nullptr);

  auto* records =
      registry.findCounter("moloc_store_wal_records_appended_total");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->value(), static_cast<double>(accepted));
  auto* bytes =
      registry.findCounter("moloc_store_wal_bytes_written_total");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value(), static_cast<double>(accepted * kFrameBytes));
  auto* fsyncs = registry.findCounter("moloc_store_wal_fsyncs_total");
  ASSERT_NE(fsyncs, nullptr);
  EXPECT_GT(fsyncs->value(), 0.0);
  auto* checkpoints =
      registry.findCounter("moloc_store_checkpoints_total");
  ASSERT_NE(checkpoints, nullptr);
  EXPECT_EQ(checkpoints->value(), 1.0);
  auto* duration =
      registry.findHistogram("moloc_store_checkpoint_seconds");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->count(), 1u);
  auto* since =
      registry.findGauge("moloc_store_records_since_checkpoint");
  ASSERT_NE(since, nullptr);
  EXPECT_EQ(since->value(), 0.0);

  // Recovery-side series.
  auto recovered = makeDb(999);
  recover(dir, recovered, &registry);
  auto* replayed =
      registry.findCounter("moloc_store_replayed_records_total");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->value(), 0.0);  // All subsumed by the checkpoint.
  expectIdenticalIntakeState(db, recovered);
}

}  // namespace
}  // namespace moloc::store
