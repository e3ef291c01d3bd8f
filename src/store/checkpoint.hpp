#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/online_motion_database.hpp"

namespace moloc::store {

/// One checkpoint: the intake state as of WAL sequence `throughSeq`.
/// It holds the reservoirs, RNG state, config and counters and nothing
/// derived from them — restore() refits the published entries.
struct CheckpointData {
  /// Every WAL record with seq <= throughSeq is subsumed by this
  /// checkpoint; recovery replays only records after it.
  std::uint64_t throughSeq = 0;
  core::OnlineMotionDatabase::Snapshot snapshot;
};

/// Serializes `snapshot` as of `throughSeq` (binary, little-endian,
/// CRC32C-sealed) and publishes it atomically as
/// `dir`/checkpoint-<throughSeq>.ckpt via the tmp + fsync + rename +
/// dir-fsync sequence: a crash at any instant leaves the previous
/// checkpoints intact and at worst a stray .tmp that readers ignore.
/// Returns the published path.  Throws StoreError on I/O failure.
std::string writeCheckpointFile(
    const std::string& dir, std::uint64_t throughSeq,
    const core::OnlineMotionDatabase::Snapshot& snapshot);

struct CheckpointLoadResult {
  CheckpointData data;
  std::string path;
  /// Newer checkpoint files that failed validation (bad CRC, torn
  /// rename fallout, wrong version) and were skipped on the way to
  /// this one.
  std::uint64_t skippedInvalid = 0;
};

/// Loads the newest checkpoint in `dir` that validates (magic,
/// version, CRC32C, structural parse).  Invalid files are skipped —
/// never deleted — and counted; nullopt when no valid checkpoint
/// exists (including a missing directory).
std::optional<CheckpointLoadResult> loadNewestCheckpoint(
    const std::string& dir);

/// Removes all but the newest `keep` valid-looking checkpoint files
/// (by sequence in the file name).  keep >= 1; the newest is never
/// removed.  Returns the number deleted.
std::size_t pruneCheckpoints(const std::string& dir, std::size_t keep);

}  // namespace moloc::store
