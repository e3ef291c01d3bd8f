#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/online_motion_database.hpp"
#include "obs/metrics.hpp"
#include "store/checkpoint.hpp"
#include "store/wal.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::store {

struct StoreConfig {
  WalConfig wal;
  /// Checkpoint files retained after each new checkpoint (>= 1).  Two
  /// means one fallback generation survives a checkpoint that lands
  /// corrupt on disk.
  std::size_t keepCheckpoints = 2;
  /// Receives the moloc_store_* series when non-null (see
  /// docs/observability.md); inert under MOLOC_METRICS=OFF.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one checkpoint() call did.
struct CheckpointInfo {
  std::uint64_t throughSeq = 0;
  std::string path;
  std::size_t compactedSegments = 0;  ///< WAL segments deleted.
  std::size_t prunedCheckpoints = 0;  ///< Old checkpoint files deleted.
  double seconds = 0.0;               ///< Wall time, serialize + publish.
};

/// The durability frontend: a WAL appender (as the database's
/// ObservationSink) plus the checkpoint/compaction cycle, over one
/// store directory.
///
/// Opening a StateStore repairs any torn WAL tail left by a crash and
/// then starts a *fresh* segment continuing the sequence — existing
/// segments are never appended to, so acknowledged history is
/// immutable.  All public methods are thread-safe (internally mutexed);
/// what the store cannot provide is atomicity *across* the database
/// and the log — callers that feed addObservation from several threads
/// must serialize intake themselves (LocalizationService does) so the
/// WAL order matches the database's update order.
class StateStore final : public core::ObservationSink {
 public:
  /// Throws StoreError when the directory cannot be created/opened and
  /// CorruptionError when the existing log carries mid-log damage.
  explicit StateStore(std::string dir, StoreConfig config = {});

  /// ObservationSink: durably appends one accepted observation.  Called
  /// by OnlineMotionDatabase::addObservation *before* the reservoir
  /// mutates; a StoreError thrown here aborts that update (write-ahead
  /// discipline).
  void onAccepted(env::LocationId estimatedStart,
                  env::LocationId estimatedEnd, double directionDeg,
                  double offsetMeters) override;

  /// Snapshots `db` and publishes it as a checkpoint covering the
  /// WAL through lastSeq(), then prunes old checkpoints and deletes WAL
  /// segments wholly covered by it.  The WAL is synced first, so the
  /// checkpoint never claims a sequence the log has not durably
  /// reached.
  ///
  /// Correctness requires that nothing feed `db` during the call (the
  /// snapshot must reflect exactly the records logged so far): call it
  /// from the database's sole mutator, as the service's intake writer
  /// does, or from single-threaded code.
  CheckpointInfo checkpoint(const core::OnlineMotionDatabase& db);

  /// Forces the WAL to disk regardless of fsync policy.
  void sync();

  /// Highest sequence number appended (0 when nothing was ever logged).
  std::uint64_t lastSeq() const;

  /// Sequence the newest checkpoint covers (0 when none).
  std::uint64_t lastCheckpointSeq() const;

  /// Records appended since the last checkpoint — the checkpoint
  /// trigger LocalizationService's intake writer polls.
  std::uint64_t recordsSinceCheckpoint() const;

  WalWriter::Stats walStats() const;

  const std::string& directory() const { return dir_; }

 private:
  /// Serializes whole checkpoint() calls (the publish step runs
  /// outside mu_, and two concurrent publishes share a .tmp path).
  /// Lock order: checkpointMu_ before mu_, never the reverse — declared
  /// to the analysis via ACQUIRED_AFTER below.
  util::Mutex checkpointMu_;
  mutable util::Mutex mu_ MOLOC_ACQUIRED_AFTER(checkpointMu_);
  std::string dir_;
  StoreConfig config_;
  std::unique_ptr<WalWriter> wal_ MOLOC_GUARDED_BY(mu_);
  /// Closed segments not yet compacted (pre-existing ones from the
  /// opening scan plus everything rotation closes).
  std::vector<SegmentInfo> closed_ MOLOC_GUARDED_BY(mu_);
  std::uint64_t lastCheckpointSeq_ MOLOC_GUARDED_BY(mu_) = 0;
  /// Stats already pushed to counters.
  WalWriter::Stats reported_ MOLOC_GUARDED_BY(mu_);

#if MOLOC_METRICS_ENABLED
  struct Metrics {
    obs::Counter* recordsAppended = nullptr;
    obs::Counter* bytesWritten = nullptr;
    obs::Counter* fsyncs = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* compactedSegments = nullptr;
    obs::Histogram* checkpointSeconds = nullptr;
    obs::Gauge* segments = nullptr;
    obs::Gauge* sinceCheckpoint = nullptr;
  };
  Metrics metrics_;
#endif
};

/// What store::recover() reconstructed.
struct RecoveryResult {
  bool checkpointLoaded = false;
  std::uint64_t checkpointSeq = 0;  ///< 0 when none loaded.
  std::string checkpointPath;
  /// Newer checkpoint files skipped because they failed validation.
  std::uint64_t invalidCheckpoints = 0;
  std::uint64_t replayedRecords = 0;  ///< WAL records fed to the db.
  std::uint64_t skippedRecords = 0;   ///< Subsumed by the checkpoint.
  bool droppedTornTail = false;
  std::uint64_t tailBytesDropped = 0;
  std::uint64_t lastSeq = 0;  ///< Highest sequence recovered.
};

/// Rebuilds `db` from the store directory: loads the newest valid
/// checkpoint (skipping corrupt ones), then replays the WAL tail
/// through the normal addObservation intake.  The result is
/// bit-identical to the database state after the last durably logged
/// record — including reservoir contents, RNG position, and every
/// published Gaussian.
///
/// Read-only on disk (a torn tail is tolerated, not truncated — open a
/// StateStore afterwards to repair and resume logging).  Requirements
/// and failure modes:
///   - `db` must be freshly constructed with the same floor plan; a
///     checkpoint that does not fit throws std::invalid_argument.
///     When no checkpoint exists the replay starts from `db`'s own
///     initial state, so bit-identical recovery additionally requires
///     the same constructor seed, config, and capacity the original
///     was born with (a loaded checkpoint restores all of these).
///   - `db` must have no sink attached (throws StoreError — replaying
///     into a live sink would re-log every record).
///   - A WAL that does not reach back to the checkpoint (or to seq 1
///     when no checkpoint survives) throws CorruptionError: the gap
///     means acknowledged data is gone, which must not be silent.
RecoveryResult recover(const std::string& dir,
                       core::OnlineMotionDatabase& db,
                       obs::MetricsRegistry* metrics = nullptr);

}  // namespace moloc::store
