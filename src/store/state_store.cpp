#include "store/state_store.hpp"

#include <chrono>
#include <utility>

#include "store/posix_file.hpp"
#include "util/error.hpp"

namespace moloc::store {

StateStore::StateStore(std::string dir, StoreConfig config)
    : dir_(std::move(dir)), config_(config) {
  if (config_.keepCheckpoints == 0)
    throw util::ConfigError("StateStore: keepCheckpoints must be >= 1");

  // Repair first: a torn tail left by the previous process must be
  // truncated away before it becomes a non-final segment (where damage
  // would read as mid-log corruption forever after).
  const WalScan scan = WalReader(dir_).repair();
  std::uint64_t lastKnownSeq = scan.lastSeq;
  if (const auto newest = loadNewestCheckpoint(dir_)) {
    lastCheckpointSeq_ = newest->data.throughSeq;
    // A checkpoint's throughSeq is a second durable lower bound on the
    // sequence stream (segment headers are the first): even if every
    // WAL segment is gone, the writer must not reissue sequence
    // numbers the checkpoint already covers — recovery would skip them
    // as already applied.
    lastKnownSeq = std::max(lastKnownSeq, lastCheckpointSeq_);
  }
  wal_ = std::make_unique<WalWriter>(dir_, config_.wal, lastKnownSeq + 1,
                                     scan.nextSegmentIndex);
  // Every pre-existing segment is closed by construction (the writer
  // just opened a fresh one) and thus compaction-eligible.
  closed_ = scan.segments;
  reported_ = wal_->stats();

  if (auto* reg = config_.metrics) {
    metrics_.recordsAppended =
        &reg->counter("moloc_store_wal_records_appended_total",
                      "Observation records appended to the WAL");
    metrics_.bytesWritten =
        &reg->counter("moloc_store_wal_bytes_written_total",
                      "Record-frame bytes appended to the WAL");
    metrics_.fsyncs = &reg->counter("moloc_store_wal_fsyncs_total",
                                    "fsync calls issued on WAL segments");
    metrics_.checkpoints = &reg->counter(
        "moloc_store_checkpoints_total", "Checkpoints published");
    metrics_.compactedSegments =
        &reg->counter("moloc_store_compacted_segments_total",
                      "WAL segments deleted by checkpoint compaction");
    metrics_.checkpointSeconds = &reg->histogram(
        "moloc_store_checkpoint_seconds",
        "Wall time to serialize and publish one checkpoint",
        obs::Histogram::exponentialBuckets(1e-4, 2.0, 16));
    metrics_.segments = &reg->gauge("moloc_store_wal_segments",
                                    "WAL segment files currently live");
    metrics_.sinceCheckpoint =
        &reg->gauge("moloc_store_records_since_checkpoint",
                    "Records appended after the newest checkpoint");
    metrics_.segments->set(static_cast<double>(closed_.size() + 1));
    metrics_.sinceCheckpoint->set(static_cast<double>(
        lastKnownSeq > lastCheckpointSeq_
            ? lastKnownSeq - lastCheckpointSeq_
            : 0));
  }
}

void StateStore::onAccepted(env::LocationId estimatedStart,
                            env::LocationId estimatedEnd,
                            double directionDeg, double offsetMeters) {
  const util::MutexLock lock(mu_);
  const std::uint64_t seq =
      wal_->append(estimatedStart, estimatedEnd, directionDeg, offsetMeters);
  if (config_.metrics) {
    const WalWriter::Stats& now = wal_->stats();
    metrics_.recordsAppended->inc(
        static_cast<double>(now.records - reported_.records));
    metrics_.bytesWritten->inc(
        static_cast<double>(now.bytes - reported_.bytes));
    metrics_.fsyncs->inc(
        static_cast<double>(now.fsyncs - reported_.fsyncs));
    metrics_.segments->inc(static_cast<double>(now.segmentsCreated -
                                               reported_.segmentsCreated));
    reported_ = now;
    metrics_.sinceCheckpoint->set(
        static_cast<double>(seq - lastCheckpointSeq_));
  }
}

CheckpointInfo StateStore::checkpoint(const core::OnlineMotionDatabase& db) {
  const core::OnlineMotionDatabase::Snapshot snapshot = db.snapshot();
  const auto start = std::chrono::steady_clock::now();
  // Serializes concurrent checkpoint() calls: two at once would write
  // the same '<path>.tmp' (O_TRUNC) and could interleave, publishing a
  // corrupt file.  A dedicated mutex (always taken before mu_, never
  // while holding it) keeps appends flowing during the slow
  // serialize-and-publish below.
  const util::MutexLock checkpointLock(checkpointMu_);
  std::uint64_t throughSeq = 0;
  {
    // The checkpoint must not claim a sequence the log has not durably
    // reached; sync before publishing.
    const util::MutexLock lock(mu_);
    throughSeq = wal_->lastSeq();
    wal_->sync();
  }

  CheckpointInfo info;
  info.throughSeq = throughSeq;
  // Serialization and the atomic publish run outside the mutex:
  // appends keep flowing while the (potentially large) file is built.
  info.path = writeCheckpointFile(dir_, throughSeq, snapshot);

  {
    const util::MutexLock lock(mu_);
    const auto rotated = wal_->takeClosedSegments();
    closed_.insert(closed_.end(), rotated.begin(), rotated.end());
    std::vector<SegmentInfo> kept;
    for (const SegmentInfo& seg : closed_) {
      // Monotonic seqs make covered segments a prefix; record-free
      // segments (crash fallout) hold nothing and always go.
      if (seg.records == 0 || seg.lastSeq <= throughSeq) {
        detail::removeFileDurably(seg.path, dir_);
        ++info.compactedSegments;
      } else {
        kept.push_back(seg);
      }
    }
    closed_ = std::move(kept);
    if (throughSeq > lastCheckpointSeq_) lastCheckpointSeq_ = throughSeq;
    info.prunedCheckpoints = pruneCheckpoints(dir_, config_.keepCheckpoints);
    info.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (config_.metrics) {
      metrics_.checkpoints->inc();
      metrics_.compactedSegments->inc(
          static_cast<double>(info.compactedSegments));
      metrics_.checkpointSeconds->observe(info.seconds);
      metrics_.segments->set(static_cast<double>(closed_.size() + 1));
      metrics_.sinceCheckpoint->set(static_cast<double>(
          wal_->lastSeq() - lastCheckpointSeq_));
      const WalWriter::Stats& now = wal_->stats();
      metrics_.fsyncs->inc(
          static_cast<double>(now.fsyncs - reported_.fsyncs));
      reported_ = now;
    }
  }
  return info;
}

void StateStore::sync() {
  const util::MutexLock lock(mu_);
  wal_->sync();
  if (config_.metrics) {
    const WalWriter::Stats& now = wal_->stats();
    metrics_.fsyncs->inc(
        static_cast<double>(now.fsyncs - reported_.fsyncs));
    reported_ = now;
  }
}

std::uint64_t StateStore::lastSeq() const {
  const util::MutexLock lock(mu_);
  return wal_->lastSeq();
}

std::uint64_t StateStore::lastCheckpointSeq() const {
  const util::MutexLock lock(mu_);
  return lastCheckpointSeq_;
}

std::uint64_t StateStore::recordsSinceCheckpoint() const {
  const util::MutexLock lock(mu_);
  const std::uint64_t last = wal_->lastSeq();
  return last > lastCheckpointSeq_ ? last - lastCheckpointSeq_ : 0;
}

WalWriter::Stats StateStore::walStats() const {
  const util::MutexLock lock(mu_);
  return wal_->stats();
}

RecoveryResult recover(const std::string& dir,
                       core::OnlineMotionDatabase& db,
                       obs::MetricsRegistry* metrics) {
  if (db.sink() != nullptr)
    throw StoreError(
        "recover: detach the database's sink first (replaying into a "
        "live sink would re-log every record)");

  RecoveryResult result;
  if (auto loaded = loadNewestCheckpoint(dir)) {
    db.restore(loaded->data.snapshot);
    result.checkpointLoaded = true;
    result.checkpointSeq = loaded->data.throughSeq;
    result.checkpointPath = loaded->path;
    result.invalidCheckpoints = loaded->skippedInvalid;
    result.lastSeq = result.checkpointSeq;
  }

  const std::uint64_t through = result.checkpointSeq;
  bool coverageChecked = false;
  const WalScan scan =
      WalReader(dir).replay([&](const ObservationRecord& record) {
        if (record.seq <= through) {
          ++result.skippedRecords;
          return;
        }
        if (!coverageChecked) {
          // Sequences are dense, so the first record past the
          // checkpoint must be exactly the next one; anything later
          // means compaction outran the surviving checkpoints and
          // acknowledged records are unrecoverable.
          if (record.seq != through + 1)
            throw CorruptionError(
                "WAL does not reach back to " +
                (through == 0
                     ? std::string("seq 1 (no checkpoint survives)")
                     : "checkpoint seq " + std::to_string(through)) +
                ": first record past it has seq " +
                std::to_string(record.seq));
          coverageChecked = true;
        }
        db.addObservation(record.estimatedStart, record.estimatedEnd,
                          record.directionDeg, record.offsetMeters);
        ++result.replayedRecords;
        result.lastSeq = record.seq;
      });
  result.droppedTornTail = scan.tailDamaged;
  result.tailBytesDropped = scan.tailBytesDropped;

  if (metrics) {
    metrics
        ->counter("moloc_store_replayed_records_total",
                  "WAL records replayed through intake during recovery")
        .inc(static_cast<double>(result.replayedRecords));
    metrics
        ->counter("moloc_store_corruption_dropped_bytes_total",
                  "Torn-tail bytes dropped during recovery")
        .inc(static_cast<double>(result.tailBytesDropped));
    metrics
        ->counter("moloc_store_invalid_checkpoints_total",
                  "Checkpoint files skipped as invalid during recovery")
        .inc(static_cast<double>(result.invalidCheckpoints));
  }
  return result;
}

}  // namespace moloc::store
