#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace moloc::service {

/// Thrown by IntakePipeline::submit when the bounded observation queue
/// is full.  The observation was counted as offered but was neither
/// logged nor applied — the producer owns the retry decision (back
/// off, shed, or surface to the client).
class BackpressureError : public std::runtime_error {
 public:
  explicit BackpressureError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown to callers blocked on (or submitting into) a pipeline or
/// service that is shutting down, instead of hanging them forever on
/// a condition that will never come true again.
class ShutdownError : public std::runtime_error {
 public:
  explicit ShutdownError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Cadence and capacity knobs of the intake pipeline (docs/serving.md).
struct IntakePolicy {
  /// Bound of the pending-observation queue; submit throws
  /// BackpressureError beyond it.  Must be >= 1.
  std::size_t queueCapacity = 1024;
  /// Publish a new WorldSnapshot after this many observations have
  /// been applied since the last publish.  Must be >= 1.
  std::uint64_t publishEveryRecords = 64;
  /// Publish at most this long after an applied-but-unpublished
  /// observation, even when the record trigger has not fired — bounds
  /// how stale the serving world can run behind the intake.  Must be
  /// positive.
  std::chrono::milliseconds maxStaleness{200};
};

/// The write side of the epoch-style serving split: a bounded MPSC
/// queue in front of one writer thread that owns every mutation of an
/// OnlineMotionDatabase.
///
/// Producers call submit(), which classifies the observation
/// synchronously (the accept/reject answer depends only on the floor
/// plan and sanitation config, so it needs no writer round-trip) and
/// enqueues accepted ones.  The writer dequeues in order and calls
/// applyAccepted — WAL write-ahead first, then the reservoir — so the
/// WAL order, the reservoir update order, and the reservoir's RNG draw
/// order are all the single thread's apply order.  On the cadence
/// policy (record count or staleness bound) the writer invokes the
/// publish hook, which freezes the database into an immutable
/// WorldSnapshot for the readers (and, in the service, writes a
/// checkpoint when one is due).
///
/// Durability window: submit() returning true means *admitted*, not
/// yet durably logged; the log write happens at apply time on the
/// writer.  flush() is the barrier — after it returns, everything
/// previously admitted has been applied (or counted in
/// Stats::applyFailures) and a publish hook that began after the last
/// of those applies has returned.
class IntakePipeline {
 public:
  /// Runs on the writer thread when the cadence policy fires, between
  /// applies and with no pipeline lock held; `appliedRecords` is the
  /// cumulative applied count folded into the world being published.
  /// The writer is the database's sole mutator, so state captured here
  /// (a snapshot and the WAL position) is mutually consistent without
  /// any global intake lock.
  using PublishHook = std::function<void(std::uint64_t appliedRecords)>;

  /// Starts the writer thread.  `db` must outlive the pipeline.
  /// Throws std::invalid_argument on a degenerate policy.
  IntakePipeline(core::OnlineMotionDatabase& db, IntakePolicy policy,
                 PublishHook publish,
                 obs::MetricsRegistry* metrics = nullptr);

  /// stop()s and joins the writer.
  ~IntakePipeline();

  IntakePipeline(const IntakePipeline&) = delete;
  IntakePipeline& operator=(const IntakePipeline&) = delete;

  /// Producer side.  Returns whether the observation was accepted by
  /// the sanitation filters (false = rejected, nothing enqueued).
  /// Throws the database's validation errors, BackpressureError when
  /// the queue is full, and ShutdownError after stop().
  bool submit(env::LocationId estimatedStart, env::LocationId estimatedEnd,
              double directionDeg, double offsetMeters);

  /// Blocks until every observation admitted before this call has been
  /// applied (or failed) and the publish hook covering them has
  /// returned.  Throws ShutdownError if the pipeline stops while
  /// waiting with work still pending.
  void flush();

  /// Rejects further submits, drains the queue (every admitted
  /// observation is still applied and a final publish covers them),
  /// and joins the writer.  Idempotent; not safe to race with itself.
  void stop();

  const IntakePolicy& policy() const { return policy_; }

  struct Stats {
    std::uint64_t enqueued = 0;       ///< Admitted into the queue.
    std::uint64_t applied = 0;        ///< Applied by the writer.
    std::uint64_t applyFailures = 0;  ///< Lost to a sink/apply error.
    std::uint64_t publishes = 0;      ///< Publish-hook invocations.
    std::uint64_t backpressure = 0;   ///< Submits rejected queue-full.
    std::size_t queueDepth = 0;       ///< Pending right now.
  };
  Stats stats() const;

 private:
  struct PendingObservation {
    env::LocationId start = 0;
    env::LocationId end = 0;
    double directionDeg = 0.0;
    double offsetMeters = 0.0;
  };

  void writerLoop();

  core::OnlineMotionDatabase& db_;
  const IntakePolicy policy_;
  const PublishHook publish_;

  mutable util::Mutex mu_;
  /// Wakes the writer: new work, a stop, or a flush that needs an
  /// early publish.
  util::CondVar readyCv_;
  /// Wakes flush() waiters on apply/publish progress.
  util::CondVar drainedCv_;
  std::deque<PendingObservation> queue_ MOLOC_GUARDED_BY(mu_);
  bool stopping_ MOLOC_GUARDED_BY(mu_) = false;
  /// Set by the writer as it exits; lets flush() tell "work still in
  /// flight" from "work that will never finish".
  bool writerExited_ MOLOC_GUARDED_BY(mu_) = false;
  std::uint64_t enqueued_ MOLOC_GUARDED_BY(mu_) = 0;
  std::uint64_t applied_ MOLOC_GUARDED_BY(mu_) = 0;
  std::uint64_t applyFailures_ MOLOC_GUARDED_BY(mu_) = 0;
  std::uint64_t publishes_ MOLOC_GUARDED_BY(mu_) = 0;
  std::uint64_t backpressure_ MOLOC_GUARDED_BY(mu_) = 0;
  /// Applied but not yet covered by a publish.
  std::uint64_t dirtySincePublish_ MOLOC_GUARDED_BY(mu_) = 0;
  int flushWaiters_ MOLOC_GUARDED_BY(mu_) = 0;

  struct Metrics {
    obs::Gauge* queueDepth = nullptr;
    obs::Counter* backpressure = nullptr;
    obs::Counter* applyFailures = nullptr;
  };
  Metrics metrics_;

  /// Last member: started after everything above is initialized and
  /// joined (via stop()) before any of it is destroyed.
  std::thread writer_;
};

}  // namespace moloc::service
