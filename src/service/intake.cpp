#include "service/intake.hpp"

#include <utility>
#include <vector>

#include "util/error.hpp"

namespace moloc::service {

IntakePipeline::IntakePipeline(core::OnlineMotionDatabase& db,
                               IntakePolicy policy, PublishHook publish,
                               obs::MetricsRegistry* metrics)
    : db_(db), policy_(policy), publish_(std::move(publish)) {
  if (policy_.queueCapacity == 0)
    throw util::ConfigError(
        "IntakePipeline: queue capacity must be >= 1");
  if (policy_.publishEveryRecords == 0)
    throw util::ConfigError(
        "IntakePipeline: publishEveryRecords must be >= 1");
  if (policy_.maxStaleness <= std::chrono::milliseconds::zero())
    throw util::ConfigError(
        "IntakePipeline: maxStaleness must be positive");
#if MOLOC_METRICS_ENABLED
  if (metrics) {
    metrics_.queueDepth = &metrics->gauge(
        "moloc_intake_queue_depth",
        "Observations admitted but not yet applied by the writer");
    metrics_.backpressure = &metrics->counter(
        "moloc_intake_backpressure_total",
        "Submits rejected because the intake queue was full");
    metrics_.applyFailures = &metrics->counter(
        "moloc_intake_apply_failures_total",
        "Admitted observations lost to a write-ahead/apply error");
  }
#else
  (void)metrics;
#endif
  writer_ = std::thread([this] { writerLoop(); });
}

IntakePipeline::~IntakePipeline() { stop(); }

bool IntakePipeline::submit(env::LocationId estimatedStart,
                            env::LocationId estimatedEnd,
                            double directionDeg, double offsetMeters) {
  {
    const util::MutexLock lock(mu_);
    if (stopping_)
      throw ShutdownError("IntakePipeline: shutting down");
  }
  // Classify outside the queue lock: the decision is deterministic in
  // the sanitation config, so producers resolve accept/reject (and
  // validation errors) concurrently without a writer round-trip.
  if (!db_.classify(estimatedStart, estimatedEnd, directionDeg,
                    offsetMeters))
    return false;
  {
    const util::MutexLock lock(mu_);
    if (stopping_)
      throw ShutdownError("IntakePipeline: shutting down");
    if (queue_.size() >= policy_.queueCapacity) {
      ++backpressure_;
#if MOLOC_METRICS_ENABLED
      if (metrics_.backpressure) metrics_.backpressure->inc();
#endif
      throw BackpressureError(
          "IntakePipeline: observation queue is full (capacity " +
          std::to_string(policy_.queueCapacity) + ")");
    }
    queue_.push_back(
        {estimatedStart, estimatedEnd, directionDeg, offsetMeters});
    ++enqueued_;
#if MOLOC_METRICS_ENABLED
    if (metrics_.queueDepth)
      metrics_.queueDepth->set(static_cast<double>(queue_.size()));
#endif
  }
  readyCv_.notifyOne();
  return true;
}

void IntakePipeline::writerLoop() {
  std::vector<PendingObservation> batch;
  auto lastPublish = std::chrono::steady_clock::now();
  // Writer-private mirror of dirtySincePublish_ so cadence checks need
  // no lock.
  std::uint64_t sincePublish = 0;

  const auto publishNow = [&] {
    std::uint64_t appliedRecords = 0;
    {
      const util::MutexLock lock(mu_);
      appliedRecords = applied_;
    }
    // The hook runs with no pipeline lock held: freezing the database
    // copies it (and a checkpoint writes it), and submitters must not
    // stall behind that.  dirtySincePublish_ clears only after the hook
    // returns, so a flush() waiting on it sees the hook's work done.
    if (publish_) publish_(appliedRecords);
    lastPublish = std::chrono::steady_clock::now();
    sincePublish = 0;
    {
      const util::MutexLock lock(mu_);
      ++publishes_;
      dirtySincePublish_ = 0;
    }
    drainedCv_.notifyAll();
  };

  while (true) {
    batch.clear();
    bool stopRequested = false;
    {
      const util::MutexLock lock(mu_);
      while (queue_.empty() && !stopping_ &&
             !(flushWaiters_ > 0 && dirtySincePublish_ > 0)) {
        if (sincePublish > 0) {
          // Dirty world: sleep at most to the staleness deadline, then
          // publish even if nothing new arrives.
          const auto now = std::chrono::steady_clock::now();
          const auto deadline = lastPublish + policy_.maxStaleness;
          if (now >= deadline) break;
          readyCv_.waitFor(mu_, deadline - now);
        } else {
          readyCv_.wait(mu_);
        }
      }
      stopRequested = stopping_;
      while (!queue_.empty()) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
#if MOLOC_METRICS_ENABLED
      if (metrics_.queueDepth) metrics_.queueDepth->set(0.0);
#endif
    }

    for (const auto& obs : batch) {
      try {
        db_.applyAccepted(obs.start, obs.end, obs.directionDeg,
                          obs.offsetMeters);
        ++sincePublish;
        {
          const util::MutexLock lock(mu_);
          ++applied_;
          ++dirtySincePublish_;
        }
      } catch (...) {
        // The write-ahead discipline already aborted the update (a
        // sink that throws logs nothing and applies nothing), so the
        // observation is simply lost; surface it through the counter
        // rather than tearing down the writer.
        const util::MutexLock lock(mu_);
        ++applyFailures_;
#if MOLOC_METRICS_ENABLED
        if (metrics_.applyFailures) metrics_.applyFailures->inc();
#endif
      }
      if (sincePublish >= policy_.publishEveryRecords) publishNow();
    }
    drainedCv_.notifyAll();

    bool flushPending = false;
    bool queueEmpty = false;
    {
      const util::MutexLock lock(mu_);
      flushPending = flushWaiters_ > 0;
      queueEmpty = queue_.empty();
    }
    const bool staleness =
        sincePublish > 0 && std::chrono::steady_clock::now() >=
                                lastPublish + policy_.maxStaleness;
    // Publish outside the record cadence when the world is dirty and
    // (a) the staleness bound expired, (b) a flush needs it, or
    // (c) this is the final drain before the writer exits.
    if (sincePublish > 0 &&
        (staleness || (flushPending && queueEmpty) || stopRequested))
      publishNow();

    if (stopRequested && queueEmpty) break;
  }
  {
    const util::MutexLock lock(mu_);
    writerExited_ = true;
  }
  drainedCv_.notifyAll();
}

void IntakePipeline::flush() {
  const util::MutexLock lock(mu_);
  const std::uint64_t target = enqueued_;
  ++flushWaiters_;
  readyCv_.notifyOne();  // The writer may be idle-sleeping on a clean
                         // world; wake it to publish for us.
  while (applied_ + applyFailures_ < target || dirtySincePublish_ > 0) {
    // A stop in progress is terminal for this wait even though the
    // writer may still be draining: the barrier below could otherwise
    // block until the writer's final apply — or forever, if the writer
    // is wedged in a slow sink while the destructor joins it.  Callers
    // racing shutdown get the typed error promptly instead.
    if (stopping_ || writerExited_) {
      --flushWaiters_;
      throw ShutdownError(
          "IntakePipeline::flush: pipeline stopped with work pending");
    }
    drainedCv_.wait(mu_);
  }
  --flushWaiters_;
}

void IntakePipeline::stop() {
  {
    const util::MutexLock lock(mu_);
    stopping_ = true;
  }
  readyCv_.notifyAll();
  // Wake flush() waiters *before* the join: they treat stopping_ as
  // terminal, and the join below can take arbitrarily long (the writer
  // finishes its in-flight apply first).
  drainedCv_.notifyAll();
  if (writer_.joinable()) writer_.join();
  drainedCv_.notifyAll();  // Unhang any flush() that raced the stop.
}

IntakePipeline::Stats IntakePipeline::stats() const {
  const util::MutexLock lock(mu_);
  Stats stats;
  stats.enqueued = enqueued_;
  stats.applied = applied_;
  stats.applyFailures = applyFailures_;
  stats.publishes = publishes_;
  stats.backpressure = backpressure_;
  stats.queueDepth = queue_.size();
  return stats;
}

}  // namespace moloc::service
