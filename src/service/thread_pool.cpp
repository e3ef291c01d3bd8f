#include "service/thread_pool.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "util/error.hpp"

namespace moloc::service {

ThreadPool::ThreadPool(std::size_t threadCount,
                       obs::MetricsRegistry* metrics) {
  if (threadCount == 0)
    throw util::ConfigError("ThreadPool: thread count must be >= 1");
#if MOLOC_METRICS_ENABLED
  if (metrics) {
    queueDepth_ = &metrics->gauge("moloc_pool_queue_depth",
                                  "Tasks queued but not yet running");
    tasksTotal_ = &metrics->counter("moloc_pool_tasks_total",
                                    "Tasks executed by the pool");
    busySeconds_ =
        &metrics->counter("moloc_pool_busy_seconds_total",
                          "Wall time workers spent executing tasks");
  }
#else
  (void)metrics;
#endif
  workers_.reserve(threadCount);
  for (std::size_t i = 0; i < threadCount; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mu_);
    stopping_ = true;
  }
  wakeWorker_.notifyAll();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const util::MutexLock lock(mu_);
    if (stopping_)
      throw util::StateError("ThreadPool: submit after shutdown");
    queue_.push_back(std::move(packaged));
    // set() under the queue lock (a relaxed store, vs two CAS adds for
    // inc/dec outside it) serializes depth updates with the queue
    // itself, so the gauge always ends at the true depth.
#if MOLOC_METRICS_ENABLED
    if (queueDepth_)
      queueDepth_->set(static_cast<double>(queue_.size()));
#endif
  }
  wakeWorker_.notifyOne();
  return future;
}

void ThreadPool::wait() {
  const util::MutexLock lock(mu_);
  while (!(queue_.empty() && running_ == 0)) allIdle_.wait(mu_);
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      const util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) wakeWorker_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
#if MOLOC_METRICS_ENABLED
      if (queueDepth_)
        queueDepth_->set(static_cast<double>(queue_.size()));
#endif
    }
#if MOLOC_METRICS_ENABLED
    // Counted before the task runs: running it fulfils its future, and
    // a caller woken by that must already see the task counted.
    if (tasksTotal_) tasksTotal_->inc();
    const std::uint64_t taskStart = obs::detail::ticksNow();
#endif
    task();  // Exceptions land in the task's future.
#if MOLOC_METRICS_ENABLED
    if (busySeconds_)
      busySeconds_->inc(
          obs::detail::ticksToSeconds(taskStart, obs::detail::ticksNow()));
#endif
    {
      const util::MutexLock lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) allIdle_.notifyAll();
    }
  }
}

}  // namespace moloc::service
