#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace moloc::util {

// Annotated wrappers over std::mutex / std::condition_variable.
//
// All mutex-protected state in src/ uses these (moloc_check bans raw
// std::mutex members outside util/) so that clang's -Wthread-safety
// analysis can verify, at compile time, that every MOLOC_GUARDED_BY
// member is only touched with its mutex held. See
// docs/static_analysis.md for the annotation policy.

class MOLOC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MOLOC_ACQUIRE() { mu_.lock(); }
  void unlock() MOLOC_RELEASE() { mu_.unlock(); }
  bool tryLock() MOLOC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped lock; the only way locks are taken in src/ outside util/.
class MOLOC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MOLOC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MOLOC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable usable with util::Mutex.
//
// wait() requires the capability: the analysis treats the mutex as held
// across the call, which matches the std::condition_variable contract
// (the lock is reacquired before wait returns). Callers re-check their
// predicate in an explicit while loop — lambda predicates are analyzed
// as separate functions and would lose the REQUIRES context.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) MOLOC_REQUIRES(mu) {
    std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();  // Ownership stays with the caller's MutexLock.
  }

  /// wait() with a relative deadline; returns false on timeout.  The
  /// mutex is held again either way when the call returns — timeouts
  /// only bound the sleep, they don't change the locking contract.
  /// The intake writer thread uses this to bound snapshot staleness:
  /// it must wake and publish even when no new observation arrives.
  bool waitFor(Mutex& mu, std::chrono::nanoseconds timeout)
      MOLOC_REQUIRES(mu) {
    std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
    const auto status = cv_.wait_for(ul, timeout);
    ul.release();  // Ownership stays with the caller's MutexLock.
    return status == std::cv_status::no_timeout;
  }

  void notifyOne() { cv_.notify_one(); }
  void notifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace moloc::util
