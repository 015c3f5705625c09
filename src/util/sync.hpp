// Capability-annotated synchronization wrappers (DESIGN.md §7,
// "Compile-time lock discipline").
//
// Every mutex-protected component in src/ uses these instead of the raw
// std primitives (lint rule R6 enforces it): the wrappers carry the
// Clang Thread Safety Analysis attributes from util/annotations.hpp, so
// a Clang build with -DMCB_THREAD_SAFETY=ON proves — at compile time,
// on every build — that each MCB_GUARDED_BY field is only touched with
// its lock held and each MCB_REQUIRES method is only called under the
// right capability. On GCC the attributes vanish and the wrappers
// compile down to the std primitives they hold.
//
// This is the only file in src/ allowed to name std::mutex,
// std::shared_mutex, std::condition_variable or the std lock guards.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace mcb {

/// Exclusive mutex. Prefer the scoped MutexLock; the raw lock()/unlock()
/// exist for the RAII types and for handoff patterns the analysis can
/// model (e.g. CondVar's adopt trick).
class MCB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MCB_ACQUIRE();
  void unlock() MCB_RELEASE();
  bool try_lock() MCB_TRY_ACQUIRE(true);

 private:
  friend class CondVar;  // waits on the underlying std::mutex
  std::mutex mutex_;
};

/// Scoped exclusive lock over Mutex; it touches exactly one capability,
/// the shape the analysis models best (mirrors the MutexLocker example
/// in the Clang docs). Supports early release + reacquire; the analysis
/// tracks both.
class MCB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) MCB_ACQUIRE(mutex) : mutex_(mutex) {
    mutex.lock();
  }
  ~MutexLock() MCB_RELEASE() {
    if (owned_) mutex_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before end of scope (e.g. to run I/O outside the lock).
  void unlock() MCB_RELEASE() {
    mutex_.unlock();
    owned_ = false;
  }
  /// Reacquire after an early unlock().
  void lock() MCB_ACQUIRE(mutex_) {
    mutex_.lock();
    owned_ = true;
  }

 private:
  Mutex& mutex_;
  bool owned_ = true;
};

/// Condition variable bound to mcb::Mutex. The wait methods take the
/// Mutex (not the scoped lock) so the analysis can express the
/// requirement directly: MCB_REQUIRES(mu) holds on entry, and because a
/// wait reacquires before returning, on exit as well. Callers loop:
///
///   MutexLock lock(mutex_);
///   while (!condition) cv_.wait(mutex_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, block, reacquire before returning.
  /// Spurious wakeups happen; always call from a condition loop.
  void wait(Mutex& mu) MCB_REQUIRES(mu);

  /// As wait(), but gives up after `timeout`. Returns false on timeout,
  /// true when notified (or woken spuriously) — the caller's loop
  /// rechecks the condition either way.
  bool wait_for(Mutex& mu, std::chrono::milliseconds timeout) MCB_REQUIRES(mu);

  /// Deadline flavour of wait_for (steady clock).
  bool wait_until(Mutex& mu,
                  std::chrono::steady_clock::time_point deadline) MCB_REQUIRES(mu);

  void notify_one() noexcept;
  void notify_all() noexcept;

 private:
  std::condition_variable cv_;
};

}  // namespace mcb
