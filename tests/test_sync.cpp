// Tests for the annotated synchronization wrappers (util/sync.hpp).
//
// The wrappers exist so Clang's thread-safety analysis can see every
// lock acquisition at compile time; these tests pin down the *runtime*
// semantics the annotations promise: mutual exclusion, scoped release
// (including early unlock/relock), and the CondVar timeout contract.
//
// Try-lock results are always branched on through a named local (never
// fed straight into EXPECT_*): the thread-safety analysis tracks the
// capability through the branch, but not through gtest's macro plumbing.

#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace mcb {
namespace {

// try_lock + immediate release; reports whether the lock was available.
bool probe_exclusive(Mutex& mu) {
  if (mu.try_lock()) {
    mu.unlock();
    return true;
  }
  return false;
}

TEST(Mutex, TryLockFailsWhileHeld) {
  Mutex mu;
  mu.lock();
  std::atomic<bool> other_got_it{false};
  std::thread other([&] { other_got_it.store(probe_exclusive(mu)); });
  other.join();
  EXPECT_FALSE(other_got_it.load());
  mu.unlock();
  EXPECT_TRUE(probe_exclusive(mu));  // and succeeds once released
}

TEST(Mutex, ScopedLockExcludesConcurrentIncrements) {
  Mutex mu;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(MutexLock, EarlyUnlockAndRelock) {
  Mutex mu;
  MutexLock lock(mu);
  lock.unlock();
  // The mutex really is free after the early release.
  std::atomic<bool> acquired{false};
  std::thread other([&] {
    MutexLock inner(mu);
    acquired.store(true);
  });
  other.join();
  EXPECT_TRUE(acquired.load());
  lock.lock();  // reacquire; destructor releases
}

TEST(CondVar, NotifyWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();  // deadlocks here if the wait never wakes
}

TEST(CondVar, WaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  // Nobody notifies: the deadline variants must return false and leave
  // the mutex held (guarded state stays reachable afterwards).
  EXPECT_FALSE(cv.wait_for(mu, std::chrono::milliseconds(10)));
  EXPECT_FALSE(cv.wait_until(
      mu, std::chrono::steady_clock::now() + std::chrono::milliseconds(10)));
}

TEST(CondVar, WaitUntilSeesNotification) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool ok = true;
    while (!ready && ok) ok = cv.wait_until(mu, deadline);
    EXPECT_TRUE(ready) << "waiter timed out despite a notification";
  }
  notifier.join();
}

}  // namespace
}  // namespace mcb
