#include "util/sync.hpp"

namespace mcb {

void Mutex::lock() { mutex_.lock(); }
void Mutex::unlock() { mutex_.unlock(); }
bool Mutex::try_lock() { return mutex_.try_lock(); }

// The std::condition_variable API wants a std unique lock, but our
// callers hold the annotated mcb::Mutex. Bridge with the adopt/release
// trick: wrap the already-held native mutex without locking it, let the
// condvar do its atomic release-wait-reacquire, then release() the
// wrapper so the hold survives the wrapper's destruction. The analysis
// sees no lock operations here — the MCB_REQUIRES(mu) contract on the
// declaration is what callers are checked against.

void CondVar::wait(Mutex& mu) {
  std::unique_lock native(mu.mutex_, std::adopt_lock);
  // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions) — every caller
  // loops on its condition (the wrapper cannot see the predicate).
  cv_.wait(native);
  static_cast<void>(native.release());
}

bool CondVar::wait_for(Mutex& mu, std::chrono::milliseconds timeout) {
  std::unique_lock native(mu.mutex_, std::adopt_lock);
  const std::cv_status status = cv_.wait_for(native, timeout);
  static_cast<void>(native.release());
  return status == std::cv_status::no_timeout;
}

bool CondVar::wait_until(Mutex& mu, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock native(mu.mutex_, std::adopt_lock);
  const std::cv_status status = cv_.wait_until(native, deadline);
  static_cast<void>(native.release());
  return status == std::cv_status::no_timeout;
}

void CondVar::notify_one() noexcept { cv_.notify_one(); }
void CondVar::notify_all() noexcept { cv_.notify_all(); }

}  // namespace mcb
