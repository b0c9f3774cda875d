// Idle-thread parking with bounded timeouts and single-permit wakeups.
//
// Scheduler loops spin briefly when their pools drain, then park here. All
// waits are timeout-bounded, so a missed notification costs at most one
// timeout period instead of a hang; this keeps the wake protocol simple and
// is the behaviour OMP_WAIT_POLICY=passive models.
//
// Wakes are *permit-based*: unpark() grants one permit, and a permit
// granted while nobody is parked is consumed immediately by the next
// park_for_us — so a producer that targets a worker between its last queue
// probe and its cv wait can never lose the wake. park_for_us reports
// whether it consumed a permit (woken) or ran out the clock (timed out);
// the scheduling core uses the distinction to count spurious wakes and to
// grow its adaptive backoff only on truly fruitless parks.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>

#include "common/checked_mutex.hpp"
#include "common/thread_safety.hpp"

namespace glto::common {

class Parker {
 public:
  /// Blocks the caller for at most @p us microseconds or until a permit
  /// is consumed. Returns true when woken by a permit (possibly granted
  /// before the call), false on timeout.
  ///
  /// A Parker carries ONE permit, so it serves one parked thread — the
  /// scheduling core gives every worker its own instance; broadcasts are
  /// a loop of unpark() over the team (a banked permit also reaches a
  /// worker that was between its queue probe and its park, which a
  /// notify-all of current waiters would miss).
  bool park_for_us(std::int64_t us) {
    return park_until(std::chrono::steady_clock::now() +
                      std::chrono::microseconds(us));
  }

  /// Deadline form of park_for_us: blocks until @p deadline or a permit.
  /// Timed waits against an absolute deadline are what let timeout be a
  /// first-class outcome of the runtime's blocking surfaces (wait_for,
  /// taskwait_for) instead of an accumulation of relative sleeps that
  /// drifts past the caller's budget.
  bool park_until(std::chrono::steady_clock::time_point deadline) {
    // Explicit wait loop instead of the predicate overload: a predicate
    // lambda cannot carry thread-safety attributes in C++17, so reading
    // permit_ inside one would defeat its GLTO_GUARDED_BY check.
    mutex_.lock();
    if (permit_) {
      permit_ = false;
      mutex_.unlock();
      return true;
    }
    waiters_.fetch_add(1, std::memory_order_relaxed);
    while (!permit_) {
      if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) break;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    const bool woken = permit_;
    permit_ = false;
    mutex_.unlock();
    return woken;
  }

  /// Grants one permit and wakes one parked thread. Never lost: a permit
  /// granted while nobody is parked short-circuits the next park.
  void unpark() {
    {
      CheckedLock lk(mutex_);
      permit_ = true;
    }
    cv_.notify_one();
  }

  /// unpark() that first raises @p flag, all under the lock. A waiter
  /// that polls @p flag and, once it reads true, calls sync() cannot go on
  /// before this call has stopped touching the Parker — so the Parker may
  /// die with the waiter (a thread_local of a thread about to exit).
  void unpark_raising(std::atomic<bool>& flag) {
    CheckedLock lk(mutex_);
    flag.store(true, std::memory_order_release);
    permit_ = true;
    cv_.notify_one();
  }

  /// Waits out an unpark_raising() that is still inside this Parker.
  void sync() { CheckedLock lk(mutex_); }

  [[nodiscard]] int waiters() const {
    return waiters_.load(std::memory_order_relaxed);
  }

 private:
  CheckedMutex mutex_;
  // condition_variable_any: waits on the annotated mutex directly (it is
  // BasicLockable), which keeps the permit_ guard compiler-checked.
  std::condition_variable_any cv_;
  bool permit_ GLTO_GUARDED_BY(mutex_) = false;  ///< guarded by mutex_
  std::atomic<int> waiters_{0};
};

}  // namespace glto::common
