// ULT-native blocking primitives over the shared scheduling core.
//
// Every blocking wait in the runtime used to bottom out in bounded
// micro-sleeps (WaitBackoff, ≤200 µs quantum), which puts a hard floor
// under wake latency and burns wake tokens on spurious re-probes. The
// primitives here suspend the waiter for real: it captures its
// continuation, parks on an intrusive wait list, and the signaller
// re-deposits it onto a worker deque through the core's targeted-wake
// path. No sleep quantum, no lost wakeups.
//
// Every wait, timed or not, goes through one park_current. On a ULT it
// suspends through the ULT engine's park protocol (sched/ult_engine.hpp),
// which joins and qth's FEB ops use too: the engine runs the park
// callback on the receiving side — *after* the waiter's context is fully
// saved — and the callback enqueues the waiter under the primitive's lock
// with a re-check of the wait condition. A condition already satisfied
// aborts the park and the engine re-readies the waiter at once;
// otherwise the eventual signaller owns the waiter and resumes it.
//
// A timed wait is the same park with a deadline. The engine arms it on
// the parking worker's timer list and, once it passes, runs the cancel
// callback, which unlinks the node under the primitive's lock. The
// signaller wins every race: a node it already popped is not cancelled,
// and the wait reports `signaled`.
//
// Contexts that cannot suspend (foreign OS threads, tasklets, the
// pthread runtimes) park the calling thread's Parker until the node is
// signaled or the deadline passes, then cancel under the primitive's
// lock. The signaller banks a permit, so the wake is never lost and
// never waits out a timeout quantum.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/parker.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"
#include "common/time.hpp"

namespace glto::sched {

namespace ult {
struct Record;
}  // namespace ult

/// Counters for the metrics registry: contexts actually parked on a wait
/// list, and parked contexts handed straight back to a worker deque by a
/// signaller (as opposed to Parker-fallback wakes).
[[nodiscard]] std::uint64_t suspensions();
[[nodiscard]] std::uint64_t wakes_direct();

/// Deadline-bounded waits entered, and the subset that expired. Exported
/// as sched.timed_waits / sched.timed_wait_timeouts.
[[nodiscard]] std::uint64_t timed_waits();
[[nodiscard]] std::uint64_t timed_wait_timeouts();

/// Bounded backoff for retry loops (the lint-sanctioned replacement for
/// naked sleeps): a timed park with no wait list, returning once
/// @p deadline_ns (common::now_ns clock) has passed. A ULT suspends and
/// its worker runs other units meanwhile; any other context parks its
/// thread.
void backoff_until(std::int64_t deadline_ns);

// -------------------------------------------------------------- WaitNode

/// One parked waiter. Lives on the waiter's stack for the duration of the
/// wait; the signaller must copy every field it needs into locals before
/// resuming/unparking, because the node dies the instant the waiter runs.
struct WaitNode {
  ult::Record* handle = nullptr;      ///< the parked unit (ULT path)
  common::Parker* parker = nullptr;   ///< fallback path (thread-local, immortal)
  std::atomic<bool> signaled{false};
  WaitNode* next = nullptr;
  std::uint64_t block_ns = 0;         ///< stamped only when tracing is armed
};

/// Intrusive FIFO of WaitNodes; guarded by the owning primitive's lock.
struct WaitList {
  WaitNode* head = nullptr;
  WaitNode* tail = nullptr;

  void push(WaitNode* n) {
    n->next = nullptr;
    if (tail != nullptr) {
      tail->next = n;
    } else {
      head = n;
    }
    tail = n;
  }
  WaitNode* pop() {
    WaitNode* n = head;
    if (n != nullptr) {
      head = n->next;
      if (head == nullptr) tail = nullptr;
    }
    return n;
  }
  /// Unlinks the whole chain (walk via ->next after the lock is dropped).
  WaitNode* detach_all() {
    WaitNode* n = head;
    head = tail = nullptr;
    return n;
  }
  /// Unlinks @p n if it is still queued; false when a signaller already
  /// popped it. A timed-out wait is cancelled with this under the
  /// primitive's lock — the lock arbitrates the timeout-vs-signal race.
  bool remove(WaitNode* n) {
    WaitNode* prev = nullptr;
    for (WaitNode* cur = head; cur != nullptr; prev = cur, cur = cur->next) {
      if (cur != n) continue;
      if (prev != nullptr) {
        prev->next = cur->next;
      } else {
        head = cur->next;
      }
      if (tail == cur) tail = prev;
      cur->next = nullptr;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool empty() const { return head == nullptr; }
};

namespace sync_detail {

/// One park request. try_enqueue runs with *lock held* and must either
/// enqueue op->node (return true) or observe the condition satisfied
/// (return false). post_enqueue — optional — runs after the lock is
/// released on the parking path only; Condvar uses it to drop the user
/// mutex once the node is safely enqueued. It receives ctx2 by value,
/// never the ParkOp: the op lives on the waiter's stack, and once the
/// lock is released a signaller can wake the waiter and kill the frame —
/// everything needed post-enqueue is copied out while the lock pins it.
struct ParkOp {
  common::SpinLock* lock = nullptr;
  WaitNode* node = nullptr;
  bool (*try_enqueue)(ParkOp* op) = nullptr;
  void (*post_enqueue)(void* ctx2) = nullptr;
  void* ctx = nullptr;
  void* ctx2 = nullptr;
  WaitList* cancel_list = nullptr;  ///< timed waits: list to unlink from
  bool timed = false;               ///< set by park_current
};

/// Outcome of a park.
enum class ParkResult {
  aborted,   ///< try_enqueue observed the condition satisfied; never parked
  signaled,  ///< a signaller detached and woke the node
  timeout,   ///< deadline passed; the node was unlinked from cancel_list
};

/// The one park path: blocks the caller until its node is signaled or
/// @p deadline_ns (common::now_ns clock) passes — ULT suspension when the
/// caller is a ULT, a Parker park otherwise. A timed wait must point
/// op.cancel_list at the wait list try_enqueue pushes onto; a signal
/// that already detached the node wins over the deadline. A listless op
/// (no lock: backoff_until) always parks and always times out.
ParkResult park_current(ParkOp& op,
                        std::int64_t deadline_ns = common::kNoDeadline);

/// Wakes one parked waiter. Must be called with the primitive's lock
/// *released* and the node already unlinked; reads everything it needs
/// before the waiter can possibly run.
void wake_node(WaitNode* n);

/// Wakes a detached chain (detach_all), FIFO order.
void wake_list(WaitNode* head);

}  // namespace sync_detail

// ----------------------------------------------------------------- Event

/// One-shot (resettable) wait-queue event: waiters park until set() wakes
/// the flock. reset() may only be called when no waiter can be in flight.
///
/// Destruction protocol (same as CompletionLatch): an observer that may
/// destroy the Event once it sees it set must observe through a *locked*
/// read — wait() or is_set_locked() — which serializes after set()'s
/// unlock, past the setter's last member access (set() touches only the
/// detached wake chain afterwards). is_set() is the lock-free poll for
/// observers that do NOT free the Event on a true result; using it as a
/// delete-gate races with the setter still inside set().
class Event {
 public:
  Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void set();
  void wait() { (void)wait_until(common::kNoDeadline); }
  /// Waits until set or @p deadline_ns (common::now_ns clock). Returns
  /// is_set at return: true on signal, false on timeout. A timeout
  /// invalidates nothing — the waiter may re-wait, and a set() that lands
  /// after the timeout is never stranded (the timed-out node is fully
  /// unlinked before this returns). Both outcomes are locked observations,
  /// so the destruction protocol above holds for wait_until too.
  [[nodiscard]] bool wait_until(std::int64_t deadline_ns);
  /// Racy poll — never gate destruction on this (see class comment).
  [[nodiscard]] bool is_set() const {
    return set_.load(std::memory_order_acquire);
  }
  /// Locked observation for poll-then-destroy sites: true only once the
  /// setter can no longer touch this Event.
  [[nodiscard]] bool is_set_locked() const {
    common::SpinGuard g(lock_);
    return set_.load(std::memory_order_relaxed);
  }
  void reset() { set_.store(false, std::memory_order_release); }

 private:
  // Runs with lock_ held through the aliased ParkOp::lock pointer (the
  // park path locks it on the scheduler stack); the analysis cannot
  // connect the alias to this->lock_.
  static bool enqueue_cb(sync_detail::ParkOp* op)
      GLTO_NO_THREAD_SAFETY_ANALYSIS;

  std::atomic<bool> set_{false};
  mutable common::SpinLock lock_;
  WaitList waiters_ GLTO_GUARDED_BY(lock_);
};

// ----------------------------------------------------------------- Mutex

/// ULT mutex with FIFO handoff. unlock() passes ownership directly to the
/// oldest waiter (the lock word never goes through 0 while the queue is
/// non-empty), so a spinning newcomer cannot barge past a parked waiter.
/// On contexts that cannot suspend, lock() degrades to a Parker park —
/// the OS thread blocks, matching omp_set_lock semantics there.
class GLTO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GLTO_ACQUIRE() {
    std::uint32_t expected = 0;
    if (state_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;
    }
    lock_slow();
  }
  bool try_lock() GLTO_TRY_ACQUIRE(true) {
    std::uint32_t expected = 0;
    return state_.compare_exchange_strong(
        expected, 1, std::memory_order_acquire, std::memory_order_relaxed);
  }
  /// Acquires the mutex or gives up at @p deadline_ns (common::now_ns
  /// clock). True means the caller owns the mutex. The FIFO-handoff race
  /// resolves in the lock's favour: if unlock() hands ownership to this
  /// waiter while it is timing out, the waiter accepts the lock and
  /// returns true — ownership is never dropped on the floor.
  [[nodiscard]] bool try_lock_until(std::int64_t deadline_ns)
      GLTO_TRY_ACQUIRE(true);
  void unlock() GLTO_RELEASE();

 private:
  friend class Condvar;
  void lock_slow();
  // Runs with qlock_ held through the aliased ParkOp::lock pointer.
  static bool enqueue_cb(sync_detail::ParkOp* op)
      GLTO_NO_THREAD_SAFETY_ANALYSIS;

  std::atomic<std::uint32_t> state_{0};  ///< 0 unlocked, 1 locked
  common::SpinLock qlock_;
  WaitList waiters_ GLTO_GUARDED_BY(qlock_);
};

/// RAII guard for sched::Mutex.
class GLTO_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& m) GLTO_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~ScopedLock() GLTO_RELEASE() { m_.unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& m_;
};

// --------------------------------------------------------------- Condvar

/// Condition variable over sched::Mutex. wait() enqueues the waiter while
/// the mutex is still held (the release happens after the node is on the
/// list — on the ULT path, on the scheduler stack), so a notify that is
/// serialized after the mutex release can never slip between "decide to
/// wait" and "parked". Spurious wakeups are possible; callers loop on
/// their predicate as with any condvar.
class Condvar {
 public:
  Condvar() = default;
  Condvar(const Condvar&) = delete;
  Condvar& operator=(const Condvar&) = delete;

  /// REQUIRES(m) enforces the condvar contract at every call site; the
  /// body is exempt from analysis because its release/reacquire of @p m
  /// happens through the park protocol (release_mutex_cb fires on the
  /// scheduler stack after the node is enqueued), which the analysis
  /// cannot see — it would flag the trailing m.lock() as a double
  /// acquire.
  void wait(Mutex& m) GLTO_REQUIRES(m) GLTO_NO_THREAD_SAFETY_ANALYSIS;
  /// wait() with a deadline (common::now_ns clock). Returns false on
  /// timeout, true when notified; @p m is reacquired before returning in
  /// *both* cases (the reacquire itself is untimed, as with any condvar).
  /// Spurious true returns are possible — loop on the predicate and
  /// re-check it after a false return too, since a notify can land
  /// between the timeout and the reacquire.
  [[nodiscard]] bool wait_until(Mutex& m, std::int64_t deadline_ns)
      GLTO_REQUIRES(m) GLTO_NO_THREAD_SAFETY_ANALYSIS;
  void notify_one();
  void notify_all();

 private:
  // Runs with lock_ held through the aliased ParkOp::lock pointer.
  static bool enqueue_cb(sync_detail::ParkOp* op)
      GLTO_NO_THREAD_SAFETY_ANALYSIS;
  static void release_mutex_cb(void* ctx2);

  common::SpinLock lock_;
  WaitList waiters_ GLTO_GUARDED_BY(lock_);
};

// ------------------------------------------------------- CompletionLatch

/// Counts outstanding work down to zero and wakes the waiters parked on
/// it. add() and a count_down() that leaves the count above zero are one
/// atomic RMW each (GLTO counts every task in and out of its creator's
/// latch); the transition to zero happens only under the lock, and zero
/// is only ever observed under it. So a deleter that observes zero
/// through try_wait()/wait() is serialized after the final count_down()'s
/// unlock, and the decrementer touches only its detached wake chain
/// afterwards: freeing the latch's owner right after the wait returns is
/// safe.
class CompletionLatch {
 public:
  CompletionLatch() = default;
  explicit CompletionLatch(std::int64_t initial) : count_(initial) {}
  CompletionLatch(const CompletionLatch&) = delete;
  CompletionLatch& operator=(const CompletionLatch&) = delete;

  void add(std::int64_t n);
  void count_down(std::int64_t n = 1);
  /// True when the count is zero (locked read — see class comment).
  [[nodiscard]] bool try_wait();
  void wait() { (void)wait_until(common::kNoDeadline); }
  /// Waits for zero until @p deadline_ns (common::now_ns clock). True
  /// when the count reached zero (a locked observation, so the
  /// destruction protocol holds); false on timeout — the latch is
  /// untouched and the caller may re-wait.
  [[nodiscard]] bool wait_until(std::int64_t deadline_ns);
  /// Racy read for stats/asserts only.
  [[nodiscard]] std::int64_t pending() const;

 private:
  // Runs with lock_ held through the aliased ParkOp::lock pointer.
  static bool enqueue_cb(sync_detail::ParkOp* op)
      GLTO_NO_THREAD_SAFETY_ANALYSIS;

  mutable common::SpinLock lock_;
  std::atomic<std::int64_t> count_{0};  ///< reaches zero only under lock_
  WaitList waiters_ GLTO_GUARDED_BY(lock_);
};

// --------------------------------------------------------------- Barrier

/// Sense-reversing blocking barrier: the first parties-1 arrivers park,
/// the last arriver advances the epoch and wakes the flock through the
/// core. Returns true to exactly one arriver per cycle (the "serial"
/// thread). Reusable immediately — a waiter from the next cycle enqueues
/// against the new epoch.
class Barrier {
 public:
  Barrier() = default;
  explicit Barrier(int parties) : parties_(parties) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Set before any arrival of a cycle; not thread-safe against arrivals
  /// (the lock only keeps the member writes analysis-clean and ordered).
  void init(int parties) {
    common::SpinGuard g(lock_);
    parties_ = parties;
    arrived_ = 0;
  }
  bool arrive_and_wait();

 private:
  // Runs with lock_ held through the aliased ParkOp::lock pointer.
  static bool enqueue_cb(sync_detail::ParkOp* op)
      GLTO_NO_THREAD_SAFETY_ANALYSIS;

  common::SpinLock lock_;
  int parties_ GLTO_GUARDED_BY(lock_) = 0;
  int arrived_ GLTO_GUARDED_BY(lock_) = 0;
  std::uint64_t epoch_ GLTO_GUARDED_BY(lock_) = 0;
  WaitList waiters_ GLTO_GUARDED_BY(lock_);
};

// --------------------------------------------------------------- Channel

/// Bounded MPMC channel for trivially copyable payloads (descriptor-first
/// discipline: ship a struct of PODs, not an owning object). send blocks
/// while full, recv blocks while empty; close() wakes everyone — send
/// returns false after close, recv returns false once closed *and*
/// drained.
template <typename T>
class Channel {
  static_assert(std::is_trivially_copyable_v<T>,
                "Channel payloads are copied through a ring buffer; ship a "
                "descriptor, not an owning object");

 public:
  explicit Channel(std::size_t capacity)
      : buf_(capacity == 0 ? 1 : capacity), cap_(buf_.size()) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool send(const T& v) { return send_until(v, common::kNoDeadline); }
  bool recv(T& out) { return recv_until(out, common::kNoDeadline); }

  /// send() with a deadline (common::now_ns clock): false when the
  /// channel stayed full past @p deadline_ns or was closed — the item was
  /// never enqueued. The deadline covers the whole operation, including
  /// the channel-mutex acquire.
  bool send_until(const T& v, std::int64_t deadline_ns) {
    if (!m_.try_lock_until(deadline_ns)) return false;
    while (count_ == cap_ && !closed_) {
      if (!not_full_.wait_until(m_, deadline_ns)) {
        // Timed out — but the mutex is reacquired, so re-check before
        // failing: a slot freed between timeout and reacquire is ours.
        if (count_ == cap_ && !closed_) {
          m_.unlock();
          return false;
        }
      }
    }
    if (closed_) {
      m_.unlock();
      return false;
    }
    buf_[(head_ + count_) % cap_] = v;
    ++count_;
    m_.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// recv() with a deadline: drains remaining items after close() before
  /// failing, exactly like recv. A false return consumed nothing — an
  /// item sent concurrently with the timeout stays in the channel for
  /// the next receiver.
  bool recv_until(T& out, std::int64_t deadline_ns) {
    if (!m_.try_lock_until(deadline_ns)) return false;
    while (count_ == 0 && !closed_) {
      if (!not_empty_.wait_until(m_, deadline_ns)) {
        // Re-check under the reacquired mutex: an item that arrived
        // between the timeout and the reacquire must not be lost.
        if (count_ == 0) {
          m_.unlock();
          return false;
        }
      }
    }
    if (count_ == 0) {
      m_.unlock();
      return false;  // closed and drained
    }
    out = buf_[head_];
    head_ = (head_ + 1) % cap_;
    --count_;
    m_.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking variants: false when the channel is full/empty/closed.
  bool try_send(const T& v) {
    ScopedLock g(m_);
    if (closed_ || count_ == cap_) return false;
    buf_[(head_ + count_) % cap_] = v;
    ++count_;
    not_empty_.notify_one();
    return true;
  }
  bool try_recv(T& out) {
    ScopedLock g(m_);
    if (count_ == 0) return false;
    out = buf_[head_];
    head_ = (head_ + 1) % cap_;
    --count_;
    not_full_.notify_one();
    return true;
  }

  void close() {
    m_.lock();
    closed_ = true;
    m_.unlock();
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() {
    ScopedLock g(m_);
    return closed_;
  }
  /// Queued-item snapshot for admission heuristics — a locked read, but
  /// stale by the time the caller acts on it.
  [[nodiscard]] std::size_t size() {
    ScopedLock g(m_);
    return count_;
  }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  Mutex m_;
  Condvar not_full_;
  Condvar not_empty_;
  std::vector<T> buf_ GLTO_GUARDED_BY(m_);
  std::size_t cap_;  ///< immutable after construction
  std::size_t head_ GLTO_GUARDED_BY(m_) = 0;
  std::size_t count_ GLTO_GUARDED_BY(m_) = 0;
  bool closed_ GLTO_GUARDED_BY(m_) = false;
};

}  // namespace glto::sched
