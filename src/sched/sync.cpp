#include "sched/sync.hpp"

#include <chrono>

#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/shard.hpp"
#include "common/time.hpp"
#include "sched/chaos.hpp"
#include "sched/trace.hpp"
#include "sched/ult_engine.hpp"
#include "sched/watchdog.hpp"

namespace glto::sched {

namespace {

/// Wait-path event counters. Every suspension and every direct wake bumps
/// one, GLTO's taskwait and region end included, so they are sharded per
/// OS thread (common/shard.hpp).
struct alignas(common::kCacheLine) WaitCounters {
  std::atomic<std::uint64_t> suspensions{0};
  std::atomic<std::uint64_t> wakes_direct{0};
  std::atomic<std::uint64_t> timed_waits{0};
  std::atomic<std::uint64_t> timed_wait_timeouts{0};
};
common::Sharded<WaitCounters> g_counters;

/// The parker for contexts that cannot suspend. Thread-local: it dies when
/// its thread exits, which may be right after the wait returns, so the
/// signaller raises `signaled` inside Parker::unpark_raising and the
/// waiter syncs with it before returning (see park_thread). A stale permit
/// at worst short-circuits that thread's next park — benign, every park
/// loop rechecks its predicate.
common::Parker& thread_parker() {
  thread_local common::Parker p;
  return p;
}

/// Parks the calling thread until @p n is signaled or @p deadline_ns
/// passes; true when signaled.
bool park_thread(common::Parker& p, const WaitNode* n,
                 std::int64_t deadline_ns) {
  const std::chrono::steady_clock::time_point until{
      std::chrono::nanoseconds(deadline_ns)};
  while (!n->signaled.load(std::memory_order_acquire)) {
    if (common::now_ns() >= deadline_ns) return false;
    p.park_until(until);
  }
  p.sync();  // the signaller may still be inside p
  return true;
}

/// Runs try_enqueue under the primitive's lock and counts a parked
/// waiter; a listless op always parks, uncounted. Touches nothing of the
/// op after the unlock: a signaller may then wake the waiter and end the
/// op's frame.
bool enqueue(sync_detail::ParkOp& op) {
  if (op.lock == nullptr) return true;
  const bool timed = op.timed;
  op.lock->lock();
  const bool parked = op.try_enqueue(&op);
  op.lock->unlock();
  if (parked) {
    g_counters.bump(&WaitCounters::suspensions);
    if (timed) g_counters.bump(&WaitCounters::timed_waits);
  }
  return parked;
}

/// Unlinks a timed-out node under the primitive's lock; false when a
/// signaller already popped it.
bool cancel(sync_detail::ParkOp& op) {
  if (op.lock == nullptr) return true;
  common::SpinGuard g(*op.lock);
  return op.cancel_list->remove(op.node);
}

/// Engine park callback: runs on the receiving side after the waiter's
/// context is saved, with the waiter's record in hand.
bool park_cb(void* arg, ult::Record* r) {
  auto* op = static_cast<sync_detail::ParkOp*>(arg);
  op->node->handle = r;
  // The ParkOp lives on the waiter's stack: once enqueue() releases the
  // lock, a signaller can pop the node, wake the waiter on another worker,
  // and the frame dies — copy everything needed afterwards first.
  void (*post)(void*) = op->post_enqueue;
  void* post_arg = op->ctx2;
  const bool parked = enqueue(*op);
  if (parked && post != nullptr) post(post_arg);
  return parked;
}

/// Engine cancel callback. Runs under the parking worker's timer-list
/// lock, which the resumed waiter takes before it returns, so the op is
/// still alive.
bool cancel_cb(void* arg) {
  return cancel(*static_cast<sync_detail::ParkOp*>(arg));
}

void trace_unblock(const WaitNode* n) {
  if (!trace_enabled()) return;
  const std::uint64_t now = static_cast<std::uint64_t>(common::now_ns());
  const std::uint64_t blocked_us =
      n->block_ns != 0 && now > n->block_ns ? (now - n->block_ns) / 1000 : 0;
  trace_emit_at(TraceKind::ult_unblock, now,
                reinterpret_cast<std::uintptr_t>(n),
                blocked_us > 0xffffffffULL
                    ? 0xffffffffu
                    : static_cast<std::uint32_t>(blocked_us));
}

}  // namespace

std::uint64_t suspensions() {
  return g_counters.sum(&WaitCounters::suspensions);
}
std::uint64_t wakes_direct() {
  return g_counters.sum(&WaitCounters::wakes_direct);
}
std::uint64_t timed_waits() {
  return g_counters.sum(&WaitCounters::timed_waits);
}
std::uint64_t timed_wait_timeouts() {
  return g_counters.sum(&WaitCounters::timed_wait_timeouts);
}

void backoff_until(std::int64_t deadline_ns) {
  if (common::now_ns() >= deadline_ns) return;
  WaitNode n;
  sync_detail::ParkOp op;
  op.node = &n;
  (void)sync_detail::park_current(op, deadline_ns);
}

namespace sync_detail {

ParkResult park_current(ParkOp& op, std::int64_t deadline_ns) {
  WaitNode* n = op.node;
  const bool listed = op.lock != nullptr;
  op.timed = deadline_ns != common::kNoDeadline;
  if (listed && trace_enabled()) {
    n->block_ns = static_cast<std::uint64_t>(common::now_ns());
    trace_emit(TraceKind::ult_block, reinterpret_cast<std::uintptr_t>(n));
  }
  chaos_maybe_delay();
  watchdog_enter_wait();
  ParkResult r;
  if (ult::in_ult()) {
    const bool fired = ult::park(&park_cb, &op, deadline_ns, &cancel_cb);
    // Resumed: by the signaller (signaled set before the resume), by the
    // timer (the cancel won), or at once because try_enqueue aborted.
    r = n->signaled.load(std::memory_order_acquire) ? ParkResult::signaled
        : fired                                      ? ParkResult::timeout
                                                     : ParkResult::aborted;
  } else {
    common::Parker& p = thread_parker();
    n->parker = &p;
    if (!enqueue(op)) {
      r = ParkResult::aborted;
    } else {
      // op is this thread's own frame here (we block below until the wait
      // resolves), so reading it after the unlock is safe on this path.
      if (op.post_enqueue != nullptr) op.post_enqueue(op.ctx2);
      if (park_thread(p, n, deadline_ns)) {
        r = ParkResult::signaled;
      } else if (cancel(op)) {
        r = ParkResult::timeout;
      } else {
        // A signaller popped the node and its `signaled` store is on the
        // way: honour the signal.
        (void)park_thread(p, n, common::kNoDeadline);
        r = ParkResult::signaled;
      }
    }
  }
  watchdog_exit_wait();
  if (listed && r == ParkResult::timeout) {
    g_counters.bump(&WaitCounters::timed_wait_timeouts);
    trace_unblock(n);
  }
  return r;
}

void wake_node(WaitNode* n) {
  // The node lives on the waiter's stack and dies the instant the waiter
  // observes `signaled` (Parker path) or is dispatched (ULT) — copy every
  // field first, and make the signaled store the last node access.
  ult::Record* handle = n->handle;
  common::Parker* parker = n->parker;
  trace_unblock(n);
  chaos_maybe_delay();
  if (parker != nullptr) {
    parker->unpark_raising(n->signaled);
  } else {
    n->signaled.store(true, std::memory_order_release);
    ult::resume(handle);
    g_counters.bump(&WaitCounters::wakes_direct);
  }
  watchdog_note_progress();
}

void wake_list(WaitNode* head) {
  while (head != nullptr) {
    WaitNode* next = head->next;  // read before the node can die
    wake_node(head);
    head = next;
  }
}

}  // namespace sync_detail

// ----------------------------------------------------------------- Event

bool Event::enqueue_cb(sync_detail::ParkOp* op) {
  auto* e = static_cast<Event*>(op->ctx);
  if (e->set_.load(std::memory_order_relaxed)) return false;
  e->waiters_.push(op->node);
  return true;
}

void Event::set() {
  WaitNode* chain;
  {
    common::SpinGuard g(lock_);
    set_.store(true, std::memory_order_release);
    chain = waiters_.detach_all();
  }
  sync_detail::wake_list(chain);
}

bool Event::wait_until(std::int64_t deadline_ns) {
  // Locked fast path: a waiter is allowed to destroy the Event once the
  // wait returns, so the set observation must serialize after the
  // setter's unlock (a racy is_set() here could return while set() is
  // still touching members). The parked path is safe without this —
  // wake_list runs past set()'s last member access and touches only the
  // chain — and the enqueue_cb re-check runs under the same lock.
  if (is_set_locked()) return true;
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &Event::enqueue_cb;
  op.ctx = this;
  op.cancel_list = &waiters_;
  // aborted = the enqueue re-check saw the event set; signaled = the
  // setter woke us. Both are locked observations — safe delete-gates.
  return sync_detail::park_current(op, deadline_ns) !=
         sync_detail::ParkResult::timeout;
}

// ----------------------------------------------------------------- Mutex

bool Mutex::enqueue_cb(sync_detail::ParkOp* op) {
  auto* m = static_cast<Mutex*>(op->ctx);
  std::uint32_t expected = 0;
  if (m->state_.compare_exchange_strong(expected, 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    return false;  // acquired during the re-check; no park
  }
  m->waiters_.push(op->node);
  return true;
}

void Mutex::lock_slow() {
  // Without a deadline the park ends only in a handoff or the re-check
  // CAS acquiring the lock — both ways we own it on return.
  (void)try_lock_until(common::kNoDeadline);
}

bool Mutex::try_lock_until(std::int64_t deadline_ns) {
  if (try_lock()) return true;
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &qlock_;
  op.node = &n;
  op.try_enqueue = &Mutex::enqueue_cb;
  op.ctx = this;
  op.cancel_list = &waiters_;
  // aborted = the enqueue re-check CAS acquired the lock; signaled = an
  // unlock() handed ownership to us FIFO-style. A handoff that raced the
  // timeout resolves as signaled (the cancel unlink lost), so ownership
  // is never dropped on the floor.
  return sync_detail::park_current(op, deadline_ns) !=
         sync_detail::ParkResult::timeout;
}

void Mutex::unlock() {
  WaitNode* n;
  {
    common::SpinGuard g(qlock_);
    n = waiters_.pop();
    if (n == nullptr) {
      state_.store(0, std::memory_order_release);
      return;
    }
    // Direct handoff: the lock word stays 1 and ownership transfers to
    // the oldest waiter — a barger spinning on the fast path cannot slip
    // in between.
  }
  sync_detail::wake_node(n);
}

// --------------------------------------------------------------- Condvar

bool Condvar::enqueue_cb(sync_detail::ParkOp* op) {
  auto* cv = static_cast<Condvar*>(op->ctx);
  cv->waiters_.push(op->node);
  return true;  // a condvar wait always parks
}

void Condvar::release_mutex_cb(void* ctx2) {
  static_cast<Mutex*>(ctx2)->unlock();
}

void Condvar::wait(Mutex& m) { (void)wait_until(m, common::kNoDeadline); }

bool Condvar::wait_until(Mutex& m, std::int64_t deadline_ns) {
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &Condvar::enqueue_cb;
  op.post_enqueue = &Condvar::release_mutex_cb;  // after the node is listed
  op.ctx = this;
  op.ctx2 = &m;
  op.cancel_list = &waiters_;
  const sync_detail::ParkResult r = sync_detail::park_current(op, deadline_ns);
  // The mutex is reacquired on both outcomes; the reacquire is untimed.
  m.lock();
  return r != sync_detail::ParkResult::timeout;
}

void Condvar::notify_one() {
  WaitNode* n;
  {
    common::SpinGuard g(lock_);
    n = waiters_.pop();
  }
  if (n != nullptr) sync_detail::wake_node(n);
}

void Condvar::notify_all() {
  WaitNode* chain;
  {
    common::SpinGuard g(lock_);
    chain = waiters_.detach_all();
  }
  sync_detail::wake_list(chain);
}

// ------------------------------------------------------- CompletionLatch

bool CompletionLatch::enqueue_cb(sync_detail::ParkOp* op) {
  auto* l = static_cast<CompletionLatch*>(op->ctx);
  if (l->count_.load(std::memory_order_acquire) == 0) return false;
  l->waiters_.push(op->node);
  return true;
}

void CompletionLatch::add(std::int64_t n) {
  count_.fetch_add(n, std::memory_order_relaxed);
}

void CompletionLatch::count_down(std::int64_t n) {
  // Above zero afterwards: one RMW, and the latch is not touched again.
  std::int64_t c = count_.load(std::memory_order_relaxed);
  while (c > n) {
    if (count_.compare_exchange_weak(c, c - n, std::memory_order_release,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
  WaitNode* chain = nullptr;
  {
    common::SpinGuard g(lock_);
    if (count_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      chain = waiters_.detach_all();
    }
  }
  // Past the unlock we touch only the detached chain: a waiter that
  // observed zero may already have freed the latch's owner.
  sync_detail::wake_list(chain);
}

bool CompletionLatch::try_wait() {
  if (count_.load(std::memory_order_acquire) != 0) return false;
  // Zero was stored under the lock: taking it waits out that unlock.
  common::SpinGuard g(lock_);
  return count_.load(std::memory_order_acquire) == 0;
}

bool CompletionLatch::wait_until(std::int64_t deadline_ns) {
  if (try_wait()) return true;
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &CompletionLatch::enqueue_cb;
  op.ctx = this;
  op.cancel_list = &waiters_;
  // aborted = the enqueue re-check saw zero; signaled = the final
  // count_down woke us. Both observations serialize after the
  // decrementer's unlock, so the destruction protocol holds.
  return sync_detail::park_current(op, deadline_ns) !=
         sync_detail::ParkResult::timeout;
}

std::int64_t CompletionLatch::pending() const {
  return count_.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------- Barrier

namespace {
struct BarrierWaitCtx {
  std::uint64_t my_epoch;
};
}  // namespace

bool Barrier::enqueue_cb(sync_detail::ParkOp* op) {
  auto* b = static_cast<Barrier*>(op->ctx);
  const auto* w = static_cast<const BarrierWaitCtx*>(op->ctx2);
  if (b->epoch_ != w->my_epoch) return false;  // cycle completed meanwhile
  b->waiters_.push(op->node);
  return true;
}

bool Barrier::arrive_and_wait() {
  BarrierWaitCtx w{};
  lock_.lock();
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++epoch_;
    WaitNode* chain = waiters_.detach_all();
    lock_.unlock();
    sync_detail::wake_list(chain);
    return true;
  }
  w.my_epoch = epoch_;
  lock_.unlock();
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &Barrier::enqueue_cb;
  op.ctx = this;
  op.ctx2 = &w;
  sync_detail::park_current(op);
  return false;
}

}  // namespace glto::sched
