#include "sched/sync.hpp"

#include <thread>

#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/time.hpp"
#include "sched/chaos.hpp"
#include "sched/trace.hpp"
#include "sched/watchdog.hpp"

namespace glto::sched {

namespace {

// The live ULT engine's vtable (one engine runs at a time).
std::atomic<const SuspendOps*> g_ops{nullptr};

std::atomic<std::uint64_t> g_suspensions{0};
std::atomic<std::uint64_t> g_wakes_direct{0};
std::atomic<std::uint64_t> g_timed_waits{0};
std::atomic<std::uint64_t> g_timed_wait_timeouts{0};

/// The fallback parker for contexts that cannot suspend. Thread-local and
/// immortal (lives as long as the OS thread), so a signaller's unpark()
/// after the waiter already observed `signaled` lands on live memory; the
/// stale permit at worst short-circuits that thread's next park — benign,
/// every park loop rechecks its predicate.
common::Parker& foreign_parker() {
  thread_local common::Parker p;
  return p;
}

/// Backoff ladder shared by the Parker fallback and the WaitEngine.
constexpr std::uint32_t kSpinSteps = 16;
constexpr std::uint32_t kYieldSteps = 24;
constexpr std::int64_t kSleepStepUs = 20;
constexpr std::int64_t kSleepCapUs = 200;

/// Bridges a ParkOp through a backend suspend: runs on the scheduler
/// stack after the waiter's context is saved, with the handle in hand.
bool park_suspend_cb(void* arg, void* handle) {
  auto* op = static_cast<sync_detail::ParkOp*>(arg);
  op->node->handle = handle;
  op->lock->lock();
  // The ParkOp lives on the waiter's stack: the moment the lock below is
  // released, a signaller can pop the node, wake the waiter on another
  // worker, and the frame dies — copy everything needed after the unlock
  // while the lock still pins it.
  void (*post)(void*) = op->post_enqueue;
  void* post_arg = op->ctx2;
  const bool parked = op->try_enqueue(op);
  op->lock->unlock();
  if (parked) {
    if (post != nullptr) post(post_arg);
    g_suspensions.fetch_add(1, std::memory_order_relaxed);
  }
  return parked;
}

}  // namespace

void register_suspend_ops(const SuspendOps* ops) {
  const SuspendOps* expected = nullptr;
  const bool claimed =
      g_ops.compare_exchange_strong(expected, ops, std::memory_order_acq_rel);
  // A taken slot means a backend leaked its registration across
  // init/finalize; replacing it silently would strand the other's waiters.
  GLTO_CHECK_MSG(claimed, "suspend ops already registered");
}

void unregister_suspend_ops(const SuspendOps* ops) {
  const SuspendOps* expected = ops;
  g_ops.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

const SuspendOps* current_suspend_ops() {
  const SuspendOps* o = g_ops.load(std::memory_order_acquire);
  return o != nullptr && o->can_suspend() ? o : nullptr;
}

std::uint64_t suspensions() {
  return g_suspensions.load(std::memory_order_relaxed);
}
std::uint64_t wakes_direct() {
  return g_wakes_direct.load(std::memory_order_relaxed);
}
std::uint64_t timed_waits() {
  return g_timed_waits.load(std::memory_order_relaxed);
}
std::uint64_t timed_wait_timeouts() {
  return g_timed_wait_timeouts.load(std::memory_order_relaxed);
}

void backoff_until(std::int64_t deadline_ns) {
  WaitEngine e;
  while (e.step_until(deadline_ns)) {
  }
}

void backoff_for_us(std::int64_t us) {
  backoff_until(common::now_ns() + us * 1000);
}

namespace sync_detail {

bool run_some_work() {
  // maybe_work is a *probe* ("anything runnable for this thread?") —
  // the actual execution happens when the caller yields into the
  // scheduler. True therefore means "yield now and it will count".
  const SuspendOps* o = g_ops.load(std::memory_order_acquire);
  return o != nullptr && o->maybe_work();
}

void yield_some() {
  if (const SuspendOps* o = current_suspend_ops()) {
    o->yield();
    return;
  }
  std::this_thread::yield();
}

bool park_current(ParkOp& op) {
  WaitNode* n = op.node;
  if (trace_enabled()) {
    n->block_ns = static_cast<std::uint64_t>(common::now_ns());
    trace_emit(TraceKind::ult_block, reinterpret_cast<std::uintptr_t>(n));
  }
  chaos_maybe_delay();
  watchdog_enter_wait();
  bool parked;
  const SuspendOps* ops = current_suspend_ops();
  if (ops != nullptr) {
    n->ops = ops;
    ops->suspend(&park_suspend_cb, &op);
    // Resumed: either the signaller handed us back (signaled set before
    // the resume) or try_enqueue aborted and the scheduler re-readied us.
    parked = n->signaled.load(std::memory_order_acquire);
  } else {
    // Foreign thread / tasklet / pthread runtime: park the OS thread, but
    // stay work-conserving — a stackless context blocking on a primitive
    // must keep its worker draining runnable units or the very unit that
    // would signal us may never run.
    common::Parker& p = foreign_parker();
    n->parker = &p;
    op.lock->lock();
    parked = op.try_enqueue(&op);
    op.lock->unlock();
    if (parked) {
      // op is this thread's own frame here (we block below until
      // signaled), so reading it after the unlock is safe on this path.
      if (op.post_enqueue != nullptr) op.post_enqueue(op.ctx2);
      g_suspensions.fetch_add(1, std::memory_order_relaxed);
      std::int64_t sleep_us = 0;
      while (!n->signaled.load(std::memory_order_acquire)) {
        if (run_some_work()) {
          // Runnable units exist somewhere: give the schedulers the core
          // before sleeping (an OS yield — this context cannot switch).
          std::this_thread::yield();
          if (n->signaled.load(std::memory_order_acquire)) break;
        }
        if (sleep_us < kSleepCapUs) sleep_us += kSleepStepUs;
        p.park_for_us(sleep_us);
      }
    }
  }
  watchdog_exit_wait();
  return parked;
}

void wake_node(WaitNode* n) {
  // The node lives on the waiter's stack and dies the instant the waiter
  // observes `signaled` (fallback) or is dispatched (ULT) — copy every
  // field first, and make the signaled store the last node access.
  const SuspendOps* ops = n->ops;
  void* handle = n->handle;
  common::Parker* parker = n->parker;
  if (trace_enabled()) {
    const std::uint64_t now = static_cast<std::uint64_t>(common::now_ns());
    const std::uint64_t blocked_us =
        n->block_ns != 0 && now > n->block_ns ? (now - n->block_ns) / 1000 : 0;
    trace_emit_at(TraceKind::ult_unblock, now,
                  reinterpret_cast<std::uintptr_t>(n),
                  blocked_us > 0xffffffffULL
                      ? 0xffffffffu
                      : static_cast<std::uint32_t>(blocked_us));
  }
  chaos_maybe_delay();
  n->signaled.store(true, std::memory_order_release);
  if (parker != nullptr) {
    parker->unpark();
  } else {
    ops->resume(handle);
    g_wakes_direct.fetch_add(1, std::memory_order_relaxed);
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

TimedPark timed_park_current(ParkOp& op, std::int64_t deadline_ns) {
  WaitNode* n = op.node;
  GLTO_CHECK_MSG(op.cancel_list != nullptr,
                 "timed park without a cancel list");
  // A timed waiter never suspends through a backend: nothing would
  // resume a suspended ULT at the deadline. It enqueues as a
  // Parker-backed node (wake_node's fallback branch) and polls
  // `signaled` through the WaitEngine's deadline clamp, which drains
  // runnable units and yields before it ever micro-parks, so a ULT
  // caller stays work-conserving while it waits. If the ULT migrates
  // mid-wait the recorded parker goes stale and a signaller's unpark
  // lands on the old thread's immortal parker — benign: the waiter
  // polls, and every park in the ladder is bounded (≤200 µs).
  n->parker = &foreign_parker();
  if (trace_enabled()) {
    n->block_ns = static_cast<std::uint64_t>(common::now_ns());
    trace_emit(TraceKind::ult_block, reinterpret_cast<std::uintptr_t>(n));
  }
  chaos_maybe_delay();
  op.lock->lock();
  const bool parked = op.try_enqueue(&op);
  op.lock->unlock();
  if (!parked) return TimedPark::aborted;
  // op is this context's own frame (we do not return before the wait is
  // resolved), so reading it after the unlock is safe on this path.
  if (op.post_enqueue != nullptr) op.post_enqueue(op.ctx2);
  g_timed_waits.fetch_add(1, std::memory_order_relaxed);
  WaitEngine e;
  while (!n->signaled.load(std::memory_order_acquire)) {
    if (e.step_until(deadline_ns)) continue;
    // Deadline passed: race the signaller for the node under the
    // primitive's lock. Unlinking wins the timeout; a signaller that
    // already popped the node wins the wait — it is past the pop and
    // before its `signaled` store (its last node access), so spin that
    // bounded window out and honour the signal.
    op.lock->lock();
    const bool unlinked = op.cancel_list->remove(n);
    op.lock->unlock();
    if (unlinked) {
      g_timed_wait_timeouts.fetch_add(1, std::memory_order_relaxed);
      if (trace_enabled()) {
        const std::uint64_t now = static_cast<std::uint64_t>(common::now_ns());
        const std::uint64_t blocked_us =
            n->block_ns != 0 && now > n->block_ns ? (now - n->block_ns) / 1000
                                                  : 0;
        trace_emit_at(TraceKind::ult_unblock, now,
                      reinterpret_cast<std::uintptr_t>(n),
                      blocked_us > 0xffffffffULL
                          ? 0xffffffffu
                          : static_cast<std::uint32_t>(blocked_us));
      }
      return TimedPark::timeout;
    }
    while (!n->signaled.load(std::memory_order_acquire)) {
      common::cpu_relax();
    }
    break;
  }
  return TimedPark::signaled;
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

void Event::wait() {
  // Locked fast path: a waiter is allowed to destroy the Event once
  // wait() returns, so the set observation must serialize after the
  // setter's unlock (a racy is_set() here could return while set() is
  // still touching members). The parked path is safe without this —
  // wake_list runs past set()'s last member access and touches only the
  // chain — and the enqueue_cb re-check runs under the same lock.
  if (is_set_locked()) return;
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &Event::enqueue_cb;
  op.ctx = this;
  sync_detail::park_current(op);
}

bool Event::wait_until(std::int64_t deadline_ns) {
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
  return sync_detail::timed_park_current(op, deadline_ns) !=
         sync_detail::TimedPark::timeout;
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
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &qlock_;
  op.node = &n;
  op.try_enqueue = &Mutex::enqueue_cb;
  op.ctx = this;
  // Either we parked and a handoff made us the owner, or the re-check
  // CAS acquired the lock — both ways we own it on return.
  sync_detail::park_current(op);
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
  return sync_detail::timed_park_current(op, deadline_ns) !=
         sync_detail::TimedPark::timeout;
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

void Condvar::wait(Mutex& m) {
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &Condvar::enqueue_cb;
  op.post_enqueue = &Condvar::release_mutex_cb;  // after the node is listed
  op.ctx = this;
  op.ctx2 = &m;
  sync_detail::park_current(op);
  m.lock();
}

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
  const sync_detail::TimedPark r =
      sync_detail::timed_park_current(op, deadline_ns);
  // The mutex is reacquired on both outcomes; the reacquire is untimed.
  m.lock();
  return r != sync_detail::TimedPark::timeout;
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
  if (l->count_ == 0) return false;
  l->waiters_.push(op->node);
  return true;
}

void CompletionLatch::add(std::int64_t n) {
  common::SpinGuard g(lock_);
  count_ += n;
}

void CompletionLatch::count_down(std::int64_t n) {
  WaitNode* chain = nullptr;
  {
    common::SpinGuard g(lock_);
    count_ -= n;
    if (count_ == 0) chain = waiters_.detach_all();
  }
  // Past the unlock we touch only the detached chain: a waiter that
  // observed zero may already have freed the latch's owner.
  sync_detail::wake_list(chain);
}

bool CompletionLatch::try_wait() {
  common::SpinGuard g(lock_);
  return count_ == 0;
}

void CompletionLatch::wait() {
  if (try_wait()) return;
  WaitNode n;
  sync_detail::ParkOp op;
  op.lock = &lock_;
  op.node = &n;
  op.try_enqueue = &CompletionLatch::enqueue_cb;
  op.ctx = this;
  sync_detail::park_current(op);
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
  return sync_detail::timed_park_current(op, deadline_ns) !=
         sync_detail::TimedPark::timeout;
}

std::int64_t CompletionLatch::pending() const {
  common::SpinGuard g(lock_);
  return count_;
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

// ------------------------------------------------------------ WaitEngine

WaitEngine::WaitEngine() { watchdog_enter_wait(); }
WaitEngine::~WaitEngine() { watchdog_exit_wait(); }

void WaitEngine::step() {
  chaos_maybe_delay();
  if (spins_ < kSpinSteps) {
    ++spins_;
    common::cpu_relax();
    return;
  }
  if (sync_detail::run_some_work()) {
    // Runnable units exist: yield into the scheduler so they actually
    // execute (on a ULT this context-switches into the work), and
    // restart the cheap end of the ladder.
    sync_detail::yield_some();
    yields_ = 0;
    sleep_us_ = 0;
    return;
  }
  if (yields_ < kYieldSteps) {
    ++yields_;
    sync_detail::yield_some();
    return;
  }
  if (sleep_us_ < kSleepCapUs) sleep_us_ += kSleepStepUs;
  foreign_parker().park_for_us(sleep_us_);
}

bool WaitEngine::step_until(std::int64_t deadline_ns) {
  const std::int64_t now = common::now_ns();
  if (now >= deadline_ns) return false;
  chaos_maybe_delay();
  if (spins_ < kSpinSteps) {
    ++spins_;
    common::cpu_relax();
    return true;
  }
  if (sync_detail::run_some_work()) {
    sync_detail::yield_some();
    yields_ = 0;
    sleep_us_ = 0;
    return true;
  }
  if (yields_ < kYieldSteps) {
    ++yields_;
    sync_detail::yield_some();
    return true;
  }
  if (sleep_us_ < kSleepCapUs) sleep_us_ += kSleepStepUs;
  const std::int64_t budget_us = (deadline_ns - now) / 1000;
  foreign_parker().park_for_us(
      budget_us < sleep_us_ ? (budget_us > 0 ? budget_us : 1) : sleep_us_);
  return true;
}

}  // namespace glto::sched
