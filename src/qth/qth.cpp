#include "qth/qth.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/affinity.hpp"
#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/spin.hpp"
#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"
#include "sched/freelist.hpp"
#include "sched/sync.hpp"
#include "sched/watchdog.hpp"
#include "sched/ws_core.hpp"

namespace glto::qth {

namespace {

enum class Kind : std::uint8_t { Qthread, Main };
enum class Dir : std::uint8_t { Resume, Yield, BlockFeb, BlockExt, Done };
enum class FebOp : std::uint8_t { ReadFF, ReadFE, WriteEF };

struct Thread {
  QthFn fn = nullptr;
  void* arg = nullptr;
  aligned_t* ret = nullptr;
  /// nullptr until the qthread first runs: a queued qthread holds no stack.
  fctx::fcontext_t ctx = nullptr;
  fctx::Stack stack;  ///< bound by run_thread, released at Dir::Done
  /// ASan bounds of the stack this thread runs on: its pooled stack for
  /// qthreads, the process native stack for Kind::Main.
  fctx::StackRegion stack_region;
  int home_shep = 0;
  Kind kind = Kind::Qthread;
  bool pinned = false;  ///< fork_to: exact placement, never stolen
  void* user_local = nullptr;  ///< see qth::self_local()
};

/// A qthread parked on a FEB word.
struct Waiter {
  Thread* th;
  FebOp op;
  aligned_t* dst;  // ReadFF / ReadFE destination
  aligned_t val;   // WriteEF value
};

/// Per-word full/empty state. A word with no table entry is *full* with no
/// waiters (Qthreads' default: all memory starts full).
struct FebEntry {
  bool full = true;
  std::deque<Waiter> waiters;
};

struct FebBucket {
  common::SpinLock lock;
  std::unordered_map<std::uintptr_t, FebEntry> words;
};

constexpr std::size_t kFebBuckets = 64;

struct SwitchMsg {
  Dir dir;
  Thread* self;
  // BlockFeb payload:
  FebOp op;
  aligned_t* addr;
  aligned_t* dst;
  aligned_t val;
  // BlockExt payload (sched::sync primitives): cb runs on the scheduler
  // after the context is saved; false means the condition was already
  // satisfied and the thread must be re-readied.
  sched::SuspendCb cb = nullptr;
  void* cb_arg = nullptr;
};

struct Runtime {
  Config cfg;
  int n = 0;
  /// Shared scheduling core (same engine as abt/mth). The main context
  /// travels through the core's main slot: only shepherd 0 — whose
  /// scheduler runs on the main OS thread — ever resumes it, so finalize
  /// always executes where init did.
  std::unique_ptr<sched::WsCore<Thread*>> core;
  std::unique_ptr<sched::Freelist<Thread>> free;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> rr_next{0};
  fctx::Stack primary_sched_stack;
  std::uint64_t watchdog_token = 0;
  FebBucket feb[kFebBuckets];

  std::atomic<std::uint64_t> threads_created{0};
  std::atomic<std::uint64_t> feb_ops{0};
  std::atomic<std::uint64_t> feb_blocks{0};
  std::uint64_t stack_hits_at_init = 0;
};

Runtime* g_rt = nullptr;

struct Tls {
  int rank = -1;
  Thread* current = nullptr;
  fctx::fcontext_t sched_ctx = nullptr;
  fctx::StackRegion sched_stack;  // ASan bounds of the scheduler's stack
  Thread* main_thread = nullptr;
};

thread_local Tls tls;

/// TLS accessor that defeats address caching across context switches: with
/// work stealing a blocked qthread can be woken onto another shepherd's
/// deque and resume on a different OS thread, so any code that touches
/// `tls` after a suspension point must recompute the thread-local address
/// (see abt::tls_now for the full rationale).
__attribute__((noinline)) Tls& tls_now() {
  asm volatile("");
  return tls;
}

FebBucket& bucket_for(const aligned_t* addr) {
  const auto p = reinterpret_cast<std::uintptr_t>(addr);
  // Mix the address so neighbouring words spread across buckets.
  return g_rt->feb[(p >> 3) * 0x9e3779b97f4a7c15ULL >> 58 & (kFebBuckets - 1)];
}

/// Makes @p th runnable. The main context goes to the core's main slot;
/// a woken unpinned qthread lands on the waker's own deque (cache-warm,
/// stealable), pinned ones return to their home shepherd's fair queue.
/// @p fifo routes through the fair queue instead (yields — a yielding
/// qthread must not immediately preempt deque work). The caller's rank is
/// resolved via tls_now(): wake paths (writeF from qthread_entry) can run
/// after the calling qthread migrated OS threads, and an inlined copy
/// could otherwise reuse a pre-switch TLS address — a stale rank here
/// would owner-push onto another shepherd's single-producer deque.
void push_ready(Thread* th, bool fifo) {
  if (th->kind == Kind::Main) {
    g_rt->core->push_main(th);
  } else {
    g_rt->core->ready(tls_now().rank, th->home_shep, th->pinned, fifo, th);
  }
}

/// Satisfies as many waiters as the word's state allows, FIFO-fair.
/// Must be called with the bucket lock held; readied threads are collected
/// into @p wake and pushed after the lock is dropped.
void drain_waiters(FebEntry& e, aligned_t* addr, std::vector<Thread*>& wake) {
  while (!e.waiters.empty()) {
    Waiter& w = e.waiters.front();
    bool satisfied = false;
    switch (w.op) {
      case FebOp::ReadFF:
        if (e.full) {
          if (w.dst != nullptr) *w.dst = *addr;
          satisfied = true;
        }
        break;
      case FebOp::ReadFE:
        if (e.full) {
          if (w.dst != nullptr) *w.dst = *addr;
          e.full = false;
          satisfied = true;
        }
        break;
      case FebOp::WriteEF:
        if (!e.full) {
          *addr = w.val;
          e.full = true;
          satisfied = true;
        }
        break;
    }
    if (!satisfied) break;  // FIFO fairness: do not overtake a blocked head
    wake.push_back(w.th);
    e.waiters.pop_front();
  }
}

/// Attempts a FEB operation immediately. Returns true when it completed;
/// false when the caller must block. Never blocks itself.
bool feb_try(FebOp op, aligned_t* addr, aligned_t* dst, aligned_t val) {
  FebBucket& b = bucket_for(addr);
  g_rt->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Thread*> wake;
  bool done = false;
  {
    common::SpinGuard g(b.lock);
    auto it = b.words.find(reinterpret_cast<std::uintptr_t>(addr));
    const bool full = it == b.words.end() ? true : it->second.full;
    switch (op) {
      case FebOp::ReadFF:
        if (full) {
          if (dst != nullptr) *dst = *addr;
          done = true;
        }
        break;
      case FebOp::ReadFE:
        if (full) {
          if (dst != nullptr) *dst = *addr;
          auto& e = it == b.words.end()
                        ? b.words[reinterpret_cast<std::uintptr_t>(addr)]
                        : it->second;
          e.full = false;
          // Emptying may unblock a pending writeEF (and transitively more).
          drain_waiters(e, addr, wake);
          done = true;
        }
        break;
      case FebOp::WriteEF:
        if (!full) {
          *addr = val;
          it->second.full = true;
          drain_waiters(it->second, addr, wake);
          done = true;
        }
        break;
    }
  }
  for (Thread* th : wake) push_ready(th, /*fifo=*/false);
  return done;
}

/// Registers @p th as a waiter — used by the scheduler after the thread's
/// context is fully saved. Re-checks the condition under the lock; returns
/// true if the op completed instead (thread must be re-readied).
bool feb_register_or_complete(Thread* th, FebOp op, aligned_t* addr,
                              aligned_t* dst, aligned_t val) {
  FebBucket& b = bucket_for(addr);
  g_rt->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Thread*> wake;
  bool completed = false;
  {
    common::SpinGuard g(b.lock);
    auto& e = b.words[reinterpret_cast<std::uintptr_t>(addr)];
    switch (op) {
      case FebOp::ReadFF:
        if (e.full) {
          if (dst != nullptr) *dst = *addr;
          completed = true;
        }
        break;
      case FebOp::ReadFE:
        if (e.full) {
          if (dst != nullptr) *dst = *addr;
          e.full = false;
          drain_waiters(e, addr, wake);
          completed = true;
        }
        break;
      case FebOp::WriteEF:
        if (!e.full) {
          *addr = val;
          e.full = true;
          drain_waiters(e, addr, wake);
          completed = true;
        }
        break;
    }
    if (!completed) {
      e.waiters.push_back(Waiter{th, op, dst, val});
      g_rt->feb_blocks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (Thread* t : wake) push_ready(t, /*fifo=*/false);
  return completed;
}

void set_feb_state(aligned_t* addr, bool full) {
  FebBucket& b = bucket_for(addr);
  g_rt->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Thread*> wake;
  {
    common::SpinGuard g(b.lock);
    auto& e = b.words[reinterpret_cast<std::uintptr_t>(addr)];
    e.full = full;
    drain_waiters(e, addr, wake);
    if (e.full && e.waiters.empty()) {
      // Full with nobody waiting == default state; reclaim the entry.
      b.words.erase(reinterpret_cast<std::uintptr_t>(addr));
    }
  }
  for (Thread* t : wake) push_ready(t, /*fifo=*/false);
}

void process_directive(fctx::transfer_t t) {
  SwitchMsg msg = *static_cast<SwitchMsg*>(t.data);
  msg.self->ctx = t.from;
  switch (msg.dir) {
    case Dir::Yield:
      push_ready(msg.self, /*fifo=*/true);
      break;
    case Dir::BlockFeb:
      if (feb_register_or_complete(msg.self, msg.op, msg.addr, msg.dst,
                                   msg.val)) {
        push_ready(msg.self, /*fifo=*/false);
      }
      break;
    case Dir::BlockExt:
      // sched::sync park; the cb is the register-or-complete of the
      // generic primitives (enqueue under the primitive's lock with a
      // condition re-check, exactly the BlockFeb shape above).
      if (!msg.cb(msg.cb_arg, msg.self)) {
        push_ready(msg.self, /*fifo=*/false);
      }
      break;
    case Dir::Done: {
      Thread* th = msg.self;
      fctx::StackPool::global().release(th->stack);
      th->stack = fctx::Stack{};
      // Qthreads are auto-freed (joins go through the ret FEB); the record
      // is recycled through the shared freelist instead of the seed's
      // delete — schedulers never migrate, so tls.rank is stable here.
      g_rt->free->recycle(tls.rank, th);
      break;
    }
    case Dir::Resume:
      GLTO_CHECK_MSG(false, "Resume is never sent to a scheduler");
  }
}

void qthread_entry(fctx::transfer_t t);

/// Binds a pooled stack to a qthread that has never run (ctx == nullptr).
/// Runs on the dispatching shepherd, whose cache also receives the stack
/// at Dir::Done, so only started, unfinished qthreads hold a stack.
void bind_stack(Thread* th) {
  th->stack = fctx::StackPool::global().acquire();
  th->stack_region = th->stack.region();
  th->ctx = fctx::make_fcontext(th->stack.top, th->stack.size, qthread_entry);
}

void run_thread(Thread* th) {
  sched::trace_emit(sched::TraceKind::ult_switch,
                    reinterpret_cast<std::uintptr_t>(th));
  if (th->ctx == nullptr) bind_stack(th);
  tls.current = th;
  SwitchMsg resume{Dir::Resume, th, FebOp::ReadFF, nullptr, nullptr, 0};
  fctx::transfer_t t = fctx::jump_fcontext_to(th->ctx, &resume,
                                              th->stack_region);
  tls.current = nullptr;
  process_directive(t);
}

/// Scheduler loop over the shared core: drains this shepherd's pool,
/// steals when idle, parks when there is nothing to steal. Shepherd 0
/// additionally serves the main slot.
void sched_loop() {
  const bool primary = tls.rank == 0;
  sched::AcquireState st(0x517cc1b727220a95ULL +
                         static_cast<std::uint64_t>(tls.rank));
  for (;;) {
    Thread* th = g_rt->core->acquire(tls.rank, st, primary);
    if (th == nullptr) break;
    run_thread(th);
  }
}

void worker_main(int rank) {
  tls.rank = rank;
  tls.sched_stack = fctx::os_thread_stack();  // sched_loop runs right here
  if (g_rt->cfg.bind_threads) common::bind_self_to_core(rank);
  sched::trace_thread_label("qth", rank);
  sched_loop();
}

void primary_sched_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  process_directive(t);
  sched_loop();
  GLTO_CHECK_MSG(false, "primary scheduler exited while runtime is alive");
}

/// Suspends the calling qthread with the given directive; returns when
/// resumed. noinline: callers loop around this, and an inlined copy would
/// let the compiler reuse a pre-switch TLS address after the qthread
/// migrated to another OS thread (a steal while FEB-blocked).
__attribute__((noinline)) void suspend(SwitchMsg msg) {
  Thread* self = tls.current;
  GLTO_CHECK_MSG(self != nullptr, "qth: blocking op on a foreign thread");
  if (tls.sched_ctx == nullptr) {
    GLTO_CHECK(self->kind == Kind::Main);
    fctx::Stack s = fctx::StackPool::global().acquire();
    g_rt->primary_sched_stack = s;
    tls.sched_ctx = fctx::make_fcontext(s.top, s.size, primary_sched_entry);
    tls.sched_stack = s.region();
  }
  msg.self = self;
  fctx::transfer_t t =
      fctx::jump_fcontext_to(tls.sched_ctx, &msg, tls.sched_stack);
  // Resumed — possibly on a *different OS thread*: the thread-local block
  // must be re-resolved, never reused.
  Tls& now = tls_now();
  now.sched_ctx = t.from;
  now.current = self;
}

void qthread_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  SwitchMsg in = *static_cast<SwitchMsg*>(t.data);
  Thread* self = in.self;
  tls.sched_ctx = t.from;
  tls.current = self;
  const aligned_t result = self->fn(self->arg);
  if (self->ret != nullptr) writeF(self->ret, result);
  // fn (or writeF's FEB op) may have suspended and resumed on a different
  // OS thread: resolve the CURRENT thread's scheduler context.
  SwitchMsg done{Dir::Done, self, FebOp::ReadFF, nullptr, nullptr, 0};
  Tls& now = tls_now();
  fctx::jump_fcontext_to(now.sched_ctx, &done, now.sched_stack,
                         /*abandon=*/true);
  GLTO_CHECK_MSG(false, "resumed a finished qthread");
}

void dump_core_state(void* arg) {
  static_cast<sched::WsCore<Thread*>*>(arg)->dump_state("qth");
}

// ------------------------------------------------- sched::SuspendOps bridge

bool ops_can_suspend() { return g_rt != nullptr && tls.current != nullptr; }

void ops_suspend(sched::SuspendCb cb, void* arg) {
  SwitchMsg msg{Dir::BlockExt, nullptr, FebOp::ReadFF, nullptr, nullptr, 0,
                cb, arg};
  suspend(msg);
}

void ops_resume(void* handle) {
  push_ready(static_cast<Thread*>(handle), /*fifo=*/false);
}

void ops_yield() { yield(); }
bool ops_maybe_work() { return maybe_work(); }

constexpr sched::SuspendOps kSuspendOps{ops_can_suspend, ops_suspend,
                                        ops_resume, ops_yield,
                                        ops_maybe_work};

}  // namespace

void init(const Config& cfg_in) {
  GLTO_CHECK_MSG(g_rt == nullptr, "qth::init called twice");
  // Arm observability even for raw-backend users (no glt:: facade):
  // both resolvers are idempotent, so the facade path pays nothing.
  sched::trace_init_from_env();
  sched::metrics_init_from_env();
  g_rt = new Runtime();
  g_rt->cfg = cfg_in;
  g_rt->cfg.num_shepherds =
      common::env_worker_count("QTH_NUM_SHEPHERDS", cfg_in.num_shepherds);
  g_rt->n = g_rt->cfg.num_shepherds;
  sched::WsCoreConfig core_cfg;
  core_cfg.num_workers = g_rt->n;
  core_cfg.shared_pool = g_rt->cfg.shared_pool;
  g_rt->core = std::make_unique<sched::WsCore<Thread*>>(core_cfg);
  g_rt->free = std::make_unique<sched::Freelist<Thread>>(g_rt->n);
  g_rt->watchdog_token =
      sched::watchdog_register_dumper(dump_core_state, g_rt->core.get());
  g_rt->stack_hits_at_init = fctx::StackPool::global().cache_hits();
  tls.rank = 0;
  tls.sched_ctx = nullptr;
  auto* main_th = new Thread();
  main_th->kind = Kind::Main;
  main_th->stack_region = fctx::os_thread_stack();
  main_th->home_shep = 0;
  main_th->pinned = true;
  tls.main_thread = main_th;
  tls.current = main_th;
  if (g_rt->cfg.bind_threads) common::bind_self_to_core(0);
  sched::register_suspend_ops(&kSuspendOps);
  for (int r = 1; r < g_rt->n; ++r) {
    g_rt->workers.emplace_back(worker_main, r);
  }
}

void finalize() {
  GLTO_CHECK_MSG(g_rt != nullptr, "qth::finalize without init");
  GLTO_CHECK_MSG(tls.current == tls.main_thread,
                 "finalize must run on the main context");
  sched::unregister_suspend_ops(&kSuspendOps);
  sched::watchdog_unregister_dumper(g_rt->watchdog_token);
  g_rt->core->request_shutdown();
  for (auto& w : g_rt->workers) w.join();
  fctx::StackPool::global().release(g_rt->primary_sched_stack);
  delete tls.main_thread;
  tls = Tls{};
  delete g_rt;  // Freelist dtor frees all recycled Thread records
  g_rt = nullptr;
}

bool initialized() { return g_rt != nullptr; }

int num_shepherds() { return g_rt ? g_rt->n : 0; }

int shep_rank() { return tls.rank; }

bool in_qthread() { return tls.current != nullptr; }

bool maybe_work() {
  if (g_rt == nullptr || tls.rank < 0) return false;
  return g_rt->core->maybe_work(tls.rank, tls.rank == 0);
}

namespace {

/// A recycled (or fresh) record, reset and unbound: no stack until a
/// shepherd first runs it.
Thread* new_thread(int shep, bool pinned, QthFn fn, void* arg,
                   aligned_t* ret) {
  Thread* th = g_rt->free->try_alloc(tls.rank);
  if (th == nullptr) th = new Thread();
  th->fn = fn;
  th->arg = arg;
  th->ret = ret;
  th->ctx = nullptr;
  th->stack = fctx::Stack{};
  th->stack_region = fctx::StackRegion{};
  th->home_shep = shep;
  th->kind = Kind::Qthread;
  th->pinned = pinned;
  th->user_local = nullptr;
  return th;
}

void fork_impl(int shep, bool pinned, QthFn fn, void* arg, aligned_t* ret) {
  GLTO_CHECK_MSG(g_rt != nullptr, "qth::init has not been called");
  GLTO_CHECK(shep >= 0 && shep < g_rt->n);
  if (ret != nullptr) feb_empty(ret);
  Thread* th = new_thread(shep, pinned, fn, arg, ret);
  g_rt->threads_created.fetch_add(1, std::memory_order_relaxed);
  g_rt->core->submit(tls.rank, shep, pinned, th);
}

}  // namespace

void fork_to(int shep, QthFn fn, void* arg, aligned_t* ret) {
  fork_impl(shep, /*pinned=*/true, fn, arg, ret);
}

void fork_bulk(QthFn fn, void* const* args, aligned_t* const* rets, int n,
               bool spread) {
  GLTO_CHECK_MSG(g_rt != nullptr, "qth::init has not been called");
  if (n <= 0) return;
  // Batch sized for the stack: deposits beyond it publish in waves, each
  // with its own per-victim wakes — still one wake per victim per wave.
  constexpr int kWave = 256;
  Thread* wave[kWave];
  int done = 0;
  while (done < n) {
    const int take = std::min(kWave, n - done);
    for (int i = 0; i < take; ++i) {
      aligned_t* ret = rets != nullptr ? rets[done + i] : nullptr;
      if (ret != nullptr) feb_empty(ret);
      wave[i] = new_thread(tls.rank >= 0 ? tls.rank : 0, /*pinned=*/false,
                           fn, args[done + i], ret);
    }
    g_rt->threads_created.fetch_add(static_cast<std::uint64_t>(take),
                                    std::memory_order_relaxed);
    g_rt->core->submit_bulk(
        tls.rank, wave, static_cast<std::size_t>(take),
        spread ? sched::BulkHint::spread : sched::BulkHint::local);
    done += take;
  }
}

void fork(QthFn fn, void* arg, aligned_t* ret) {
  GLTO_CHECK_MSG(g_rt != nullptr, "qth::init has not been called");
  // A fork from a shepherd is run-local — it lands on the caller's deque
  // where idle shepherds steal it. Foreign threads have no deque, so
  // their forks scatter round-robin.
  if (tls.rank >= 0) {
    fork_impl(tls.rank, /*pinned=*/false, fn, arg, ret);
    return;
  }
  const auto next = g_rt->rr_next.fetch_add(1, std::memory_order_relaxed);
  fork_impl(static_cast<int>(next % static_cast<std::uint64_t>(g_rt->n)),
            /*pinned=*/false, fn, arg, ret);
}

void yield() {
  if (tls.current == nullptr) return;
  SwitchMsg msg{Dir::Yield, nullptr, FebOp::ReadFF, nullptr, nullptr, 0};
  suspend(msg);
}

void feb_empty(aligned_t* addr) { set_feb_state(addr, false); }

void feb_fill(aligned_t* addr) { set_feb_state(addr, true); }

bool feb_is_full(aligned_t* addr) {
  FebBucket& b = bucket_for(addr);
  g_rt->feb_ops.fetch_add(1, std::memory_order_relaxed);
  common::SpinGuard g(b.lock);
  auto it = b.words.find(reinterpret_cast<std::uintptr_t>(addr));
  return it == b.words.end() ? true : it->second.full;
}

namespace {

void feb_op_blocking(FebOp op, aligned_t* addr, aligned_t* dst, aligned_t val) {
  if (feb_try(op, addr, dst, val)) return;
  if (tls.current == nullptr) {
    // Foreign OS thread: spin politely until the fast path succeeds.
    common::spin_until([&] { return feb_try(op, addr, dst, val); });
    return;
  }
  SwitchMsg msg{Dir::BlockFeb, nullptr, op, addr, dst, val};
  suspend(msg);
  // The scheduler performed (or registered) the op; when we resume it has
  // been satisfied by drain_waiters — nothing left to do.
}

}  // namespace

void readFF(aligned_t* dst, aligned_t* src) {
  feb_op_blocking(FebOp::ReadFF, src, dst, 0);
}

void readFE(aligned_t* dst, aligned_t* src) {
  feb_op_blocking(FebOp::ReadFE, src, dst, 0);
}

void writeEF(aligned_t* dst, aligned_t val) {
  feb_op_blocking(FebOp::WriteEF, dst, nullptr, val);
}

void writeF(aligned_t* dst, aligned_t val) {
  FebBucket& b = bucket_for(dst);
  g_rt->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Thread*> wake;
  {
    common::SpinGuard g(b.lock);
    auto& e = b.words[reinterpret_cast<std::uintptr_t>(dst)];
    *dst = val;
    e.full = true;
    drain_waiters(e, dst, wake);
    if (e.waiters.empty()) {
      b.words.erase(reinterpret_cast<std::uintptr_t>(dst));
    }
  }
  for (Thread* t : wake) push_ready(t, /*fifo=*/false);
}

namespace {
thread_local void* g_foreign_local = nullptr;
}

void* self_local() {
  return tls.current != nullptr ? tls.current->user_local : g_foreign_local;
}

void set_self_local(void* p) {
  if (tls.current != nullptr) {
    tls.current->user_local = p;
  } else {
    g_foreign_local = p;
  }
}

Stats stats() {
  Stats s;
  if (g_rt != nullptr) {
    s.threads_created = g_rt->threads_created.load(std::memory_order_relaxed);
    s.feb_ops = g_rt->feb_ops.load(std::memory_order_relaxed);
    s.feb_blocks = g_rt->feb_blocks.load(std::memory_order_relaxed);
    s.assign_core(g_rt->core->stats());
    s.stack_cache_hits =
        fctx::StackPool::global().cache_hits() - g_rt->stack_hits_at_init;
  }
  return s;
}

struct Sinc {
  std::atomic<std::uint64_t> remaining{0};
  aligned_t done_word = 0;  // FEB-empty until the last submission
};

Sinc* sinc_create(std::uint64_t expect) {
  auto* s = new Sinc();
  s->remaining.store(expect, std::memory_order_relaxed);
  if (expect > 0) {
    feb_empty(&s->done_word);
  } else {
    s->done_word = 1;  // trivially complete (word full by default)
  }
  return s;
}

void sinc_submit(Sinc* s) {
  GLTO_CHECK_MSG(s->remaining.load(std::memory_order_relaxed) > 0,
                 "sinc_submit beyond the expected count");
  if (s->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    writeF(&s->done_word, 1);  // last submitter signals through the FEB
  }
}

void sinc_wait(Sinc* s) {
  aligned_t sink = 0;
  readFF(&sink, &s->done_word);
}

void sinc_destroy(Sinc* s) { delete s; }

}  // namespace glto::qth
