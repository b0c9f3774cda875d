#include "abt/abt.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"
#include "sched/freelist.hpp"
#include "sched/sync.hpp"
#include "sched/watchdog.hpp"
#include "sched/ws_core.hpp"

namespace glto::abt {

namespace {

enum class State : std::uint8_t { Ready, Running, Blocked, Done };
enum class Kind : std::uint8_t { Ult, Tasklet, Main };
enum class Dir : std::uint8_t { Resume, Yield, Block, BlockExt, Done };

WorkUnit* const kJoinerSentinel = reinterpret_cast<WorkUnit*>(std::uintptr_t(1));

}  // namespace

struct WorkUnit {
  WorkFn fn = nullptr;
  void* arg = nullptr;
  /// nullptr until the unit first runs: a queued ULT holds no stack.
  fctx::fcontext_t ctx = nullptr;
  fctx::Stack stack;  ///< bound by run_unit, released at Dir::Done
  /// ASan bounds of the stack this unit runs on: its pooled stack for
  /// ULTs, the process native stack for Kind::Main.
  fctx::StackRegion stack_region;
  std::atomic<State> state{State::Ready};
  std::atomic<WorkUnit*> joiner{nullptr};
  std::atomic<int> last_rank{-1};
  int home_rank = 0;
  Kind kind = Kind::Ult;
  bool pinned = false;  ///< created with *_create_on: never stolen
  void* user_local = nullptr;  ///< see abt::self_local()
};

namespace {

/// Message passed through a context switch from a suspending work unit to
/// the scheduler that receives control.
struct SwitchMsg {
  Dir dir;
  WorkUnit* self;
  WorkUnit* target;  // join target for Dir::Block
  // Dir::BlockExt payload (sched::sync primitives): the scheduler runs cb
  // after this context is saved; cb false means the wait condition was
  // already satisfied and the unit must be re-readied.
  sched::SuspendCb cb = nullptr;
  void* cb_arg = nullptr;
};

struct Runtime {
  Config cfg;
  int n = 0;
  /// The shared scheduling core (PR-1 fast path, hoisted to src/sched so
  /// qth/mth dispatch through the identical engine). The primary (main)
  /// ULT travels through the core's main slot: only xstream 0 ever
  /// schedules it, even under a shared pool or stealing — otherwise a
  /// worker could resume main, and finalize would tear the primary
  /// scheduler down from a foreign thread while the real main thread
  /// still runs on its stack (the same pin-the-main issue the paper hits
  /// with MassiveThreads, §IV-G).
  std::unique_ptr<sched::WsCore<WorkUnit*>> core;
  std::unique_ptr<sched::Freelist<WorkUnit>> free;
  std::vector<std::thread> workers;
  fctx::Stack primary_sched_stack;
  std::uint64_t watchdog_token = 0;

  std::atomic<std::uint64_t> ults_created{0};
  std::atomic<std::uint64_t> tasklets_created{0};
  std::atomic<std::uint64_t> yields{0};
  std::uint64_t stack_hits_at_init = 0;
};

Runtime* g_rt = nullptr;

struct Tls {
  int rank = -1;
  WorkUnit* current = nullptr;        // unit whose stack we are running on
  fctx::fcontext_t sched_ctx = nullptr;  // way back to this xstream's scheduler
  fctx::StackRegion sched_stack;      // ASan bounds of the scheduler's stack
  WorkUnit* main_unit = nullptr;      // primary thread only
};

thread_local Tls tls;

/// TLS accessor that defeats address caching across context switches: a
/// ULT can resume on a different OS thread (shared pools, stealing), so
/// any code that touches `tls` after a suspension point must recompute the
/// thread-local address. The noinline + asm barrier forces GCC to
/// re-evaluate %fs-relative addressing at the call site's *current*
/// thread instead of reusing a pre-switch computation.
__attribute__((noinline)) Tls& tls_now() {
  asm volatile("");
  return tls;
}

// ------------------------------------------------------------------ alloc

void reset_unit(WorkUnit* wu, Kind kind, int rank, bool pinned, WorkFn fn,
                void* arg) {
  wu->fn = fn;
  wu->arg = arg;
  wu->ctx = nullptr;
  wu->stack = fctx::Stack{};
  wu->stack_region = fctx::StackRegion{};
  wu->state.store(State::Ready, std::memory_order_relaxed);
  wu->joiner.store(nullptr, std::memory_order_relaxed);
  wu->last_rank.store(-1, std::memory_order_relaxed);
  wu->home_rank = rank;
  wu->kind = kind;
  wu->pinned = pinned;
  wu->user_local = nullptr;
}

/// Recycles a joined record through the shared freelist. Resolves TLS via
/// tls_now(): the caller (join) reaches here after a suspension point,
/// so the ULT may have resumed on a different OS thread and a cached
/// %fs-relative address would index another xstream's owner-only list.
void recycle_unit(WorkUnit* wu) {
  if (g_rt == nullptr) {  // joined after finalize: nothing to recycle into
    delete wu;
    return;
  }
  g_rt->free->recycle(tls_now().rank, wu);
}

// --------------------------------------------------------------- dispatch

/// Re-readies a suspended unit through the core's routing policy; the
/// primary ULT goes to the main slot.
void push_ready(WorkUnit* wu, bool fifo) {
  wu->state.store(State::Ready, std::memory_order_relaxed);
  if (wu->kind == Kind::Main) {
    g_rt->core->push_main(wu);
  } else {
    g_rt->core->ready(tls.rank, wu->home_rank, wu->pinned, fifo, wu);
  }
}

void complete(WorkUnit* wu) {
  // Claim the joiner slot BEFORE publishing Done: the moment Done is
  // visible, a polling joiner may return from join() and recycle wu, so
  // the Done store must be this function's last access to *wu.
  WorkUnit* j =
      wu->joiner.exchange(kJoinerSentinel, std::memory_order_acq_rel);
  wu->state.store(State::Done, std::memory_order_release);
  if (j != nullptr) push_ready(j, /*fifo=*/false);
}

/// Handles the message a suspending work unit sent when control came back
/// to a scheduler. Shared by worker loops and the primary scheduler entry.
void process_directive(fctx::transfer_t t) {
  SwitchMsg msg = *static_cast<SwitchMsg*>(t.data);  // copy before any free
  msg.self->ctx = t.from;
  switch (msg.dir) {
    case Dir::Yield:
      push_ready(msg.self, /*fifo=*/true);
      break;
    case Dir::Block: {
      WorkUnit* target = msg.target;
      msg.self->state.store(State::Blocked, std::memory_order_relaxed);
      WorkUnit* expected = nullptr;
      const bool registered =
          target->state.load(std::memory_order_acquire) != State::Done &&
          target->joiner.compare_exchange_strong(expected, msg.self,
                                                 std::memory_order_acq_rel);
      if (!registered) {
        push_ready(msg.self, /*fifo=*/false);  // target already finished
      }
      break;
    }
    case Dir::BlockExt: {
      // Park on a sched::sync primitive. The enqueue callback re-checks
      // the wait condition under the primitive's lock (same shape as the
      // FEB register-or-complete path): false ⇒ no park, re-ready now.
      msg.self->state.store(State::Blocked, std::memory_order_relaxed);
      if (!msg.cb(msg.cb_arg, msg.self)) {
        push_ready(msg.self, /*fifo=*/false);
      }
      break;
    }
    case Dir::Done: {
      WorkUnit* wu = msg.self;
      fctx::StackPool::global().release(wu->stack);
      wu->stack = fctx::Stack{};
      complete(wu);
      break;
    }
    case Dir::Resume:
      GLTO_CHECK_MSG(false, "Resume is never sent to a scheduler");
  }
}

void ult_entry(fctx::transfer_t t);

/// Binds a pooled stack to a ULT that has never run (ctx == nullptr). Runs
/// on the dispatching xstream, so the stack comes from that xstream's own
/// cache — the one process_directive releases into at Dir::Done — and only
/// started, unfinished ULTs hold a stack; queued ones hold none.
void bind_stack(WorkUnit* wu) {
  wu->stack = fctx::StackPool::global().acquire();
  wu->stack_region = wu->stack.region();
  wu->ctx = fctx::make_fcontext(wu->stack.top, wu->stack.size, ult_entry);
}

void run_unit(WorkUnit* wu) {
  wu->last_rank.store(tls.rank, std::memory_order_relaxed);
  sched::trace_emit(sched::TraceKind::ult_switch,
                    reinterpret_cast<std::uintptr_t>(wu),
                    wu->kind == Kind::Tasklet ? 1u : 0u);
  if (wu->kind == Kind::Tasklet) {
    // Tasklets run on the scheduler's own stack. tls.current must point
    // at the tasklet for the duration: on the primary xstream it still
    // holds the *suspended main ULT*, and a tasklet that touched yield()
    // or self_local() would otherwise act on main's identity — yield
    // would "suspend" main from inside the scheduler context and jump
    // through a dead fcontext. (Latent in the seed; first exposed by
    // examples/glt_hello's yielding tasklets.)
    WorkUnit* prev = tls.current;
    tls.current = wu;
    wu->state.store(State::Running, std::memory_order_relaxed);
    wu->fn(wu->arg);
    tls.current = prev;
    complete(wu);
    return;
  }
  if (wu->ctx == nullptr) bind_stack(wu);
  wu->state.store(State::Running, std::memory_order_relaxed);
  tls.current = wu;
  SwitchMsg resume{Dir::Resume, wu, nullptr};
  fctx::transfer_t t = fctx::jump_fcontext_to(wu->ctx, &resume,
                                              wu->stack_region);
  tls.current = nullptr;
  process_directive(t);
}

/// Scheduler loop: the shared core drains this xstream's pool, steals
/// when idle, and parks briefly when there is nothing to steal. Workers
/// exit on shutdown; the primary scheduler context never observes
/// shutdown while running (finalize executes on the primary ULT).
void sched_loop() {
  const bool primary = tls.rank == 0;
  sched::AcquireState st(0x9e3779b97f4a7c15ULL +
                         static_cast<std::uint64_t>(tls.rank));
  for (;;) {
    WorkUnit* wu = g_rt->core->acquire(tls.rank, st, primary);
    if (wu == nullptr) break;
    run_unit(wu);
  }
}

void worker_main(int rank) {
  tls.rank = rank;
  tls.sched_stack = fctx::os_thread_stack();  // sched_loop runs right here
  if (g_rt->cfg.bind_threads) common::bind_self_to_core(rank);
  sched::trace_thread_label("abt", rank);
  sched_loop();
}

/// Entry for the primary xstream's scheduler context (created lazily the
/// first time the primary ULT suspends).
void primary_sched_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  process_directive(t);
  sched_loop();
  GLTO_CHECK_MSG(false, "primary scheduler exited while runtime is alive");
}

/// Suspends the calling ULT with the given directive; returns when
/// resumed. noinline: callers loop around this (join), and an inlined
/// copy would let the compiler reuse a pre-switch TLS address after the
/// ULT migrated to another OS thread.
__attribute__((noinline)) void suspend(Dir dir, WorkUnit* target,
                                       sched::SuspendCb cb = nullptr,
                                       void* cb_arg = nullptr) {
  WorkUnit* self = tls.current;
  GLTO_CHECK_MSG(self != nullptr, "suspend outside a ULT");
  GLTO_CHECK_MSG(self->kind != Kind::Tasklet,
                 "tasklets are stackless and cannot suspend (no yield-wait "
                 "or blocking join inside a tasklet)");
  if (tls.sched_ctx == nullptr) {
    // First suspension of the primary ULT: build the primary scheduler.
    GLTO_CHECK(self->kind == Kind::Main);
    fctx::Stack s = fctx::StackPool::global().acquire();
    g_rt->primary_sched_stack = s;
    tls.sched_ctx = fctx::make_fcontext(s.top, s.size, primary_sched_entry);
    tls.sched_stack = s.region();
  }
  SwitchMsg msg{dir, self, target, cb, cb_arg};
  fctx::transfer_t t =
      fctx::jump_fcontext_to(tls.sched_ctx, &msg, tls.sched_stack);
  // Resumed — possibly on a *different OS thread* (shared pools or a
  // steal): the thread-local block must be re-resolved, never reused.
  Tls& now = tls_now();
  now.sched_ctx = t.from;
  now.current = self;
}

/// Entry trampoline for freshly created ULTs.
void ult_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  SwitchMsg in = *static_cast<SwitchMsg*>(t.data);
  WorkUnit* self = in.self;
  tls.sched_ctx = t.from;
  tls.current = self;
  self->fn(self->arg);
  // fn may have suspended and resumed on a different OS thread: resolve
  // the CURRENT thread's scheduler context, not the entry-time one.
  SwitchMsg done{Dir::Done, self, nullptr};
  Tls& now = tls_now();
  fctx::jump_fcontext_to(now.sched_ctx, &done, now.sched_stack,
                         /*abandon=*/true);
  GLTO_CHECK_MSG(false, "resumed a finished ULT");
}

WorkUnit* create_unit(Kind kind, int rank, bool pinned, WorkFn fn,
                      void* arg) {
  GLTO_CHECK_MSG(g_rt != nullptr, "abt::init has not been called");
  GLTO_CHECK(rank >= 0 && rank < g_rt->n);
  WorkUnit* wu = g_rt->free->try_alloc(tls.rank);
  if (wu == nullptr) wu = new WorkUnit();
  reset_unit(wu, kind, rank, pinned, fn, arg);
  if (kind == Kind::Ult) {
    g_rt->ults_created.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_rt->tasklets_created.fetch_add(1, std::memory_order_relaxed);
  }
  g_rt->core->submit(tls.rank, rank, pinned, wu);
  return wu;
}

int default_rank() { return tls.rank >= 0 ? tls.rank : 0; }

void dump_core_state(void* arg) {
  static_cast<sched::WsCore<WorkUnit*>*>(arg)->dump_state("abt");
}

// ------------------------------------------------- sched::SuspendOps bridge

bool ops_can_suspend() {
  return g_rt != nullptr && tls.current != nullptr &&
         tls.current->kind != Kind::Tasklet;
}

void ops_suspend(sched::SuspendCb cb, void* arg) {
  suspend(Dir::BlockExt, nullptr, cb, arg);
}

/// Re-deposits a unit a sync-primitive signaller owns. May run on a
/// foreign OS thread (rank -1) — the core routes that through the home
/// rank's fair queue; tls_now() because wakers can sit after a
/// suspension point themselves.
void ops_resume(void* handle) {
  auto* wu = static_cast<WorkUnit*>(handle);
  wu->state.store(State::Ready, std::memory_order_relaxed);
  if (wu->kind == Kind::Main) {
    g_rt->core->push_main(wu);
  } else {
    g_rt->core->ready(tls_now().rank, wu->home_rank, wu->pinned,
                      /*fifo=*/false, wu);
  }
}

void ops_yield() { yield(); }
bool ops_maybe_work() { return maybe_work(); }

constexpr sched::SuspendOps kSuspendOps{ops_can_suspend, ops_suspend,
                                        ops_resume, ops_yield,
                                        ops_maybe_work};

}  // namespace

void init(const Config& cfg_in) {
  GLTO_CHECK_MSG(g_rt == nullptr, "abt::init called twice");
  // Arm observability even for raw-backend users (no glt:: facade):
  // both resolvers are idempotent, so the facade path pays nothing.
  sched::trace_init_from_env();
  sched::metrics_init_from_env();
  g_rt = new Runtime();
  g_rt->cfg = cfg_in;
  g_rt->cfg.num_xstreams =
      common::env_worker_count("ABT_NUM_XSTREAMS", cfg_in.num_xstreams);
  g_rt->n = g_rt->cfg.num_xstreams;
  sched::WsCoreConfig core_cfg;
  core_cfg.num_workers = g_rt->n;
  core_cfg.shared_pool = g_rt->cfg.shared_pool;
  g_rt->core = std::make_unique<sched::WsCore<WorkUnit*>>(core_cfg);
  g_rt->free = std::make_unique<sched::Freelist<WorkUnit>>(g_rt->n);
  g_rt->watchdog_token =
      sched::watchdog_register_dumper(dump_core_state, g_rt->core.get());
  g_rt->stack_hits_at_init = fctx::StackPool::global().cache_hits();
  // The caller becomes the primary ULT on xstream 0.
  tls.rank = 0;
  tls.sched_ctx = nullptr;
  auto* main_unit = new WorkUnit();
  main_unit->kind = Kind::Main;
  main_unit->stack_region = fctx::os_thread_stack();
  main_unit->home_rank = 0;
  main_unit->pinned = true;
  main_unit->state.store(State::Running, std::memory_order_relaxed);
  tls.main_unit = main_unit;
  tls.current = main_unit;
  if (g_rt->cfg.bind_threads) common::bind_self_to_core(0);
  sched::register_suspend_ops(&kSuspendOps);
  for (int r = 1; r < g_rt->n; ++r) {
    g_rt->workers.emplace_back(worker_main, r);
  }
}

void finalize() {
  GLTO_CHECK_MSG(g_rt != nullptr, "abt::finalize without init");
  GLTO_CHECK_MSG(tls.main_unit != nullptr && tls.current == tls.main_unit,
                 "finalize must run on the primary ULT");
  sched::unregister_suspend_ops(&kSuspendOps);
  sched::watchdog_unregister_dumper(g_rt->watchdog_token);
  g_rt->core->request_shutdown();
  for (auto& w : g_rt->workers) w.join();
  fctx::StackPool::global().release(g_rt->primary_sched_stack);
  delete tls.main_unit;
  tls = Tls{};
  delete g_rt;  // Freelist dtor frees all recycled WorkUnits
  g_rt = nullptr;
}

bool initialized() { return g_rt != nullptr; }

int num_xstreams() { return g_rt ? g_rt->n : 0; }

int self_rank() { return tls.rank; }

bool in_ult() {
  return tls.current != nullptr && tls.current->kind != Kind::Tasklet;
}

bool maybe_work() {
  if (g_rt == nullptr || tls.rank < 0) return false;
  return g_rt->core->maybe_work(tls.rank, tls.rank == 0);
}

WorkUnit* ult_create(WorkFn fn, void* arg) {
  return create_unit(Kind::Ult, default_rank(), /*pinned=*/false, fn, arg);
}

WorkUnit* ult_create_on(int rank, WorkFn fn, void* arg) {
  return create_unit(Kind::Ult, rank, /*pinned=*/true, fn, arg);
}

void ult_create_bulk(WorkFn fn, void* const* args, int n, WorkUnit** out,
                     bool spread) {
  GLTO_CHECK_MSG(g_rt != nullptr, "abt::init has not been called");
  if (n <= 0) return;
  const int home = default_rank();
  for (int i = 0; i < n; ++i) {
    WorkUnit* wu = g_rt->free->try_alloc(tls.rank);
    if (wu == nullptr) wu = new WorkUnit();
    reset_unit(wu, Kind::Ult, home, /*pinned=*/false, fn, args[i]);
    out[i] = wu;
  }
  g_rt->ults_created.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
  g_rt->core->submit_bulk(
      tls.rank, out, static_cast<std::size_t>(n),
      spread ? sched::BulkHint::spread : sched::BulkHint::local);
}

WorkUnit* tasklet_create(WorkFn fn, void* arg) {
  return create_unit(Kind::Tasklet, default_rank(), /*pinned=*/false, fn,
                     arg);
}

WorkUnit* tasklet_create_on(int rank, WorkFn fn, void* arg) {
  return create_unit(Kind::Tasklet, rank, /*pinned=*/true, fn, arg);
}

void join(WorkUnit* wu) {
  GLTO_CHECK(wu != nullptr);
  if (tls.current == nullptr) {
    // Foreign thread (not an xstream): passive wait.
    common::spin_until([&] {
      return wu->state.load(std::memory_order_acquire) == State::Done;
    });
  } else {
    while (wu->state.load(std::memory_order_acquire) != State::Done) {
      suspend(Dir::Block, wu);
    }
  }
  recycle_unit(wu);
}

void yield() {
  if (tls.current == nullptr || tls.current->kind == Kind::Tasklet) {
    return;  // no-op outside ULTs; tasklets run to completion (§III-B)
  }
  g_rt->yields.fetch_add(1, std::memory_order_relaxed);
  suspend(Dir::Yield, nullptr);
}

bool is_done(const WorkUnit* wu) {
  return wu->state.load(std::memory_order_acquire) == State::Done;
}

int executed_on(const WorkUnit* wu) {
  return wu->last_rank.load(std::memory_order_relaxed);
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
    s.ults_created = g_rt->ults_created.load(std::memory_order_relaxed);
    s.tasklets_created = g_rt->tasklets_created.load(std::memory_order_relaxed);
    s.yields = g_rt->yields.load(std::memory_order_relaxed);
    s.assign_core(g_rt->core->stats());
    s.stack_cache_hits =
        fctx::StackPool::global().cache_hits() - g_rt->stack_hits_at_init;
  }
  return s;
}

}  // namespace glto::abt
