#include "mth/mth.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/cacheline.hpp"
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

namespace glto::mth {

namespace {

enum class Kind : std::uint8_t { Ult, Main };
enum class Dir : std::uint8_t {
  Resume,   // base loop resumed a strand; carries the base context
  Spawn,    // parent jumped into a fresh child; child publishes parent
  Yield,    // strand wants back in the run queue
  Block,    // strand waits on a join target
  BlockExt, // strand parks on a sched::sync primitive (cb decides)
  Migrate,  // strand asks to be requeued on worker 0's pinned slot
  Done,     // strand finished; clean it up
};

Strand* const kJoinerSentinel = reinterpret_cast<Strand*>(std::uintptr_t(1));

}  // namespace

struct Strand {
  WorkFn fn = nullptr;
  void* arg = nullptr;
  /// nullptr until the strand first runs: a queued strand holds no stack.
  fctx::fcontext_t ctx = nullptr;
  fctx::Stack stack;  ///< bound at first dispatch, released at Dir::Done
  /// ASan bounds of the stack this strand runs on: its pooled stack for
  /// ULTs, the process native stack for Kind::Main.
  fctx::StackRegion stack_region;
  std::atomic<bool> done{false};
  std::atomic<Strand*> joiner{nullptr};
  std::atomic<int> last_rank{-1};
  Kind kind = Kind::Ult;
  void* user_local = nullptr;  ///< see mth::self_local()
};

namespace {

struct SwitchMsg {
  Dir dir;
  Strand* self;    // the strand that produced the message
  Strand* target;  // Spawn: the child; Block: the join target
  /// The strand this jump resumes (set by every jump site that targets a
  /// strand). Only strand_entry reads it: a bulk-created (queued) strand
  /// is first activated from a scheduler loop or another strand's leave(),
  /// where the message describes the *sender* — the entry recovers its own
  /// identity from here instead of a Spawn payload.
  Strand* resumee = nullptr;
  // Dir::BlockExt payload: cb runs after the sender's context is saved;
  // false means the wait condition was already satisfied — re-ready now.
  sched::SuspendCb cb = nullptr;
  void* cb_arg = nullptr;
};

/// Per-worker base-context bookkeeping. The ready queues, freelists, and
/// steal machinery live in the shared sched::WsCore — this is only the
/// fcontext state a work-first scheduler needs on top of it.
struct alignas(common::kCacheLine) Worker {
  fctx::fcontext_t base_ctx = nullptr;  // valid while a strand chain runs
  fctx::Stack base_stack;               // only worker 0 (lazily created)
  fctx::StackRegion base_region;        // ASan bounds of the base stack
};

struct Runtime {
  Config cfg;
  int n = 0;
  std::vector<Worker> workers;
  /// Shared scheduling core. Everything mth schedules is stealable (its
  /// defining trait), so strands go through push_owner; the core's main
  /// slot replaces the old `pinned0` queue for pin_main / Migrate — only
  /// worker 0 pops it.
  std::unique_ptr<sched::WsCore<Strand*>> core;
  std::unique_ptr<sched::Freelist<Strand>> free;
  std::vector<std::thread> threads;

  std::atomic<std::uint64_t> strands_created{0};
  std::atomic<std::uint64_t> main_migrations{0};
  std::uint64_t stack_hits_at_init = 0;
  std::uint64_t watchdog_token = 0;
};

Runtime* g_rt = nullptr;

struct Tls {
  int rank = -1;
  Strand* current = nullptr;
  unsigned tick = 0;  // fair-queue cadence for core pops outside base_loop
  common::FastRng rng{0};
};

thread_local Tls tls;

/// TLS accessor that defeats address caching across context switches:
/// strands migrate between OS threads (work stealing), so code running
/// after a suspension point must re-resolve the thread-local block. See
/// abt::tls_now for the full rationale.
__attribute__((noinline)) Tls& tls_now() {
  asm volatile("");
  return tls;
}

bool use_pinned_path(const Strand* s) {
  return s->kind == Kind::Main && g_rt->cfg.pin_main;
}

/// Makes @p s runnable again. Owner-pushes onto the *current* worker's
/// deque (callers are always on a worker thread), except pinned-main which
/// goes through the core's worker-0-only main slot.
void make_ready(Strand* s) {
  if (use_pinned_path(s)) {
    g_rt->core->push_main(s);
  } else {
    g_rt->core->push_owner(tls.rank, s);
  }
}

void complete(Strand* s) {
  // Order matters: once `done` is visible a joiner may free the strand,
  // so the joiner slot must be claimed first (see abt::complete).
  Strand* j = s->joiner.exchange(kJoinerSentinel, std::memory_order_acq_rel);
  s->done.store(true, std::memory_order_release);
  if (j != nullptr) make_ready(j);
}

/// Handles a non-Resume message delivered by a strand that transferred
/// control to us. Runs on the receiving side (another strand's stack or a
/// worker base loop), after the sender's context is fully saved in t.from.
void process_directive(const SwitchMsg& msg, fctx::fcontext_t from) {
  switch (msg.dir) {
    case Dir::Yield:
      msg.self->ctx = from;
      make_ready(msg.self);
      break;
    case Dir::Migrate:
      msg.self->ctx = from;
      g_rt->core->push_main(msg.self);
      break;
    case Dir::Block: {
      msg.self->ctx = from;
      Strand* target = msg.target;
      Strand* expected = nullptr;
      const bool registered =
          !target->done.load(std::memory_order_acquire) &&
          target->joiner.compare_exchange_strong(expected, msg.self,
                                                 std::memory_order_acq_rel);
      if (!registered) make_ready(msg.self);  // target already finished
      break;
    }
    case Dir::BlockExt:
      // sched::sync park: enqueue under the primitive's lock with a
      // condition re-check (the generic register-or-complete shape).
      msg.self->ctx = from;
      if (!msg.cb(msg.cb_arg, msg.self)) make_ready(msg.self);
      break;
    case Dir::Done:
      fctx::StackPool::global().release(msg.self->stack);
      msg.self->stack = fctx::Stack{};
      complete(msg.self);
      break;
    case Dir::Resume:
    case Dir::Spawn:
      GLTO_CHECK_MSG(false, "unexpected directive");
  }
}

/// Landing routine for a strand that just got control: interprets the
/// incoming transfer and refreshes TLS. Shared by suspend() and entry.
/// noinline: runs right after a context switch, where the strand may be
/// on a different OS thread than its caller's inlined code computed TLS
/// addresses for.
__attribute__((noinline)) void strand_landing(Strand* self,
                                              fctx::transfer_t t) {
  Tls& now = tls_now();
  SwitchMsg in = *static_cast<SwitchMsg*>(t.data);
  if (in.dir == Dir::Resume) {
    // Resumed by a worker base loop: remember how to fall back to it.
    g_rt->workers[static_cast<std::size_t>(now.rank)].base_ctx = t.from;
  } else {
    process_directive(in, t.from);
  }
  now.current = self;
  self->last_rank.store(now.rank, std::memory_order_relaxed);
  if (self->kind == Kind::Main && now.rank != 0) {
    g_rt->main_migrations.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Picks the next runnable strand without idling: worker 0's main slot
/// first, then the shared core's own pool (work-first order), then one
/// randomized steal sweep. Returns nullptr when idle.
Strand* find_next() {
  return g_rt->core->try_next(tls.rank, &tls.tick, tls.rng,
                              /*with_main=*/tls.rank == 0);
}

void base_loop();
void strand_entry(fctx::transfer_t t);

/// Binds a pooled stack to a strand that has never run (ctx == nullptr).
/// Called by whoever dispatches it — a base loop, leave()'s hand-off, or
/// create()'s work-first jump — so the stack comes from the running
/// worker's own cache, the one Dir::Done releases into, and only started,
/// unfinished strands hold a stack; queued ones hold none.
void bind_stack(Strand* s) {
  s->stack = fctx::StackPool::global().acquire();
  s->stack_region = s->stack.region();
  s->ctx = fctx::make_fcontext(s->stack.top, s->stack.size, strand_entry);
}

void base_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  // Worker 0's base context, created lazily at main's first suspension.
  SwitchMsg in = *static_cast<SwitchMsg*>(t.data);
  process_directive(in, t.from);
  base_loop();
  GLTO_CHECK_MSG(false, "worker base loop exited while suspended main exists");
}

/// Leaves the current strand with @p msg: transfers to the next runnable
/// strand, or to the worker's base loop when idle. For Yield/Block the
/// call returns when the strand is resumed; for Done it never returns.
/// noinline: suspension point (see strand_landing).
__attribute__((noinline)) void leave(SwitchMsg msg) {
  Strand* self = msg.self;
  for (;;) {
    Worker& w = g_rt->workers[static_cast<std::size_t>(tls.rank)];
    fctx::fcontext_t to;
    fctx::StackRegion to_region;
    if (Strand* next = find_next()) {
      if (next->ctx == nullptr) bind_stack(next);
      to = next->ctx;
      to_region = next->stack_region;
      msg.resumee = next;
    } else if (w.base_ctx != nullptr) {
      to = w.base_ctx;
      to_region = w.base_region;
      w.base_ctx = nullptr;  // one-shot: consumed by this jump
    } else {
      // Worker 0 only: the main OS thread entered the runtime running the
      // main strand, so its base loop does not exist until first needed.
      // (Workers >0 always have a live base: they start in base_loop.)
      GLTO_CHECK(tls.rank == 0 && !w.base_stack.valid());
      fctx::Stack s = fctx::StackPool::global().acquire();
      w.base_stack = s;
      w.base_region = s.region();
      to = fctx::make_fcontext(s.top, s.size, base_entry);
      to_region = w.base_region;
    }
    fctx::transfer_t t = fctx::jump_fcontext_to(
        to, &msg, to_region, /*abandon=*/msg.dir == Dir::Done);
    // Resumed (Yield/Block only; Done strands never come back).
    strand_landing(self, t);
    return;
  }
}

void base_loop() {
  sched::AcquireState st(0x8BADF00DULL +
                         static_cast<std::uint64_t>(tls.rank));
  for (;;) {
    Strand* s = g_rt->core->acquire(tls.rank, st, /*with_main=*/tls.rank == 0);
    if (s == nullptr) break;
    sched::trace_emit(sched::TraceKind::ult_switch,
                      reinterpret_cast<std::uintptr_t>(s));
    if (s->ctx == nullptr) bind_stack(s);
    SwitchMsg resume{Dir::Resume, nullptr, nullptr, s};
    fctx::transfer_t t =
        fctx::jump_fcontext_to(s->ctx, &resume, s->stack_region);
    // A strand fell back to us with a directive.
    SwitchMsg in = *static_cast<SwitchMsg*>(t.data);
    process_directive(in, t.from);
  }
}

void worker_main(int rank) {
  tls.rank = rank;
  tls.rng = common::FastRng(0x8BADF00D + static_cast<std::uint64_t>(rank));
  // base_loop runs right here, on this worker's native pthread stack.
  g_rt->workers[static_cast<std::size_t>(rank)].base_region =
      fctx::os_thread_stack();
  if (g_rt->cfg.bind_threads) common::bind_self_to_core(rank);
  sched::trace_thread_label("mth", rank);
  base_loop();
}

void strand_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  // First activation. For a work-first spawn t carries the Spawn message
  // and t.from is the parent's freshly saved continuation. A *queued*
  // strand (create_bulk) is instead first activated from a scheduler loop
  // (Resume) or another strand's leave() (any directive): the message
  // describes the sender, and the entry recovers its own identity from
  // msg.resumee — strand_landing handles both shapes.
  SwitchMsg in = *static_cast<SwitchMsg*>(t.data);
  Strand* self;
  if (in.dir == Dir::Spawn) {
    self = in.target;
    Strand* parent = in.self;
    parent->ctx = t.from;
    // Publish the parent's continuation: this is the work-first handoff
    // that makes it stealable by idle workers (MassiveThreads semantics).
    make_ready(parent);
    tls.current = self;
    self->last_rank.store(tls.rank, std::memory_order_relaxed);
  } else {
    self = in.resumee;
    GLTO_CHECK_MSG(self != nullptr, "queued strand resumed without identity");
    strand_landing(self, t);
  }
  self->fn(self->arg);

  SwitchMsg done{Dir::Done, self, nullptr};
  leave(done);
  GLTO_CHECK_MSG(false, "resumed a finished strand");
}

/// A recycled (or fresh) record, reset and unbound: no stack until a
/// worker first dispatches it.
Strand* new_strand(WorkFn fn, void* arg) {
  Strand* s = g_rt->free->try_alloc(tls.rank);
  if (s == nullptr) s = new Strand();
  s->fn = fn;
  s->arg = arg;
  s->ctx = nullptr;
  s->stack = fctx::Stack{};
  s->stack_region = fctx::StackRegion{};
  s->done.store(false, std::memory_order_relaxed);
  s->joiner.store(nullptr, std::memory_order_relaxed);
  s->last_rank.store(-1, std::memory_order_relaxed);
  s->kind = Kind::Ult;
  s->user_local = nullptr;
  return s;
}

/// Help-first bulk spawn: @p n strands are created *queued* — published
/// through the scheduling core's bulk path (one deposit, targeted wakes)
/// instead of the work-first jump mth::create performs per child. This is
/// what lets a single producer fan a burst out without running each child
/// to its first suspension inline; everything deposited is stealable, as
/// all mth scheduling is.
void create_bulk_impl(WorkFn fn, void* const* args, int n, Strand** out) {
  GLTO_CHECK_MSG(g_rt != nullptr, "mth::init has not been called");
  GLTO_CHECK_MSG(tls.current != nullptr, "mth::create_bulk outside a strand");
  if (n <= 0) return;
  for (int i = 0; i < n; ++i) {
    out[i] = new_strand(fn, args[i]);
  }
  g_rt->strands_created.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
  g_rt->core->submit_bulk(tls.rank, out, static_cast<std::size_t>(n),
                          sched::BulkHint::local);
}

void dump_core_state(void* arg) {
  static_cast<sched::WsCore<Strand*>*>(arg)->dump_state("mth");
}

// ------------------------------------------------- sched::SuspendOps bridge

bool ops_can_suspend() { return g_rt != nullptr && tls.current != nullptr; }

void ops_suspend(sched::SuspendCb cb, void* arg) {
  SwitchMsg m{Dir::BlockExt, tls.current, nullptr};
  m.cb = cb;
  m.cb_arg = arg;
  leave(m);
}

/// Re-deposits a strand a sync-primitive signaller owns. make_ready is
/// wrong here: push_owner assumes a worker-thread caller, but wakers can
/// be foreign OS threads (rank -1) — core->ready routes that through the
/// fair queue instead.
void ops_resume(void* handle) {
  auto* s = static_cast<Strand*>(handle);
  if (use_pinned_path(s)) {
    g_rt->core->push_main(s);
  } else {
    g_rt->core->ready(tls_now().rank, /*home_rank=*/0, /*pinned=*/false,
                      /*fifo=*/false, s);
  }
}

void ops_yield() { yield(); }
bool ops_maybe_work() { return maybe_work(); }

constexpr sched::SuspendOps kSuspendOps{ops_can_suspend, ops_suspend,
                                        ops_resume, ops_yield,
                                        ops_maybe_work};

}  // namespace

void init(const Config& cfg_in) {
  GLTO_CHECK_MSG(g_rt == nullptr, "mth::init called twice");
  // Arm observability even for raw-backend users (no glt:: facade):
  // both resolvers are idempotent, so the facade path pays nothing.
  sched::trace_init_from_env();
  sched::metrics_init_from_env();
  g_rt = new Runtime();
  g_rt->cfg = cfg_in;
  g_rt->cfg.num_workers =
      common::env_worker_count("MTH_NUM_WORKERS", cfg_in.num_workers);
  g_rt->n = g_rt->cfg.num_workers;
  g_rt->workers = std::vector<Worker>(static_cast<std::size_t>(g_rt->n));
  sched::WsCoreConfig core_cfg;
  core_cfg.num_workers = g_rt->n;
  core_cfg.shared_pool = g_rt->cfg.shared_pool;
  core_cfg.deque_capacity = 64;  // continuation chains stay shallow
  g_rt->core = std::make_unique<sched::WsCore<Strand*>>(core_cfg);
  g_rt->free = std::make_unique<sched::Freelist<Strand>>(g_rt->n);
  g_rt->watchdog_token =
      sched::watchdog_register_dumper(dump_core_state, g_rt->core.get());
  g_rt->stack_hits_at_init = fctx::StackPool::global().cache_hits();
  tls.rank = 0;
  tls.tick = 0;
  tls.rng = common::FastRng(0x8BADF00D);
  auto* main_strand = new Strand();
  main_strand->kind = Kind::Main;
  main_strand->stack_region = fctx::os_thread_stack();
  tls.current = main_strand;
  if (g_rt->cfg.bind_threads) common::bind_self_to_core(0);
  sched::register_suspend_ops(&kSuspendOps);
  for (int r = 1; r < g_rt->n; ++r) {
    g_rt->threads.emplace_back(worker_main, r);
  }
}

void finalize() {
  GLTO_CHECK_MSG(g_rt != nullptr, "mth::finalize without init");
  Strand* self = tls.current;
  GLTO_CHECK_MSG(self != nullptr && self->kind == Kind::Main,
                 "finalize must run on the main strand");
  // Main may have been stolen; ride the main slot back to worker 0's OS
  // thread (the original main thread) so joining the workers is safe.
  if (tls.rank != 0) {
    SwitchMsg m{Dir::Migrate, self, nullptr};
    leave(m);
    GLTO_CHECK(tls.rank == 0);
  }
  sched::unregister_suspend_ops(&kSuspendOps);
  sched::watchdog_unregister_dumper(g_rt->watchdog_token);
  g_rt->core->request_shutdown();
  for (auto& th : g_rt->threads) th.join();
  fctx::StackPool::global().release(g_rt->workers[0].base_stack);
  delete self;
  tls = Tls{};
  delete g_rt;  // Freelist dtor frees all recycled Strand records
  g_rt = nullptr;
}

bool initialized() { return g_rt != nullptr; }

int num_workers() { return g_rt ? g_rt->n : 0; }

int worker_rank() { return tls.rank; }

bool in_strand() { return tls.current != nullptr; }

bool maybe_work() {
  if (g_rt == nullptr || tls.rank < 0) return false;
  return g_rt->core->maybe_work(tls.rank, tls.rank == 0);
}

Strand* create(WorkFn fn, void* arg) {
  GLTO_CHECK_MSG(g_rt != nullptr, "mth::init has not been called");
  Strand* parent = tls.current;
  GLTO_CHECK_MSG(parent != nullptr, "mth::create outside a strand");
  Strand* child = new_strand(fn, arg);
  bind_stack(child);  // work-first: dispatched right here
  g_rt->strands_created.fetch_add(1, std::memory_order_relaxed);

  // Work-first: run the child NOW; our continuation is published by the
  // child (after this context is saved) and may be stolen meanwhile —
  // strand_landing (noinline) re-resolves TLS on whatever OS thread
  // resumes us.
  SwitchMsg spawn{Dir::Spawn, parent, child};
  fctx::transfer_t t =
      fctx::jump_fcontext_to(child->ctx, &spawn, child->stack_region);
  strand_landing(parent, t);
  return child;
}

void create_bulk(WorkFn fn, void* const* args, int n, Strand** out) {
  create_bulk_impl(fn, args, n, out);
}

void join(Strand* s) {
  GLTO_CHECK(s != nullptr);
  Strand* self = tls.current;
  if (self == nullptr) {
    common::spin_until(
        [&] { return s->done.load(std::memory_order_acquire); });
  } else {
    while (!s->done.load(std::memory_order_acquire)) {
      SwitchMsg m{Dir::Block, self, s};
      leave(m);
    }
  }
  // Recycle through the shared freelist; the joiner may have migrated
  // across OS threads above, so the rank is re-resolved (tls_now).
  if (g_rt == nullptr) {
    delete s;
    return;
  }
  g_rt->free->recycle(tls_now().rank, s);
}

void yield() {
  Strand* self = tls.current;
  if (self == nullptr) return;
  // Cheap check: with nothing else runnable, yielding is a no-op.
  if (!g_rt->core->maybe_work(tls.rank, /*with_main=*/tls.rank == 0)) return;
  SwitchMsg m{Dir::Yield, self, nullptr};
  leave(m);
}

bool is_done(const Strand* s) {
  return s->done.load(std::memory_order_acquire);
}

int executed_on(const Strand* s) {
  return s->last_rank.load(std::memory_order_relaxed);
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
    s.strands_created = g_rt->strands_created.load(std::memory_order_relaxed);
    s.main_migrations =
        g_rt->main_migrations.load(std::memory_order_relaxed);
    s.assign_core(g_rt->core->stats());
    s.stack_cache_hits =
        fctx::StackPool::global().cache_hits() - g_rt->stack_hits_at_init;
  }
  return s;
}

}  // namespace glto::mth
