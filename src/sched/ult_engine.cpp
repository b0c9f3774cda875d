#include "sched/ult_engine.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/debug.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"
#include "common/time.hpp"
#include "sched/pool.hpp"
#include "sched/watchdog.hpp"

namespace glto::sched::ult {

namespace {

enum class Dir : std::uint8_t { Resume, Yield, Park, Done, Spawn, Migrate };

struct TimerList;

/// A parked unit's deadline. Lives in park()'s frame on the unit's stack.
struct Timer {
  std::int64_t deadline_ns;
  CancelCb cancel;
  void* arg;
  Record* rec = nullptr;
  TimerList* list = nullptr;  ///< the worker list it is armed on
  Timer* next = nullptr;
  bool linked = false;
  bool fired = false;  ///< the deadline won; set under the list lock
};

/// One worker's parked units with deadlines, sorted by deadline. Only the
/// owning worker arms and fires timers; a resumed unit unlinks its own.
struct alignas(common::kCacheLine) TimerList {
  common::SpinLock lock;
  Timer* head GLTO_GUARDED_BY(lock) = nullptr;
  /// head's deadline, for the owner's lock-free "anything due?" check.
  std::atomic<std::int64_t> next{common::kNoDeadline};

  void insert(Timer* t) GLTO_REQUIRES(lock) {
    Timer** at = &head;
    while (*at != nullptr && (*at)->deadline_ns <= t->deadline_ns) {
      at = &(*at)->next;
    }
    t->next = *at;
    *at = t;
    t->linked = true;
    publish();
  }
  /// Firing pops the head; only a resumed unit unlinks from the middle.
  void unlink(Timer* t) GLTO_REQUIRES(lock) {
    Timer** at = &head;
    while (*at != t) at = &(*at)->next;
    *at = t->next;
    t->linked = false;
    publish();
  }
  void publish() GLTO_REQUIRES(lock) {
    next.store(head != nullptr ? head->deadline_ns : common::kNoDeadline,
               std::memory_order_relaxed);
  }
};

/// What a switching unit tells the side that receives control.
struct SwitchMsg {
  Dir dir;
  Record* self;               ///< the sender
  Record* resumee = nullptr;  ///< the unit this jump enters
  ParkCb cb = nullptr;        ///< Park: register-or-complete callback
  void* cb_arg = nullptr;
  Timer* timer = nullptr;     ///< Park with a deadline
};

Record* const kJoinerSentinel = reinterpret_cast<Record*>(std::uintptr_t(1));

constexpr std::uint64_t kStealSeed = 0x9e3779b97f4a7c15ULL;

struct Engine {
  Engine(const Personality& pers, int n_in, bool shared, bool bind_in)
      : p(&pers), n(n_in), bind(bind_in), core(WsCoreConfig{n_in, shared}),
        timers(new TimerList[static_cast<std::size_t>(n_in)]) {}
  const Personality* p;
  const int n;
  const bool bind;
  /// The primary context travels through the core's main slot when it is
  /// pinned: only rank 0 pops it, so finalize always runs where init did.
  WsCore<Record*> core;
  std::unique_ptr<TimerList[]> timers;  ///< one per worker
  std::vector<std::thread> workers;
  Record* main = nullptr;
  /// Stack of rank 0's scheduler context, built the first time the main
  /// thread has to leave the unit it runs (the other ranks' loops run on
  /// their native thread stacks).
  fctx::Stack primary_stack;
  std::uint64_t watchdog_token = 0;
  std::uint64_t stack_hits_at_init = 0;
  long init_thread_slack = 0;  ///< restored on the init thread at finalize
  std::atomic<std::uint64_t> created{0};
  std::atomic<std::uint64_t> tasklets{0};
  std::atomic<std::uint64_t> yields{0};
  std::atomic<std::uint64_t> main_migrations{0};
};

Engine* g = nullptr;

struct Tls {
  int rank = -1;
  Record* current = nullptr;              ///< unit whose stack we run on
  fctx::fcontext_t sched_ctx = nullptr;   ///< this thread's suspended loop
  fctx::StackRegion sched_stack;          ///< ASan bounds of that loop's stack
  // Work-first hand-off pops (leave): fair-queue cadence and steal victims.
  unsigned tick = 0;
  common::FastRng rng{0};
};

thread_local Tls tls;

/// The per-thread block as seen by the OS thread running *now*. noinline
/// plus the compiler barrier force the %fs-relative address to be
/// recomputed at the call instead of reusing one computed before a switch
/// that may have moved the caller to another thread.
__attribute__((noinline)) Tls& tls_now() {
  asm volatile("");
  return tls;
}

thread_local void* g_foreign_local = nullptr;

/// The one resume rule, run on worker @p rank (-1: a foreign thread): a
/// pinned main rides the main slot to rank 0; every other unit goes
/// through the core's routing.
void make_ready(Record* r, bool fifo, int rank) {
  if (r->is_main && r->pinned) {
    g->core.push_main(r);
  } else {
    g->core.ready(rank, r->home_rank, r->pinned, fifo, r);
  }
}

/// A unit finished on worker @p rank and its stack is released.
void finish(Record* r, int rank) {
  if (r->auto_free) {
    Pool<Record>::free(r);
    return;
  }
  // Claim the joiner slot BEFORE publishing done: once done is visible a
  // joiner may return from join() and recycle r, so the done store must be
  // the last access to *r.
  Record* j = r->joiner.exchange(kJoinerSentinel, std::memory_order_acq_rel);
  r->done.store(true, std::memory_order_release);
  if (j != nullptr) make_ready(j, /*fifo=*/false, rank);
}

void run_body(Record* r) {
  if (r->body != nullptr) {
    r->body(r);
  } else {
    r->fn(r->arg);
  }
}

/// Fires worker @p rank's due timers and returns its earliest remaining
/// deadline. Runs wherever the worker picks its next unit.
std::int64_t fire_due(int rank) {
  TimerList& l = g->timers[static_cast<std::size_t>(rank)];
  const std::int64_t next = l.next.load(std::memory_order_relaxed);
  if (next == common::kNoDeadline) return next;
  const std::int64_t now = common::now_ns();
  if (now < next) return next;
  common::SpinGuard guard(l.lock);
  while (l.head != nullptr && l.head->deadline_ns <= now) {
    Timer* t = l.head;
    l.unlink(t);
    if (t->cancel(t->arg)) {
      t->fired = true;
      make_ready(t->rec, /*fifo=*/false, rank);
    }
  }
  return l.next.load(std::memory_order_relaxed);
}

/// Parks the sender of @p m with its deadline on worker @p rank: cb runs
/// and the timer is armed under the list lock, so the deadline cannot fire
/// in between. Once cb has parked the unit a waker may resume it, and its
/// stack (where @p m lives) may be reused: from then on only the timer,
/// which park() keeps alive until it gets the list lock, is touched.
bool arm(const SwitchMsg& m, int rank) {
  Timer* t = m.timer;
  TimerList& l = g->timers[static_cast<std::size_t>(rank)];
  t->rec = m.self;
  t->list = &l;
  common::SpinGuard guard(l.lock);
  if (!m.cb(m.cb_arg, m.self)) return false;
  l.insert(t);
  return true;
}

/// Handles the directive a unit sent when it switched away. Runs on the
/// receiving side (a scheduler loop, or under work-first the next unit) on
/// worker @p rank, after the sender's context is saved in @p from. Every
/// field of @p m is read before the sender is re-readied: from then on its
/// stack, where @p m lives, may be reused.
inline void process(const SwitchMsg& m, fctx::fcontext_t from, int rank) {
  Record* self = m.self;
  switch (m.dir) {
    case Dir::Yield:
    case Dir::Spawn:
      self->ctx = from;
      make_ready(self, m.dir == Dir::Yield && !g->p->work_first, rank);
      break;
    case Dir::Migrate:
      self->ctx = from;
      g->core.push_main(self);
      break;
    case Dir::Park:
      self->ctx = from;
      if (!(m.timer != nullptr ? arm(m, rank) : m.cb(m.cb_arg, self))) {
        make_ready(self, /*fifo=*/false, rank);
      }
      break;
    case Dir::Done:
      fctx::StackPool::global().release(self->stack);
      self->stack = fctx::Stack{};
      finish(self, rank);
      break;
    case Dir::Resume:
      GLTO_CHECK_MSG(false, "Resume is never sent to a scheduler");
  }
}

/// Landing for a unit that just got control: interprets the incoming
/// message and refreshes the per-thread block. It runs right after a
/// switch, possibly on another OS thread than the caller started on, so the
/// block is resolved through tls_now().
inline void land(Record* self, fctx::transfer_t t) {
  Tls& now = tls_now();
  const SwitchMsg in = *static_cast<const SwitchMsg*>(t.data);
  if (in.dir == Dir::Resume) {
    now.sched_ctx = t.from;  // a scheduler loop resumed us: our way back
  } else {
    process(in, t.from, now.rank);  // a work-first hand-off
  }
  now.current = self;
  self->last_rank.store(now.rank, std::memory_order_relaxed);
  if (self->is_main && now.rank != 0) {
    g->main_migrations.fetch_add(1, std::memory_order_relaxed);
  }
}

void ult_entry(fctx::transfer_t t);
void primary_entry(fctx::transfer_t t);

void bind_stack(Record* r) {
  r->stack = fctx::StackPool::global().acquire();
  r->stack_region = r->stack.region();
  r->ctx = fctx::make_fcontext(r->stack.top, r->stack.size, ult_entry);
}

/// Switches @p self, the current unit, away with directive @p dir: to the
/// next runnable unit (work-first only) or to this thread's scheduler
/// loop. Returns when the unit is resumed; never for Done. noinline: a
/// suspension point. Takes scalars, not a SwitchMsg: the message is built
/// once, here, where the receiving side reads it.
__attribute__((noinline)) void leave(Dir dir, Record* self,
                                     ParkCb cb = nullptr,
                                     void* cb_arg = nullptr,
                                     Timer* timer = nullptr) {
  Tls& t = tls;  // pre-switch: still the caller's own thread
  SwitchMsg msg{dir, self, nullptr, cb, cb_arg, timer};
  GLTO_CHECK_MSG(self != nullptr, "suspend outside a ULT");
  GLTO_CHECK_MSG(!self->stackless,
                 "tasklets are stackless and cannot suspend (no yield-wait "
                 "or blocking join inside a tasklet)");
  Record* next = nullptr;
  if (g->p->work_first) {
    (void)fire_due(t.rank);
    next = g->core.try_next(t.rank, &t.tick, t.rng, /*with_main=*/t.rank == 0);
  }
  fctx::fcontext_t to;
  fctx::StackRegion region;
  if (next != nullptr) {
    if (next->ctx == nullptr) bind_stack(next);
    msg.resumee = next;
    to = next->ctx;
    region = next->stack_region;
  } else {
    if (t.sched_ctx == nullptr) {
      // Rank 0 only: the main thread entered the runtime running main, so
      // its scheduler loop does not exist until main first has to leave.
      GLTO_CHECK(t.rank == 0 && !g->primary_stack.valid());
      g->primary_stack = fctx::StackPool::global().acquire();
      t.sched_ctx = fctx::make_fcontext(g->primary_stack.top,
                                        g->primary_stack.size, primary_entry);
      t.sched_stack = g->primary_stack.region();
    }
    to = t.sched_ctx;
    region = t.sched_stack;
    t.sched_ctx = nullptr;  // consumed; the loop's next Resume re-arms it
    t.current = nullptr;
  }
  const fctx::transfer_t tr = fctx::jump_fcontext_to(
      to, &msg, region, /*abandon=*/msg.dir == Dir::Done);
  land(self, tr);
}

/// Entry trampoline of every stackful unit, at its first dispatch.
void ult_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  const auto* in = static_cast<const SwitchMsg*>(t.data);
  Record* self = in->resumee;
  if (in->dir == Dir::Resume) {
    // Started by this thread's scheduler loop, the common case. Nothing
    // ran on this frame before, so the plain per-thread block is current.
    tls.sched_ctx = t.from;
    tls.current = self;
    self->last_rank.store(tls.rank, std::memory_order_relaxed);
  } else {
    land(self, t);
  }
  run_body(self);
  leave(Dir::Done, self);
  GLTO_CHECK_MSG(false, "resumed a finished ULT");
}

void run_unit(Tls& t, Record* r) {
  trace_emit(TraceKind::ult_switch, reinterpret_cast<std::uintptr_t>(r),
             r->stackless ? 1u : 0u);
  if (r->stackless) {
    // A tasklet runs right here, on the scheduler's stack, as `current`
    // so that yield() and self_local() act on the tasklet itself.
    r->last_rank.store(t.rank, std::memory_order_relaxed);
    t.current = r;
    run_body(r);
    t.current = nullptr;
    finish(r, t.rank);
    return;
  }
  if (r->ctx == nullptr) bind_stack(r);
  SwitchMsg resume{Dir::Resume, nullptr, r};
  const fctx::transfer_t tr =
      fctx::jump_fcontext_to(r->ctx, &resume, r->stack_region);
  process(*static_cast<const SwitchMsg*>(tr.data), tr.from, t.rank);
}

/// The scheduler loop, shared by every worker and rank 0's primary
/// context. A loop is only ever resumed on its own thread, so `t` stays
/// valid; it fires due timers before every acquire and exits when the
/// core reports shutdown.
void sched_loop() {
  Tls& t = tls;
  AcquireState st(kStealSeed + static_cast<std::uint64_t>(t.rank));
  for (;;) {
    st.deadline_ns = fire_due(t.rank);
    if (Record* r = g->core.acquire(t.rank, st, /*with_main=*/t.rank == 0)) {
      run_unit(t, r);
    } else if (g->core.shutdown_requested()) {
      return;
    }
  }
}

void primary_entry(fctx::transfer_t t) {
  fctx::asan_enter();
  process(*static_cast<const SwitchMsg*>(t.data), t.from, tls.rank);
  sched_loop();
  GLTO_CHECK_MSG(false, "primary scheduler exited while runtime is alive");
}

/// Sets the calling thread's timer slack and returns the previous one.
/// Engine threads wait out parked units' deadlines in timed idle parks;
/// at Linux's default 50 µs slack those fire ~50 µs late (a 50 µs timed
/// wait on an idle worker read 62 µs late at p50, 10 µs at 1 ns slack).
long set_timer_slack(long ns) {
#if defined(__linux__)
  const long old = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  (void)prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(ns), 0, 0, 0);
  return old;
#else
  return ns;
#endif
}

void worker_main(int rank) {
  (void)set_timer_slack(1);
  tls.rank = rank;
  tls.sched_stack = fctx::os_thread_stack();  // the loop runs right here
  tls.rng = common::FastRng(kStealSeed + static_cast<std::uint64_t>(rank));
  if (g->bind) common::bind_self_to_core(rank);
  trace_thread_label(g->p->name, rank);
  sched_loop();
}

void dump_core_state(void*) { g->core.dump_state(g->p->name); }

bool join_cb(void* target, Record* joiner) {
  auto* r = static_cast<Record*>(target);
  Record* expected = nullptr;
  return !r->done.load(std::memory_order_acquire) &&
         r->joiner.compare_exchange_strong(expected, joiner,
                                           std::memory_order_acq_rel);
}

}  // namespace

void init(const Personality& p, int num_workers, bool shared_pool,
          bool bind_threads, bool pin_main) {
  GLTO_CHECK_MSG(g == nullptr,
                 "a ULT backend is already running (abt, qth and mth share "
                 "one engine)");
  // Arm observability even for raw-backend users (no glt:: facade): both
  // resolvers are idempotent, so the facade path pays nothing.
  trace_init_from_env();
  metrics_init_from_env();
  const int n = num_workers > 0 ? num_workers
                                : std::max(1, common::hardware_concurrency());
  g = new Engine(p, n, shared_pool, bind_threads);
  g->watchdog_token = watchdog_register_dumper(dump_core_state, nullptr);
  g->stack_hits_at_init = fctx::StackPool::global().cache_hits();
  g->main = Pool<Record>::alloc();
  g->main->is_main = true;
  g->main->pinned = pin_main;
  g->main->stack_region = fctx::os_thread_stack();
  tls = Tls{};
  tls.rank = 0;
  tls.rng = common::FastRng(kStealSeed);
  tls.current = g->main;
  if (bind_threads) common::bind_self_to_core(0);
  g->init_thread_slack = set_timer_slack(1);
  for (int r = 1; r < n; ++r) g->workers.emplace_back(worker_main, r);
}

void finalize() {
  Record* self = tls.current;
  GLTO_CHECK_MSG(self != nullptr && self == g->main,
                 "finalize must run on the main ULT");
  // A stolen main rides the main slot back to rank 0's OS thread (the one
  // that ran init), so joining the workers is safe.
  if (tls.rank != 0) {
    leave(Dir::Migrate, self);
    GLTO_CHECK(tls_now().rank == 0);
  }
  watchdog_unregister_dumper(g->watchdog_token);
  g->core.request_shutdown();
  for (auto& w : g->workers) w.join();
  fctx::StackPool::global().release(g->primary_stack);
  (void)set_timer_slack(g->init_thread_slack);
  Pool<Record>::free(g->main);
  tls_now() = Tls{};
  delete g;
  g = nullptr;
}

bool running(const Personality& p) { return g != nullptr && g->p == &p; }

int num_workers() { return g != nullptr ? g->n : 0; }

int self_rank() { return tls.rank; }

bool in_ult() { return tls.current != nullptr && !tls.current->stackless; }

bool maybe_work() {
  if (g == nullptr || tls.rank < 0) return false;
  return g->core.maybe_work(tls.rank, /*with_main=*/tls.rank == 0);
}

Record* alloc(WorkFn fn, void* arg, int home_rank, bool pinned, Unit unit) {
  GLTO_CHECK(home_rank < g->n);
  if (home_rank < 0) home_rank = tls.rank >= 0 ? tls.rank : 0;
  (unit == Unit::ult ? g->created : g->tasklets)
      .fetch_add(1, std::memory_order_relaxed);
  Record* r = Pool<Record>::alloc();
  r->fn = fn;
  r->arg = arg;
  r->home_rank = home_rank;
  r->pinned = pinned;
  r->stackless = unit == Unit::tasklet;
  return r;
}

void submit(Record* r) {
  g->core.submit(tls.rank, r->home_rank, r->pinned, r);
}

Record* create(WorkFn fn, void* arg, int home_rank, bool pinned, Unit unit) {
  Record* r = alloc(fn, arg, home_rank, pinned, unit);
  submit(r);
  return r;
}

void submit_bulk(Record* const* rs, int n, BulkHint hint) {
  g->core.submit_bulk(tls.rank, rs, static_cast<std::size_t>(n), hint);
}

Record* spawn(WorkFn fn, void* arg, Unit unit, bool detached) {
  Record* parent = tls.current;
  GLTO_CHECK_MSG(parent != nullptr, "work-first spawn outside a ULT");
  GLTO_CHECK(unit != Unit::tasklet);  // the child gets a stack right here
  Record* child = alloc(fn, arg, /*home_rank=*/0, /*pinned=*/false, unit);
  child->auto_free = detached;
  bind_stack(child);  // dispatched right here
  SwitchMsg msg{Dir::Spawn, parent, child};
  const fctx::transfer_t t =
      fctx::jump_fcontext_to(child->ctx, &msg, child->stack_region);
  land(parent, t);
  return detached ? nullptr : child;
}

void join(Record* r) {
  GLTO_CHECK(r != nullptr);
  Record* self = tls.current;
  if (self == nullptr) {
    // Foreign OS thread: no continuation to park, so wait passively.
    common::spin_until([&] { return is_done(r); });
  } else {
    while (!is_done(r)) leave(Dir::Park, self, join_cb, r);
  }
  Pool<Record>::free(r);
}

void yield() {
  Record* self = tls.current;
  if (self == nullptr || self->stackless) return;  // tasklets run to completion
  if (g->p->work_first) {
    (void)fire_due(tls.rank);
    if (!maybe_work()) return;  // nothing else to run
  }
  g->yields.fetch_add(1, std::memory_order_relaxed);
  leave(Dir::Yield, self);
}

bool park(ParkCb cb, void* arg, std::int64_t deadline_ns, CancelCb cancel) {
  if (deadline_ns == common::kNoDeadline) {
    leave(Dir::Park, tls.current, cb, arg);
    return false;
  }
  Timer t{deadline_ns, cancel, arg};
  leave(Dir::Park, tls.current, cb, arg, &t);
  // Resumed, by a waker or by the timer: unlink the timer, waiting out a
  // firing that may still hold it.
  common::SpinGuard guard(t.list->lock);
  if (t.linked) t.list->unlink(&t);
  return t.fired;
}

void resume(Record* r) { make_ready(r, /*fifo=*/false, tls_now().rank); }

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

Counters counters() {
  Counters c;
  if (g != nullptr) {
    c.created = g->created.load(std::memory_order_relaxed);
    c.tasklets = g->tasklets.load(std::memory_order_relaxed);
    c.yields = g->yields.load(std::memory_order_relaxed);
    c.main_migrations = g->main_migrations.load(std::memory_order_relaxed);
  }
  return c;
}

void fill_stats(StatsSnapshot& s) {
  if (g == nullptr) return;
  s.assign_core(g->core.stats());
  s.stack_cache_hits =
      fctx::StackPool::global().cache_hits() - g->stack_hits_at_init;
}

}  // namespace glto::sched::ult
