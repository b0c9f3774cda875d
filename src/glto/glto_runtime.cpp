#include "glto/glto_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>

#include "common/affinity.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "omp/task_support.hpp"
#include "sched/chaos.hpp"
#include "sched/metrics.hpp"
#include "sched/pool.hpp"
#include "sched/sync.hpp"
#include "sched/trace.hpp"
#include "taskdep/taskdep.hpp"

namespace glto::rt {

namespace {

using omp::Schedule;

struct TaskCtx;

using omp::detail::DepPayload;
using omp::detail::ReadyGate;
using omp::detail::tg_cancelled;
using omp::detail::TgScope;

/// A parallel team: fixed membership, barrier, single/loop bookkeeping.
/// Lives on the forking master's stack.
struct Team : omp::detail::TeamShare {
  int size = 1;
  int level = 0;
  Team* parent = nullptr;

  // Blocking team barrier: non-last arrivers park on the wait list (their
  // GLT_thread runs sibling ULTs meanwhile), the last arriver wakes the
  // flock through the core's targeted-wake path — no sleep quantum.
  sched::Barrier barrier;

  /// Non-master members still running. Their ULTs are detached: each
  /// counts down here as its last access to the team, and the master
  /// waits for zero before the team leaves its stack.
  sched::CompletionLatch members;

  // Round-robin cursor for producer-pattern task dispatch (§IV-D).
  std::atomic<std::uint64_t> task_rr{0};
};

/// Execution context of an implicit or explicit OpenMP task. Lives on the
/// executing ULT's stack; reachable via glt::self_local(), so it follows
/// the ULT across suspensions and (mth) steals.
struct TaskCtx : omp::detail::MemberShare {
  Team* team = nullptr;
  int tid = 0;
  TaskCtx* parent = nullptr;
  /// Explicit-task context: thread_num() reports the *executing*
  /// GLT_thread live (it changes when a stealing backend migrates the
  /// task — what omp_get_thread_num requires and the untied validation
  /// tests observe).
  bool is_explicit_task = false;

  /// Unfinished child tasks: added before a child is created or handed to
  /// the dependence engine, counted down by the child as its last access
  /// to this context. taskwait waits for zero; the context's owner always
  /// does before its frame ends (see header note).
  sched::CompletionLatch children;
  /// Innermost active taskgroup of this task (nullptr outside groups).
  TgScope* group = nullptr;

  // Producer-pattern detection for task dispatch (in_single: MemberShare).
  bool in_master = false;
};

/// Dependence-domain key: the address of the *creating* task's context.
/// Dependences match only among tasks submitted by the same context —
/// OpenMP's sibling scoping — so a child task naming its parent's dep
/// object creates no edge, which is exactly the cross-scope hazard
/// (child depends on parent's still-open node + in-body taskwait) that
/// used to deadlock. Address recycling across retired contexts is benign:
/// a retired occupant's nodes are completed, and edges against completed
/// predecessors are no-ops.
[[nodiscard]] std::uintptr_t dep_domain(const TaskCtx* c) {
  return reinterpret_cast<std::uintptr_t>(c);
}

/// Argument block for team-member ULT thunks, from sched::Pool: the member
/// frees it before its count_down. RegionBody is non-owning: the forking
/// caller's frame outlives the member (Team::members).
struct MemberArg {
  Team* team;
  int tid;
  omp::RegionBody body;
};

class GltoRuntime;

/// Per-task record carrying the v2 descriptor through deferral and the
/// dependency engine (DepPayload rides the descriptor). Recycled through
/// sched::Pool — after warm-up, spawning a task with a small
/// trivially-copyable capture touches no allocator at all.
struct TaskArg : DepPayload {
  TaskArg() : DepPayload{Kind::spawn} {}
  Team* team = nullptr;
  omp::TaskDesc desc;
  GltoRuntime* rt = nullptr;
  TaskCtx* parent = nullptr;            ///< creator (waits for our count_down)
  TgScope* group = nullptr;             ///< enclosing taskgroup, if any
  taskdep::TaskNode* node = nullptr;    ///< non-null for depend tasks
  std::uint64_t submit_ns = 0;          ///< latency profiling stamp (0 = off)
};

class GltoRuntime final : public omp::Runtime {
 public:
  explicit GltoRuntime(const GltoOptions& opts) {
    default_threads_ = opts.num_threads > 0
                           ? opts.num_threads
                           : static_cast<int>(common::env_i64(
                                 "OMP_NUM_THREADS",
                                 common::hardware_concurrency()));
    nested_ = opts.nested;
    glt::Config gcfg;
    gcfg.impl = opts.impl;
    gcfg.num_threads = default_threads_;
    gcfg.shared_queues = opts.shared_queues;
    gcfg.bind_threads = opts.bind_threads;
    // §IV-G: under MassiveThreads the primary GLT_thread must keep the
    // master; GLTO disables main-context migration.
    gcfg.pin_main = opts.impl == glt::Impl::mth;
    glt::init(gcfg);
    ults_at_reset_ = glt::stats().ults_created;

    root_team_.size = 1;
    root_team_.level = 0;
    root_ctx_.team = &root_team_;
    root_ctx_.tid = 0;
    glt::set_self_local(&root_ctx_);
    // DAG ready-bursts (one completing tile releasing k dependents) are
    // bulk-spawned: one scheduler deposit + targeted wakes instead of k.
    dep_engine_.set_on_ready_batch(&GltoRuntime::on_deps_ready_batch);
  }

  ~GltoRuntime() override {
    glt::set_self_local(nullptr);
    glt::finalize();
  }

  [[nodiscard]] const char* name() const override { return name_.c_str(); }
  void set_name(std::string n) { name_ = std::move(n); }

  void parallel(int nthreads, omp::RegionBody body) override {
    TaskCtx* pctx = cur();
    int nth = nthreads > 0 ? nthreads : default_threads_;
    const int new_level = pctx->team->level + 1;
    if (!nested_ && new_level > 1) nth = 1;

    Team team;
    team.size = nth;
    team.level = new_level;
    team.parent = pctx->team;
    team.barrier.init(nth);

    // §IV-C / §IV-E: outer-level members go one-per-GLT_thread, pinned
    // (exact placement — the §IV-C contract the placement tests enforce);
    // nested members stay on the creating GLT_thread (no
    // oversubscription). Each pinned submit already costs exactly one
    // targeted wake under the new wake protocol, so the region fork needs
    // no bulk deposit — the batch path is for task bursts, where one
    // victim receives many units.
    const bool outer = new_level == 1;
    if (nth > 1) team.members.add(nth - 1);
    const int glt_n = glt::num_threads();
    for (int i = 1; i < nth; ++i) {
      glt::ult_create_detached(outer ? i % glt_n : -1, member_thunk,
                               sched::Pool<MemberArg>::alloc(
                                   MemberArg{&team, i, body}));
    }

    // Master executes member 0 inline, then waits for the rest (implicit
    // barrier).
    run_member(&team, 0, body, pctx);
    team.members.wait();
  }

  int thread_num() override {
    TaskCtx* c = cur();
    if (c->is_explicit_task && c->team->size > 0) {
      return glt::thread_num() % c->team->size;
    }
    return c->tid;
  }
  int team_size() override { return cur()->team->size; }
  int level() override { return cur()->team->level; }

  void set_default_threads(int n) override {
    if (n > 0) default_threads_ = n;
  }
  int default_threads() override { return default_threads_; }

  void set_nested(bool enabled) override { nested_ = enabled; }
  bool nested() override { return nested_; }

  void loop_begin(std::int64_t lo, std::int64_t hi, Schedule sched,
                  std::int64_t chunk) override {
    TaskCtx* c = cur();
    omp::detail::loop_begin(*c->team, *c, lo, hi, sched, chunk,
                            [] { glt::yield(); });
  }

  bool loop_next(std::int64_t* lo, std::int64_t* hi) override {
    TaskCtx* c = cur();
    return omp::detail::loop_next(*c, c->tid, c->team->size, lo, hi);
  }

  void loop_end() override { cur()->loop = nullptr; }

  void barrier() override { barrier_wait(cur()->team); }

  bool single_try() override {
    TaskCtx* c = cur();
    return omp::detail::single_try(*c->team, *c);
  }

  void single_done() override { cur()->in_single = false; }

  void critical_enter(const void* tag) override {
    sched::Mutex* lock;
    {
      common::SpinGuard g(critical_map_lock_);
      lock = &critical_locks_[tag];
    }
    // Contended entry suspends the ULT; unlock hands the mutex FIFO to
    // the oldest waiter (no barging past a parked member).
    lock->lock();
  }

  void critical_exit(const void* tag) override {
    sched::Mutex* lock;
    {
      common::SpinGuard g(critical_map_lock_);
      lock = &critical_locks_[tag];
    }
    lock->unlock();
  }

  void task(omp::TaskDesc desc, const omp::TaskFlags& flags) override {
    TaskCtx* c = cur();
    const bool has_deps = !flags.depend.empty();
    if (!flags.if_clause || flags.final) {
      // Undeferred: run inline in a child context. GLTO executes `final`
      // tasks directly — the behaviour the validation suite rewards
      // (Table I) and the pthread baselines lack. Depend clauses still
      // order it: wait (yielding) until the engine opens the gate.
      tasks_immediate_.fetch_add(1, std::memory_order_relaxed);
      taskdep::TaskNode* node = nullptr;
      if (has_deps) {
        ReadyGate gate;
        auto sub = dep_engine_.submit(&gate, flags.depend.data(),
                                      flags.depend.size(), dep_domain(c));
        node = sub.node;
        // Blocks for real: the completing predecessor's thread sets the
        // event and re-deposits this ULT through the core.
        if (!sub.ready) gate.ready.wait();
      }
      TaskCtx inline_ctx;
      inline_ctx.team = c->team;
      inline_ctx.tid = c->tid;
      inline_ctx.parent = c;
      inline_ctx.group = c->group;
      inline_ctx.is_explicit_task = true;
      glt::set_self_local(&inline_ctx);
      // Cancellation: a member of a cancelled taskgroup skips its body
      // but keeps the full completion protocol (dep release, child wait).
      if (!tg_cancelled(c->group)) desc.run();
      // Release at task completion, before the child wait — same rule as
      // task_thunk: a child depending on this task's own dep object must
      // be releasable here or the wait would block on it forever.
      if (node != nullptr) dep_engine_.complete(node);
      inline_ctx.children.wait();
      glt::set_self_local(c);
      return;
    }
    tasks_queued_.fetch_add(1, std::memory_order_relaxed);
    TaskArg* arg = new_task_arg(c, std::move(desc));
    if (has_deps) {
      // The ULT is NOT created yet: the engine withholds the task until
      // its release counter hits zero, then the completing predecessor's
      // thread spawns it straight onto its own work-stealing deque.
      auto sub = dep_engine_.submit(arg, flags.depend.data(),
                                    flags.depend.size(), dep_domain(c));
      if (!sub.ready) return;  // wake-up owns arg from submit() onward
      arg->node = sub.node;
    }
    spawn(arg, c->in_single || c->in_master ? SpawnVia::producer_rr
                                            : SpawnVia::local);
  }

  /// Batch spawn: the whole burst becomes ULTs deposited into the GLT
  /// scheduler in one bulk call — a producer (single/master) burst fans
  /// out with one queue publication + one targeted wake per GLT_thread
  /// instead of n round-robin submits each broadcasting wakes. Depend,
  /// final and if(false) tasks keep their per-task semantics via task().
  void task_bulk(omp::TaskDesc* descs, std::size_t n,
                 const omp::TaskFlags& flags) override {
    const bool has_deps = !flags.depend.empty();
    if (n < 2 || !flags.if_clause || flags.final || has_deps ||
        sched::chaos_enabled()) {
      // Under chaos the burst degrades to per-task spawns so every unit
      // passes the spawn-fail hook individually.
      for (std::size_t i = 0; i < n; ++i) task(std::move(descs[i]), flags);
      return;
    }
    TaskCtx* c = cur();
    tasks_queued_.fetch_add(n, std::memory_order_relaxed);
    const bool spread = c->in_single || c->in_master;
    constexpr std::size_t kWave = 256;
    void* argv[kWave];
    std::size_t done = 0;
    while (done < n) {
      const std::size_t take = std::min<std::size_t>(kWave, n - done);
      for (std::size_t i = 0; i < take; ++i) {
        argv[i] = new_task_arg(c, std::move(descs[done + i]));
      }
      glt::ult_create_bulk(task_thunk, argv, static_cast<int>(take),
                           /*out=*/nullptr, spread);
      done += take;
    }
  }

  void taskwait() override { cur()->children.wait(); }

  void taskgroup_begin() override {
    TaskCtx* c = cur();
    auto* g = new TgScope();
    g->parent = c->group;
    c->group = g;
  }

  void taskgroup_end() override {
    TaskCtx* c = cur();
    TgScope* g = c->group;
    GLTO_CHECK_MSG(g != nullptr, "taskgroup_end without taskgroup_begin");
    // Wait only for this group's tasks; they also count down c->children,
    // which the next taskwait or the task's end waits out. Blocks
    // outright: the last finishing member's count_down wakes this ULT,
    // and the latch's locked zero-observation protocol makes the delete
    // safe immediately after.
    g->latch.wait();
    c->group = g->parent;
    delete g;
  }

  bool taskgroup_end_for_us(std::int64_t timeout_us) override {
    TaskCtx* c = cur();
    TgScope* g = c->group;
    GLTO_CHECK_MSG(g != nullptr, "taskgroup_end without taskgroup_begin");
    // On timeout the group stays active/open — the caller cancels and
    // drains it.
    if (!g->latch.wait_until(common::now_ns() + timeout_us * 1000)) {
      return false;
    }
    c->group = g->parent;
    delete g;
    return true;
  }

  bool cancel_taskgroup() override {
    TgScope* g = cur()->group;
    if (g == nullptr) return false;
    g->cancelled.store(true, std::memory_order_release);
    sched::trace_emit(sched::TraceKind::cancel,
                      reinterpret_cast<std::uintptr_t>(g));
    return true;
  }

  bool cancellation_requested() override {
    return tg_cancelled(cur()->group);
  }

  bool taskwait_for_us(std::int64_t timeout_us) override {
    // On timeout the children keep running and counting down; the next
    // taskwait (or the task's end) waits for the rest.
    return cur()->children.wait_until(common::now_ns() + timeout_us * 1000);
  }

  omp::TaskStats task_stats() override {
    omp::TaskStats s;
    static_cast<taskdep::Stats&>(s) = dep_engine_.stats();
    return s;
  }

  void taskyield() override { glt::yield(); }

  void yield_hint() override { glt::yield(); }

  const void* task_identity() override { return cur(); }

  omp::Counters counters() override {
    omp::Counters out;
    out.os_threads_created =
        static_cast<std::uint64_t>(glt::num_threads());
    out.ults_created = glt::stats().ults_created - ults_at_reset_;
    out.tasks_queued = tasks_queued_.load(std::memory_order_relaxed);
    out.tasks_immediate = tasks_immediate_.load(std::memory_order_relaxed);
    return out;
  }

  void reset_counters() override {
    ults_at_reset_ = glt::stats().ults_created;
    tasks_queued_.store(0, std::memory_order_relaxed);
    tasks_immediate_.store(0, std::memory_order_relaxed);
  }

 private:
  static TaskCtx* cur() {
    auto* c = static_cast<TaskCtx*>(glt::self_local());
    GLTO_CHECK_MSG(c != nullptr, "GLTO context missing on this ULT");
    return c;
  }

  static void run_member(Team* team, int tid, const omp::RegionBody& body,
                         TaskCtx* parent) {
    TaskCtx ctx;
    ctx.team = team;
    ctx.tid = tid;
    ctx.parent = parent;
    ctx.in_master = tid == 0;  // master thread: producer dispatch applies
    glt::set_self_local(&ctx);
    body(tid, team->size);
    ctx.children.wait();  // implicit-barrier task completion
    glt::set_self_local(parent);
  }

  static void member_thunk(void* p) {
    auto* a = static_cast<MemberArg*>(p);
    TaskCtx ctx;
    ctx.team = a->team;
    ctx.tid = a->tid;
    glt::set_self_local(&ctx);
    a->body(a->tid, a->team->size);
    sched::Pool<MemberArg>::free(a);
    ctx.children.wait();
    ctx.team->members.count_down();  // last access to the master's frame
  }

  /// A task record for a child of @p c, already counted in c->children
  /// (and in its taskgroup, if any).
  TaskArg* new_task_arg(TaskCtx* c, omp::TaskDesc&& desc) {
    TaskArg* arg = sched::Pool<TaskArg>::alloc();
    arg->team = c->team;
    arg->desc = std::move(desc);
    arg->rt = this;
    arg->parent = c;
    arg->group = c->group;
    c->children.add(1);
    if (arg->group != nullptr) arg->group->latch.add(1);
    arg->submit_ns =
        sched::profile_task_submit(reinterpret_cast<std::uintptr_t>(arg));
    return arg;
  }

  static void task_thunk(void* p) {
    auto* a = static_cast<TaskArg*>(p);
    TaskCtx ctx;
    ctx.team = a->team;
    // Executing "thread" id: the GLT_thread this task landed on, mapped
    // into the team (documented deviation: tasks are not bound to one
    // implicit-task member in GLTO).
    ctx.tid = a->team->size > 0
                  ? glt::thread_num() % a->team->size
                  : 0;
    ctx.is_explicit_task = true;
    ctx.parent = a->parent;
    // Taskgroup membership is inherited: tasks this body creates belong to
    // the creator's group (they bump pending before our wait, and we wait
    // them out before our own decrement, so pending cannot hit zero early).
    ctx.group = a->group;
    glt::set_self_local(&ctx);
    // Cancellation: a member of a cancelled taskgroup skips its body but
    // keeps the full completion protocol below, so waits, dep gates, and
    // pending-waits always terminate.
    const std::uint64_t t_start = sched::profile_task_start(
        a->submit_ns, reinterpret_cast<std::uintptr_t>(a));
    if (!tg_cancelled(a->group)) a->desc.run();
    sched::profile_task_complete(t_start,
                                 reinterpret_cast<std::uintptr_t>(a));
    // Dependences release at *task* completion (OpenMP's rule), before the
    // transitive child wait: children submit into their own dependence
    // domain (keyed by this ctx) so they can never gate on this node, and
    // a sibling legitimately depending on it must be releasable here
    // (waiting first would withhold that sibling forever).
    if (a->node != nullptr) a->rt->dep_engine_.complete(a->node);
    ctx.children.wait();
    if (a->group != nullptr) a->group->latch.count_down();
    TaskCtx* parent = a->parent;
    sched::Pool<TaskArg>::free(a);
    parent->children.count_down();  // last access to the creator
  }

  /// Chaos degrade path: runs a fully-initialised TaskArg inline on the
  /// calling context, as if ULT creation had failed. task_thunk installs
  /// the child context but never restores the caller's (a real ULT just
  /// dies with its stack), so save/restore it here.
  static void run_task_inline_now(TaskArg* a) {
    void* saved = glt::self_local();
    task_thunk(a);
    glt::set_self_local(saved);
  }

  /// How a ready task's ULT is placed.
  enum class SpawnVia {
    local,        ///< the caller's own queue (worker submit or dep wake-up)
    producer_rr,  ///< single/master producer: fan out round-robin (§IV-D)
  };

  /// Creates the detached ULT of a ready task: at submit, or for a depend
  /// task via the engine's wake-up on the thread that completed the final
  /// predecessor — landing the task on that thread's own work-stealing
  /// deque.
  static void spawn(TaskArg* arg, SpawnVia via) {
    if (sched::chaos_spawn_fail()) {
      // Injected ULT-creation failure: degrade to inline execution with
      // the full completion protocol.
      run_task_inline_now(arg);
      return;
    }
    int tid = -1;
    if (via == SpawnVia::producer_rr) {
      const auto target =
          arg->team->task_rr.fetch_add(1, std::memory_order_relaxed);
      tid = static_cast<int>(
          target % static_cast<std::uint64_t>(glt::num_threads()));
    }
    glt::ult_create_detached(tid, task_thunk, arg);
  }

  /// Dependency-engine wake-up: runs on the thread that completed the
  /// final predecessor, always inside a GLT context.
  static void on_dep_ready(void* payload, taskdep::TaskNode* node) {
    auto* pl = static_cast<DepPayload*>(payload);
    if (pl->kind == DepPayload::Kind::gate) {
      static_cast<ReadyGate*>(pl)->ready.set();
      return;
    }
    auto* arg = static_cast<TaskArg*>(pl);
    arg->node = node;
    spawn(arg, SpawnVia::local);
  }

  /// Batch wake-up: one completing predecessor released @p n successors
  /// at once. Gates open immediately; the spawn-kind payloads become one
  /// bulk deposit onto the completing thread's own deque (run-local, like
  /// the single wake-up) with targeted wakes — k dependents no longer
  /// serialize on k submit+wake round-trips.
  static void on_deps_ready_batch(void* const* payloads,
                                  taskdep::TaskNode* const* nodes,
                                  std::size_t n) {
    constexpr std::size_t kWave = 64;
    void* wave[kWave];
    std::size_t pending = 0;
    for (std::size_t i = 0; i <= n; ++i) {
      if (i < n) {
        auto* pl = static_cast<DepPayload*>(payloads[i]);
        if (pl->kind == DepPayload::Kind::gate) {
          static_cast<ReadyGate*>(pl)->ready.set();
          continue;
        }
        auto* arg = static_cast<TaskArg*>(pl);
        arg->node = nodes[i];
        wave[pending++] = arg;
        if (pending < kWave) continue;
      }
      if (pending == 0) continue;
      if (pending == 1 || sched::chaos_enabled()) {
        // Under chaos every wake-up goes per-task so each one passes the
        // spawn-fail hook.
        for (std::size_t k = 0; k < pending; ++k) {
          spawn(static_cast<TaskArg*>(wave[k]), SpawnVia::local);
        }
      } else {
        glt::ult_create_bulk(task_thunk, wave, static_cast<int>(pending),
                             /*out=*/nullptr, /*spread=*/false);
      }
      pending = 0;
    }
  }

  static void barrier_wait(Team* t) {
    if (t->size <= 1) return;
    t->barrier.arrive_and_wait();
  }

  std::string name_ = "glto";
  int default_threads_ = 1;
  bool nested_ = true;
  Team root_team_;
  TaskCtx root_ctx_;
  std::uint64_t ults_at_reset_ = 0;
  std::atomic<std::uint64_t> tasks_queued_{0};
  std::atomic<std::uint64_t> tasks_immediate_{0};
  taskdep::DepEngine dep_engine_{&GltoRuntime::on_dep_ready};

  common::SpinLock critical_map_lock_;
  std::map<const void*, sched::Mutex> critical_locks_;
};

}  // namespace

std::unique_ptr<omp::Runtime> make_glto_runtime(const GltoOptions& opts) {
  auto rt = std::make_unique<GltoRuntime>(opts);
  rt->set_name(std::string("glto-") + glt::impl_name(opts.impl));
  return rt;
}

}  // namespace glto::rt
