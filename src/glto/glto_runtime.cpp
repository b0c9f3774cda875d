#include "glto/glto_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "common/affinity.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/spin.hpp"
#include "common/time.hpp"
#include "omp/task_support.hpp"
#include "sched/chaos.hpp"
#include "sched/freelist.hpp"
#include "sched/metrics.hpp"
#include "sched/sync.hpp"
#include "sched/trace.hpp"
#include "taskdep/taskdep.hpp"

namespace glto::rt {

namespace {

using omp::Schedule;

constexpr int kLoopRing = 8;  ///< concurrent nowait loop descriptors per team

/// One work-sharing loop instance shared by a team.
struct LoopDesc {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t chunk = 0;
  Schedule sched = Schedule::Static;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::uint64_t> ready_seq{0};  ///< loop instance published
};

struct TaskCtx;

using omp::detail::DepPayload;
using omp::detail::ReadyGate;
using omp::detail::tg_cancelled;
using omp::detail::TgScope;

/// A parallel team: fixed membership, barrier, single/loop bookkeeping.
struct Team {
  int size = 1;
  int level = 0;
  Team* parent = nullptr;

  // Blocking team barrier: non-last arrivers park on the wait list (their
  // GLT_thread runs sibling ULTs meanwhile), the last arriver wakes the
  // flock through the core's targeted-wake path — no sleep quantum.
  sched::Barrier barrier;

  // single construct arbitration (see single_try()).
  std::atomic<std::uint64_t> single_claimed{0};

  // Work-sharing loop instances (ring buffer, nowait-tolerant).
  LoopDesc loops[kLoopRing];
  std::atomic<std::uint64_t> loops_inited{0};

  // Round-robin cursor for producer-pattern task dispatch (§IV-D).
  std::atomic<std::uint64_t> task_rr{0};
};

/// Execution context of an implicit or explicit OpenMP task. Lives on the
/// executing ULT's stack; reachable via glt::self_local(), so it follows
/// the ULT across suspensions and (mth) steals.
struct TaskCtx {
  Team* team = nullptr;
  int tid = 0;
  TaskCtx* parent = nullptr;
  /// Explicit-task context: thread_num() reports the *executing*
  /// GLT_thread live (it changes when a stealing backend migrates the
  /// task — what omp_get_thread_num requires and the untied validation
  /// tests observe).
  bool is_explicit_task = false;

  // Outstanding child-task ULT handles (creator-owned; see header note).
  common::SpinLock child_lock;
  std::vector<glt::Ult*> children;
  /// Dependent children the engine is still withholding: submitted, but
  /// their ULT not yet created. join/taskwait must wait these out too —
  /// the wake-up pushes the handle into `children` before counting down.
  sched::CompletionLatch deferred;
  /// Innermost active taskgroup of this task (nullptr outside groups).
  TgScope* group = nullptr;

  // Per-member construct counters.
  std::uint64_t single_seq = 0;
  std::uint64_t loop_seq = 0;

  // Active loop state.
  LoopDesc* loop = nullptr;
  std::int64_t static_k = 0;  ///< next static chunk index for this member

  // Producer-pattern detection for task dispatch.
  bool in_single = false;
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

/// Argument block for team-member ULT thunks. RegionBody is non-owning:
/// the forking caller's frame outlives the join.
struct MemberArg {
  Team* team;
  int tid;
  omp::RegionBody body;
};

class GltoRuntime;

/// Per-task record carrying the v2 descriptor through deferral and the
/// dependency engine (DepPayload rides the descriptor). Recycled through
/// a process-wide freelist — after warm-up, spawning a task with a small
/// trivially-copyable capture touches no allocator at all.
struct TaskArg : DepPayload {
  TaskArg() : DepPayload{Kind::spawn} {}
  Team* team = nullptr;
  omp::TaskDesc desc;
  GltoRuntime* rt = nullptr;
  TaskCtx* parent = nullptr;            ///< creator (outlives us: it joins)
  TgScope* group = nullptr;             ///< enclosing taskgroup, if any
  taskdep::TaskNode* node = nullptr;    ///< non-null for depend tasks
  std::uint64_t submit_ns = 0;          ///< latency profiling stamp (0 = off)
};

/// TaskArg recycling: per-OS-thread lists keyed by detail::record_rank()
/// (unique across runtime instances), locked shared slab beyond that.
sched::Freelist<TaskArg>& arg_pool() {
  static sched::Freelist<TaskArg> pool(omp::detail::kRecordPoolWorkers);
  return pool;
}

TaskArg* alloc_task_arg() {
  if (TaskArg* a = arg_pool().try_alloc(omp::detail::record_rank())) return a;
  return new TaskArg();
}

void free_task_arg(TaskArg* a) {
  a->team = nullptr;
  a->desc = omp::TaskDesc();  // already consumed by run(); stay empty
  a->rt = nullptr;
  a->parent = nullptr;
  a->group = nullptr;
  a->node = nullptr;
  a->submit_ns = 0;
  arg_pool().recycle(omp::detail::record_rank(), a);
}

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
    std::vector<MemberArg> args(static_cast<std::size_t>(nth));
    std::vector<glt::Ult*> ults;
    ults.reserve(static_cast<std::size_t>(nth > 0 ? nth - 1 : 0));
    const int glt_n = glt::num_threads();
    for (int i = 1; i < nth; ++i) {
      args[static_cast<std::size_t>(i)] = MemberArg{&team, i, body};
      glt::Ult* u =
          outer ? glt::ult_create_to(i % glt_n, member_thunk,
                                     &args[static_cast<std::size_t>(i)])
                : glt::ult_create(member_thunk,
                                  &args[static_cast<std::size_t>(i)]);
      ults.push_back(u);
    }

    // Master executes member 0 inline, then joins (implicit barrier).
    run_member(&team, 0, body, pctx);
    for (auto* u : ults) glt::ult_join(u);
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
    Team* t = c->team;
    const std::uint64_t seq = c->loop_seq++;
    LoopDesc& d = t->loops[seq % kLoopRing];
    std::uint64_t expected = seq;
    if (t->loops_inited.compare_exchange_strong(expected, seq + 1,
                                                std::memory_order_acq_rel)) {
      d.lo = lo;
      d.hi = hi;
      d.sched = sched;
      d.chunk = chunk;
      d.next.store(lo, std::memory_order_relaxed);
      d.ready_seq.store(seq + 1, std::memory_order_release);
    } else {
      while (d.ready_seq.load(std::memory_order_acquire) < seq + 1) {
        glt::yield();
      }
    }
    c->loop = &d;
    c->static_k = 0;
  }

  bool loop_next(std::int64_t* lo, std::int64_t* hi) override {
    TaskCtx* c = cur();
    LoopDesc* d = c->loop;
    GLTO_CHECK_MSG(d != nullptr, "loop_next outside a loop construct");
    const std::int64_t n = d->hi - d->lo;
    if (n <= 0) return false;
    const int p = c->team->size;
    switch (d->sched) {
      case Schedule::Auto:
      case Schedule::Runtime:  // resolved by the facade; fall back safely
      case Schedule::Static: {
        if (d->chunk <= 0) {
          // One balanced block per member.
          if (c->static_k > 0) return false;
          const std::int64_t base = n / p, rem = n % p;
          const std::int64_t b =
              d->lo + c->tid * base + std::min<std::int64_t>(c->tid, rem);
          const std::int64_t e = b + base + (c->tid < rem ? 1 : 0);
          if (b >= e) return false;
          *lo = b;
          *hi = e;
          c->static_k = 1;
          return true;
        }
        // Round-robin chunks: tid, tid+p, tid+2p, ...
        const std::int64_t idx = c->tid + c->static_k * p;
        const std::int64_t b = d->lo + idx * d->chunk;
        if (b >= d->hi) return false;
        *lo = b;
        *hi = std::min(d->hi, b + d->chunk);
        c->static_k++;
        return true;
      }
      case Schedule::Dynamic: {
        const std::int64_t step = d->chunk > 0 ? d->chunk : 1;
        const std::int64_t b =
            d->next.fetch_add(step, std::memory_order_relaxed);
        if (b >= d->hi) return false;
        *lo = b;
        *hi = std::min(d->hi, b + step);
        return true;
      }
      case Schedule::Guided: {
        const std::int64_t min_chunk = d->chunk > 0 ? d->chunk : 1;
        std::int64_t b = d->next.load(std::memory_order_relaxed);
        for (;;) {
          if (b >= d->hi) return false;
          const std::int64_t remaining = d->hi - b;
          const std::int64_t take =
              std::max<std::int64_t>(min_chunk, remaining / (2 * p));
          if (d->next.compare_exchange_weak(b, b + take,
                                            std::memory_order_relaxed)) {
            *lo = b;
            *hi = std::min(d->hi, b + take);
            return true;
          }
        }
      }
    }
    return false;
  }

  void loop_end() override { cur()->loop = nullptr; }

  void barrier() override { barrier_wait(cur()->team); }

  bool single_try() override {
    TaskCtx* c = cur();
    const std::uint64_t mine = ++c->single_seq;
    std::uint64_t expected = mine - 1;
    if (c->team->single_claimed.compare_exchange_strong(
            expected, mine, std::memory_order_acq_rel)) {
      c->in_single = true;
      return true;
    }
    return false;
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
      // but keeps the full completion protocol (dep release, child join).
      if (!tg_cancelled(c->group)) desc.run();
      // Release at task completion, before the child join — same rule as
      // task_thunk: a child depending on this task's own dep object must
      // be releasable here or the join would spin on it forever.
      if (node != nullptr) dep_engine_.complete(node);
      join_children(&inline_ctx);
      glt::set_self_local(c);
      return;
    }
    tasks_queued_.fetch_add(1, std::memory_order_relaxed);
    TaskArg* arg = alloc_task_arg();
    arg->team = c->team;
    arg->desc = std::move(desc);
    arg->rt = this;
    arg->parent = c;
    arg->group = c->group;
    arg->submit_ns =
        sched::profile_task_submit(reinterpret_cast<std::uintptr_t>(arg));
    if (arg->group != nullptr) arg->group->latch.add(1);
    if (has_deps) {
      // The ULT is NOT created yet: the engine withholds the task until
      // its release counter hits zero, then the completing predecessor's
      // thread spawns it straight onto its own work-stealing deque.
      c->deferred.add(1);
      auto sub = dep_engine_.submit(arg, flags.depend.data(),
                                    flags.depend.size(), dep_domain(c));
      if (!sub.ready) return;  // wake-up owns arg from submit() onward
      arg->node = sub.node;
      spawn_dep_task(arg, c->in_single || c->in_master
                              ? SpawnVia::producer_rr
                              : SpawnVia::local);
      return;
    }
    if (sched::chaos_spawn_fail()) {
      // Injected ULT-creation failure: degrade to inline execution. The
      // thunk runs the full completion protocol on the caller's context;
      // no handle to join, so nothing is pushed to children.
      run_task_inline_now(arg);
      return;
    }
    glt::Ult* u;
    if (c->in_single || c->in_master) {
      // Producer pattern (§IV-D): one context creates all tasks; dispatch
      // round-robin so every GLT_thread consumes.
      const auto target = c->team->task_rr.fetch_add(
          1, std::memory_order_relaxed);
      u = glt::ult_create_to(
          static_cast<int>(target %
                           static_cast<std::uint64_t>(glt::num_threads())),
          task_thunk, arg);
    } else {
      u = glt::ult_create(task_thunk, arg);
    }
    common::SpinGuard g(c->child_lock);
    c->children.push_back(u);
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
    glt::Ult* handles[kWave];
    std::size_t done = 0;
    while (done < n) {
      const std::size_t take = std::min<std::size_t>(kWave, n - done);
      for (std::size_t i = 0; i < take; ++i) {
        TaskArg* arg = alloc_task_arg();
        arg->team = c->team;
        arg->desc = std::move(descs[done + i]);
        arg->rt = this;
        arg->parent = c;
        arg->group = c->group;
        if (arg->group != nullptr) arg->group->latch.add(1);
        arg->submit_ns = sched::profile_task_submit(
            reinterpret_cast<std::uintptr_t>(arg));
        argv[i] = arg;
      }
      glt::ult_create_bulk(task_thunk, argv, static_cast<int>(take),
                           handles, spread);
      {
        common::SpinGuard g(c->child_lock);
        c->children.insert(c->children.end(), handles, handles + take);
      }
      done += take;
    }
  }

  void taskwait() override { join_children(cur()); }

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
    // Wait only for this group's tasks; their ULT handles stay in
    // c->children and are joined (already Done) at the next taskwait or
    // the implicit region join. Blocks outright: the last finishing
    // member's count_down wakes this ULT, and the latch's locked
    // zero-observation protocol makes the delete safe immediately after.
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
    return join_children_until(cur(), /*timed=*/true,
                               common::now_ns() + timeout_us * 1000);
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
    join_children(&ctx);  // implicit-barrier task completion
    glt::set_self_local(parent);
  }

  static void member_thunk(void* p) {
    auto* a = static_cast<MemberArg*>(p);
    TaskCtx ctx;
    ctx.team = a->team;
    ctx.tid = a->tid;
    glt::set_self_local(&ctx);
    a->body(a->tid, a->team->size);
    join_children(&ctx);
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
    // the creator's group (they bump pending before our join, and we join
    // them before our own decrement, so pending cannot hit zero early).
    ctx.group = a->group;
    glt::set_self_local(&ctx);
    // Cancellation: a member of a cancelled taskgroup skips its body but
    // keeps the full completion protocol below, so joins, dep gates, and
    // pending-waits always terminate.
    const std::uint64_t t_start = sched::profile_task_start(
        a->submit_ns, reinterpret_cast<std::uintptr_t>(a));
    if (!tg_cancelled(a->group)) a->desc.run();
    sched::profile_task_complete(t_start,
                                 reinterpret_cast<std::uintptr_t>(a));
    // Dependences release at *task* completion (OpenMP's rule), before the
    // transitive child join: children submit into their own dependence
    // domain (keyed by this ctx) so they can never gate on this node, and
    // a sibling legitimately depending on it must be releasable here
    // (joining first would withhold that sibling forever).
    if (a->node != nullptr) a->rt->dep_engine_.complete(a->node);
    join_children(&ctx);
    if (a->group != nullptr) a->group->latch.count_down();
    free_task_arg(a);
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

  /// How a ready depend task's ULT is placed.
  enum class SpawnVia {
    local,        ///< the caller's own queue (worker submit or dep wake-up)
    producer_rr,  ///< submit-time ready, single/master producer: fan out
  };

  /// Creates the ULT of a depend task whose release counter reached zero
  /// (at submit, or via the engine's wake-up on the thread that completed
  /// the final predecessor — landing the task on that thread's own
  /// work-stealing deque). Pushes the handle before decrementing
  /// `deferred` so join_children cannot miss it.
  void spawn_dep_task(TaskArg* arg, SpawnVia via) {
    // Everything needed after the create goes to locals FIRST: work-first
    // backends (mth) run the task to completion inside ult_create, and
    // task_thunk deletes arg when it finishes.
    TaskCtx* parent = arg->parent;
    if (sched::chaos_spawn_fail()) {
      // Injected ULT-creation failure on the dependency release path: the
      // task runs inline on the releasing thread. No handle to publish;
      // the decrement comes after full completion, so a join that reads
      // deferred==0 has nothing left to wait for.
      run_task_inline_now(arg);
      parent->deferred.count_down();
      return;
    }
    Team* team = arg->team;
    glt::Ult* u;
    if (via == SpawnVia::producer_rr) {
      const auto target =
          team->task_rr.fetch_add(1, std::memory_order_relaxed);
      u = glt::ult_create_to(
          static_cast<int>(target %
                           static_cast<std::uint64_t>(glt::num_threads())),
          task_thunk, arg);
    } else {
      u = glt::ult_create(task_thunk, arg);
    }
    {
      common::SpinGuard g(parent->child_lock);
      parent->children.push_back(u);
    }
    parent->deferred.count_down();
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
    arg->rt->spawn_dep_task(arg, SpawnVia::local);
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
    TaskArg* wave[kWave];
    TaskCtx* parents[kWave];
    void* argv[kWave];
    glt::Ult* handles[kWave];
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
          wave[k]->rt->spawn_dep_task(wave[k], SpawnVia::local);
        }
        pending = 0;
        continue;
      }
      // Snapshot creator pointers BEFORE the create: a deposited task can
      // run to completion (and free its arg) on another thread while this
      // loop is still publishing handles.
      for (std::size_t k = 0; k < pending; ++k) {
        parents[k] = wave[k]->parent;
        argv[k] = wave[k];
      }
      glt::ult_create_bulk(task_thunk, argv, static_cast<int>(pending),
                           handles, /*spread=*/false);
      for (std::size_t k = 0; k < pending; ++k) {
        {
          common::SpinGuard g(parents[k]->child_lock);
          parents[k]->children.push_back(handles[k]);
        }
        parents[k]->deferred.count_down();
      }
      pending = 0;
    }
  }

  static void join_children(TaskCtx* c) {
    (void)join_children_until(c, /*timed=*/false, {});
  }

  /// Child join, optionally bounded by @p deadline_ns. Untimed mode joins
  /// everything: ult_join parks on in-flight children, and while the
  /// dependency engine still withholds children the join parks on
  /// `deferred` until their handles are published. Timed mode only reaps
  /// children that have already finished (glt::ult_is_done) — a blocking
  /// ult_join could overshoot the budget by the child's whole runtime —
  /// and sleeps through backoff_until between reaps, returning false at
  /// the deadline; unfinished children go back into c->children and are
  /// joined by the next untimed wait, so a timed-out join leaves the task
  /// tree fully consistent.
  static bool join_children_until(TaskCtx* c, bool timed,
                                  std::int64_t deadline_ns) {
    // Reap cadence of a timed join: short against a task's runtime, long
    // against one park.
    constexpr std::int64_t kReapNs = 50'000;
    for (;;) {
      std::vector<glt::Ult*> grabbed;
      {
        common::SpinGuard g(c->child_lock);
        grabbed.swap(c->children);
      }
      if (!grabbed.empty()) {
        bool progressed = false;
        if (!timed) {
          for (auto* u : grabbed) glt::ult_join(u);
          // Hand the drained buffer back so the next wave reuses its
          // capacity instead of regrowing from zero — unless a dependence
          // wake-up pushed a handle meanwhile (then that buffer stays).
          grabbed.clear();
          {
            common::SpinGuard g(c->child_lock);
            if (c->children.empty()) c->children.swap(grabbed);
          }
          progressed = true;
        } else {
          std::vector<glt::Ult*> keep;
          for (auto* u : grabbed) {
            if (glt::ult_is_done(u)) {
              glt::ult_join(u);  // already Done: reclaim, never blocks long
              progressed = true;
            } else {
              keep.push_back(u);
            }
          }
          if (!keep.empty()) {
            common::SpinGuard g(c->child_lock);
            c->children.insert(c->children.end(), keep.begin(), keep.end());
          }
        }
        if (progressed) continue;
      } else if (c->deferred.try_wait()) {
        // A wake-up pushes the child handle *before* counting down
        // `deferred`, so after observing zero one locked re-check suffices.
        common::SpinGuard g(c->child_lock);
        if (c->children.empty()) return true;
        continue;
      } else if (!timed) {
        c->deferred.wait();  // withheld children: park until published
        continue;
      }
      const std::int64_t now = common::now_ns();
      if (now >= deadline_ns) return false;
      sched::backoff_until(std::min(deadline_ns, now + kReapNs));
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
