#include "pomp/pomp_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "omp/task_support.hpp"
#include "sched/chaos.hpp"
#include "sched/locked_queue.hpp"
#include "sched/metrics.hpp"
#include "sched/pool.hpp"
#include "sched/trace.hpp"
#include "sched/watchdog.hpp"
#include "taskdep/taskdep.hpp"

namespace glto::pomp {

namespace {

using omp::Schedule;

struct TaskCtx;
class PompRuntime;

using omp::detail::DepPayload;
using omp::detail::ReadyGate;
using omp::detail::tg_cancelled;
using omp::detail::TgScope;

/// Dependence-domain key: the creating task's context address (same rule
/// as GLTO — dependences scope per creating task, so a child naming its
/// parent's dep object never gates on the parent's open node).
[[nodiscard]] std::uintptr_t dep_domain(const TaskCtx* c) {
  return reinterpret_cast<std::uintptr_t>(c);
}

/// RAII watchdog bracket for pomp's helping wait loops: they spin rather
/// than park, so they register as waiters here (a parked wait registers
/// itself in sched::sync_detail::park_current).
struct WatchdogWaitScope {
  WatchdogWaitScope() { sched::watchdog_enter_wait(); }
  ~WatchdogWaitScope() { sched::watchdog_exit_wait(); }
  WatchdogWaitScope(const WatchdogWaitScope&) = delete;
  WatchdogWaitScope& operator=(const WatchdogWaitScope&) = delete;
};

/// A deferred explicit task: the v2 descriptor rides through the queues
/// and the dependency engine (DepPayload header). Records recycle through
/// sched::Pool.
struct TaskRec : DepPayload {
  TaskRec() : DepPayload{Kind::spawn} {}
  omp::TaskDesc desc;
  TaskCtx* creator = nullptr;
  struct PompTeam* team = nullptr;
  bool untied = false;
  bool final = false;
  TgScope* group = nullptr;           ///< enclosing taskgroup, if any
  taskdep::TaskNode* node = nullptr;  ///< non-null for depend tasks
  std::uint64_t submit_ns = 0;        ///< latency profiling stamp (0 = off)
};

struct PompTeam : omp::detail::TeamShare {
  int size = 1;
  int level = 0;
  PompTeam* parent = nullptr;
  PompRuntime* rt = nullptr;

  std::atomic<int> barrier_arrived{0};
  std::atomic<std::uint64_t> barrier_epoch{0};

  /// Deferred tasks belonging to this region, not yet finished.
  std::atomic<std::int64_t> tasks_outstanding{0};

  // GNU: one shared task queue for the whole team.
  sched::LockedQueue<TaskRec*> shared_queue;
  // Intel: bounded per-member deques (created on demand by the runtime).
  std::vector<std::unique_ptr<sched::BoundedDeque<TaskRec*>>> deques;
};

/// Execution context of an implicit or explicit task on a pthread.
/// pthread-based runtimes never migrate running tasks, so a plain
/// thread_local current pointer suffices.
struct TaskCtx : omp::detail::MemberShare {
  PompTeam* team = nullptr;
  int tid = 0;
  TaskCtx* parent = nullptr;
  std::atomic<std::int64_t> children_outstanding{0};
  bool in_master = false;
  TgScope* group = nullptr;  ///< innermost active taskgroup of this task
};

thread_local TaskCtx* t_ctx = nullptr;

/// enqueue_ready's deque-full fallback state (see its comment).
thread_local bool t_in_ready_fallback = false;
thread_local std::vector<TaskRec*> t_ready_spill;

/// Work order handed to a pooled/spawned worker thread. RegionBody is
/// non-owning: the forking caller's frame outlives the region.
struct Assignment {
  PompTeam* team = nullptr;
  int tid = 0;
  omp::RegionBody body;
  std::atomic<int>* remaining = nullptr;  // members still running
};

/// A pooled worker pthread. Parks between assignments.
struct Worker {
  std::thread thread;
  std::mutex m;
  std::condition_variable cv;
  Assignment* assignment = nullptr;  // guarded by m
  bool die = false;                  // guarded by m
  int bind_rank = -1;
};

class PompRuntime : public omp::Runtime {
 public:
  explicit PompRuntime(const PompOptions& opts, bool reuse_nested_threads)
      : reuse_nested_(reuse_nested_threads) {
    default_threads_ =
        opts.num_threads > 0
            ? opts.num_threads
            : static_cast<int>(common::env_i64(
                  "OMP_NUM_THREADS", common::hardware_concurrency()));
    nested_ = opts.nested;
    bind_ = opts.bind_threads;
    active_wait_ = opts.active_wait;
    cutoff_ = opts.task_cutoff > 0 ? opts.task_cutoff : 256;

    root_team_.size = 1;
    root_team_.level = 0;
    root_team_.rt = this;
    root_ctx_.team = &root_team_;
    root_ctx_.tid = 0;
    t_ctx = &root_ctx_;
    {
      common::SpinGuard g(teams_lock_);
      live_teams_.push_back(&root_team_);
    }
    // Stall-dump coverage: without this, a watchdog expiry under a pomp
    // runtime reported only WsCore state (i.e. nothing) — register a
    // dumper so queue depths and in-flight counts make it into the dump.
    watchdog_token_ = sched::watchdog_register_dumper(dump_task_state, this);
  }

  ~PompRuntime() override {
    sched::watchdog_unregister_dumper(watchdog_token_);
    t_ctx = nullptr;
    // Retire every pooled worker.
    std::vector<std::unique_ptr<Worker>> all;
    {
      common::SpinGuard g(pool_lock_);
      all.swap(free_workers_);
    }
    for (auto& w : all) retire(std::move(w));
  }

  // ---- region management -------------------------------------------------

  void parallel(int nthreads, omp::RegionBody body) override {
    TaskCtx* pctx = t_ctx;
    int nth = nthreads > 0 ? nthreads : default_threads_;
    const int new_level = pctx->team->level + 1;
    if (!nested_ && new_level > 1) nth = 1;

    PompTeam team;
    team.size = nth;
    team.level = new_level;
    team.parent = pctx->team;
    team.rt = this;
    init_task_storage(team);
    {
      common::SpinGuard g(teams_lock_);
      live_teams_.push_back(&team);
    }

    std::atomic<int> remaining{nth - 1};
    std::vector<Assignment> assigns(static_cast<std::size_t>(nth));
    std::vector<std::unique_ptr<Worker>> engaged;
    const bool fresh_only = new_level > 1 && !reuse_nested_;
    for (int i = 1; i < nth; ++i) {
      auto& a = assigns[static_cast<std::size_t>(i)];
      a = Assignment{&team, i, body, &remaining};
      engaged.push_back(engage_worker(&a, fresh_only, i));
    }

    run_member(&team, 0, body, pctx);

    // Implicit barrier: wait for every member, helping with tasks.
    {
      WatchdogWaitScope wd;
      while (remaining.load(std::memory_order_acquire) > 0) {
        if (!try_run_one_task(&team)) wait_relax();
      }
      while (team.tasks_outstanding.load(std::memory_order_acquire) > 0) {
        if (!try_run_one_task(&team)) wait_relax();
      }
    }

    for (auto& w : engaged) {
      if (fresh_only) {
        retire(std::move(w));  // GNU nested: destroy, never reuse
      } else {
        common::SpinGuard g(pool_lock_);
        free_workers_.push_back(std::move(w));
      }
    }
    {
      // The team object dies with this frame; drop it from the dump set.
      common::SpinGuard g(teams_lock_);
      for (auto it = live_teams_.begin(); it != live_teams_.end(); ++it) {
        if (*it == &team) {
          live_teams_.erase(it);
          break;
        }
      }
    }
  }

  int thread_num() override { return t_ctx->tid; }
  int team_size() override { return t_ctx->team->size; }
  int level() override { return t_ctx->team->level; }

  void set_default_threads(int n) override {
    if (n > 0) default_threads_ = n;
  }
  int default_threads() override { return default_threads_; }
  void set_nested(bool enabled) override { nested_ = enabled; }
  bool nested() override { return nested_; }

  // ---- work-sharing loops (same arbitration as GLTO) ----------------------

  void loop_begin(std::int64_t lo, std::int64_t hi, Schedule sched,
                  std::int64_t chunk) override {
    TaskCtx* c = t_ctx;
    omp::detail::loop_begin(*c->team, *c, lo, hi, sched, chunk,
                            [this] { wait_relax(); });
  }

  bool loop_next(std::int64_t* lo, std::int64_t* hi) override {
    TaskCtx* c = t_ctx;
    return omp::detail::loop_next(*c, c->tid, c->team->size, lo, hi);
  }

  void loop_end() override { t_ctx->loop = nullptr; }

  // ---- synchronization ----------------------------------------------------

  void barrier() override {
    PompTeam* t = t_ctx->team;
    if (t->size <= 1) return;
    WatchdogWaitScope wd;
    const std::uint64_t epoch =
        t->barrier_epoch.load(std::memory_order_acquire);
    if (t->barrier_arrived.fetch_add(1, std::memory_order_acq_rel) ==
        t->size - 1) {
      // Last arriver: drain this region's tasks, then release.
      while (t->tasks_outstanding.load(std::memory_order_acquire) > 0) {
        if (!try_run_one_task(t)) wait_relax();
      }
      t->barrier_arrived.store(0, std::memory_order_relaxed);
      t->barrier_epoch.fetch_add(1, std::memory_order_release);
    } else {
      // OpenMP threads execute queued tasks while waiting at barriers.
      while (t->barrier_epoch.load(std::memory_order_acquire) == epoch) {
        if (!try_run_one_task(t)) wait_relax();
      }
    }
  }

  bool single_try() override {
    TaskCtx* c = t_ctx;
    return omp::detail::single_try(*c->team, *c);
  }

  void single_done() override { t_ctx->in_single = false; }

  void critical_enter(const void* tag) override {
    common::SpinLock* lock;
    {
      common::SpinGuard g(critical_map_lock_);
      lock = &critical_locks_[tag];
    }
    while (!lock->try_lock()) wait_relax();
  }

  void critical_exit(const void* tag) override {
    common::SpinGuard g(critical_map_lock_);
    critical_locks_[tag].unlock();
  }

  // ---- tasks ---------------------------------------------------------------

  void task(omp::TaskDesc desc, const omp::TaskFlags& flags) override {
    TaskCtx* c = t_ctx;
    const bool has_deps = !flags.depend.empty();
    if (!flags.if_clause) {
      if (has_deps) {
        // Undeferred with deps: help run tasks until the gate opens, then
        // execute inline (the pthread analog of GLTO's yielding gate).
        ReadyGate gate;
        auto sub = dep_engine_.submit(&gate, flags.depend.data(),
                                      flags.depend.size(), dep_domain(c));
        if (!sub.ready) {
          // is_set_locked, not is_set: the gate dies with this frame, so
          // the open observation must serialize past the setter's last
          // access to it (Event destruction protocol).
          while (!gate.ready.is_set_locked()) {
            if (!try_run_one_task(c->team)) wait_relax();
          }
        }
        run_inline(c, std::move(desc), sub.node);
        return;
      }
      run_inline(c, std::move(desc));
      return;
    }
    TaskRec* rec = sched::Pool<TaskRec>::alloc();
    rec->desc = std::move(desc);
    rec->creator = c;
    rec->team = c->team;
    rec->untied = flags.untied;
    rec->final = flags.final;
    rec->group = c->group;
    if (rec->group != nullptr) {
      rec->group->latch.add(1);
    }
    rec->submit_ns =
        sched::profile_task_submit(reinterpret_cast<std::uintptr_t>(rec));
    c->children_outstanding.fetch_add(1, std::memory_order_relaxed);
    c->team->tasks_outstanding.fetch_add(1, std::memory_order_relaxed);
    if (has_deps) {
      auto sub = dep_engine_.submit(rec, flags.depend.data(),
                                    flags.depend.size(), dep_domain(c));
      // Unmet predecessors: the task is withheld from every queue (it is
      // already counted in children/tasks_outstanding, so taskwait and
      // barriers wait for it); the wake-up enqueues it natively and owns
      // rec — including the node field — from submit() onward.
      if (!sub.ready) return;
      rec->node = sub.node;
    }
    // Note: `final` tasks are enqueued like any other — neither baseline
    // short-circuits them (the Table I omp_task_final failure).
    if (!enqueue(c, rec)) {
      // Intel cut-off: deque full → execute immediately (undeferred).
      tasks_immediate_.fetch_add(1, std::memory_order_relaxed);
      execute(rec);
      return;
    }
    tasks_queued_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Batch spawn: builds the records up front, bumps the outstanding
  /// counters once per wave, and hands the whole set to the subclass's
  /// enqueue_bulk — the GNU runtime appends a burst under ONE shared-queue
  /// lock acquisition instead of n. Depend and if(false) tasks keep their
  /// per-task semantics via task().
  void task_bulk(omp::TaskDesc* descs, std::size_t n,
                 const omp::TaskFlags& flags) override {
    const bool has_deps = !flags.depend.empty();
    if (n < 2 || !flags.if_clause || has_deps) {
      for (std::size_t i = 0; i < n; ++i) task(std::move(descs[i]), flags);
      return;
    }
    TaskCtx* c = t_ctx;
    constexpr std::size_t kWave = 256;
    TaskRec* wave[kWave];
    std::size_t done = 0;
    while (done < n) {
      const std::size_t take = std::min<std::size_t>(kWave, n - done);
      for (std::size_t i = 0; i < take; ++i) {
        TaskRec* rec = sched::Pool<TaskRec>::alloc();
        rec->desc = std::move(descs[done + i]);
        rec->creator = c;
        rec->team = c->team;
        rec->untied = flags.untied;
        rec->final = flags.final;
        rec->group = c->group;
        if (rec->group != nullptr) {
          rec->group->latch.add(1);
        }
        rec->submit_ns = sched::profile_task_submit(
            reinterpret_cast<std::uintptr_t>(rec));
        wave[i] = rec;
      }
      c->children_outstanding.fetch_add(static_cast<std::int64_t>(take),
                                        std::memory_order_relaxed);
      c->team->tasks_outstanding.fetch_add(static_cast<std::int64_t>(take),
                                           std::memory_order_relaxed);
      enqueue_bulk(c, wave, take);
      done += take;
    }
  }

  void taskwait() override {
    TaskCtx* c = t_ctx;
    WatchdogWaitScope wd;
    while (c->children_outstanding.load(std::memory_order_acquire) > 0) {
      if (!try_run_one_task(c->team)) wait_relax();
    }
  }

  bool taskwait_for_us(std::int64_t timeout_us) override {
    TaskCtx* c = t_ctx;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    WatchdogWaitScope wd;
    while (c->children_outstanding.load(std::memory_order_acquire) > 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      // Unlike the untimed taskwait, a timed wait must NOT help-run
      // tasks: a helped body is unpreemptible, so one long child blows
      // the deadline unboundedly — and a child that polls a flag this
      // thread sets after the wait would deadlock against its own
      // waiter. Team members at barriers keep executing tasks; this
      // thread waits idly, bounded.
      wait_relax();
    }
    return true;
  }

  void taskgroup_begin() override {
    TaskCtx* c = t_ctx;
    auto* g = new TgScope();
    g->parent = c->group;
    c->group = g;
  }

  void taskgroup_end() override {
    TaskCtx* c = t_ctx;
    TgScope* g = c->group;
    GLTO_CHECK_MSG(g != nullptr, "taskgroup_end without taskgroup_begin");
    WatchdogWaitScope wd;
    while (!g->latch.try_wait()) {
      if (!try_run_one_task(c->team)) wait_relax();
    }
    c->group = g->parent;
    delete g;
  }

  bool taskgroup_end_for_us(std::int64_t timeout_us) override {
    TaskCtx* c = t_ctx;
    TgScope* g = c->group;
    GLTO_CHECK_MSG(g != nullptr, "taskgroup_end without taskgroup_begin");
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    WatchdogWaitScope wd;
    while (!g->latch.try_wait()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;  // group stays active/open: caller cancels + drains
      }
      // No inline helping while the deadline is live (see taskwait_for_us:
      // a helped member polling its cancellation point would deadlock
      // against the thread that cancels it at expiry). The post-cancel
      // drain — the untimed taskgroup_end — helps as usual.
      wait_relax();
    }
    c->group = g->parent;
    delete g;
    return true;
  }

  bool cancel_taskgroup() override {
    TgScope* g = t_ctx->group;
    if (g == nullptr) return false;
    g->cancelled.store(true, std::memory_order_release);
    sched::trace_emit(sched::TraceKind::cancel,
                      reinterpret_cast<std::uintptr_t>(g));
    return true;
  }

  bool cancellation_requested() override {
    return tg_cancelled(t_ctx->group);
  }

  omp::TaskStats task_stats() override {
    omp::TaskStats s;
    static_cast<taskdep::Stats&>(s) = dep_engine_.stats();
    return s;
  }

  void taskyield() override {
    // Tied pthread tasks cannot migrate; the best a baseline can do is run
    // another queued task in place (GOMP/Intel behave the same way).
    try_run_one_task(t_ctx->team);
  }

  void yield_hint() override { wait_relax(); }

  const void* task_identity() override { return t_ctx; }

  // ---- counters -------------------------------------------------------------

  omp::Counters counters() override {
    omp::Counters out;
    out.os_threads_created =
        threads_created_.load(std::memory_order_relaxed);
    out.os_threads_reused = threads_reused_.load(std::memory_order_relaxed);
    out.tasks_queued = tasks_queued_.load(std::memory_order_relaxed);
    out.tasks_immediate = tasks_immediate_.load(std::memory_order_relaxed);
    out.task_steals = task_steals_.load(std::memory_order_relaxed);
    return out;
  }

  void reset_counters() override {
    threads_created_.store(0, std::memory_order_relaxed);
    threads_reused_.store(0, std::memory_order_relaxed);
    tasks_queued_.store(0, std::memory_order_relaxed);
    tasks_immediate_.store(0, std::memory_order_relaxed);
    task_steals_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Subclass policy: set up the team's task storage.
  virtual void init_task_storage(PompTeam& team) = 0;
  /// Subclass policy: enqueue a deferred task; false → cut-off (run now).
  /// @p c may be null (dependency wake-up from a thread outside the
  /// task's team); use rec->team for storage.
  virtual bool enqueue(TaskCtx* c, TaskRec* rec) = 0;
  /// Subclass policy: dequeue + execute one task; false when none found.
  virtual bool try_run_one_task(PompTeam* team) = 0;

  /// Subclass policy: enqueue a whole batch (records already counted in
  /// children/tasks_outstanding). Default loops enqueue() with the same
  /// cut-off fallback as task(); GNU overrides with a single-lock append.
  virtual void enqueue_bulk(TaskCtx* c, TaskRec** recs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (enqueue(c, recs[i])) {
        tasks_queued_.fetch_add(1, std::memory_order_relaxed);
      } else {
        tasks_immediate_.fetch_add(1, std::memory_order_relaxed);
        execute(recs[i]);
      }
    }
  }

  void execute(TaskRec* rec) {
    TaskCtx ctx;
    ctx.team = rec->team;
    ctx.tid = t_ctx != nullptr && t_ctx->team == rec->team ? t_ctx->tid : 0;
    ctx.parent = rec->creator;
    ctx.group = rec->group;  // nested tasks inherit taskgroup membership
    TaskCtx* saved = t_ctx;
    t_ctx = &ctx;
    // Cancellation: a member of a cancelled taskgroup skips its body but
    // keeps the full completion protocol below, so waits always terminate.
    tasks_running_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t_start = sched::profile_task_start(
        rec->submit_ns, reinterpret_cast<std::uintptr_t>(rec));
    if (!tg_cancelled(rec->group)) rec->desc.run();
    sched::profile_task_complete(t_start,
                                 reinterpret_cast<std::uintptr_t>(rec));
    tasks_running_.fetch_sub(1, std::memory_order_relaxed);
    sched::watchdog_note_progress();  // pomp's task turnover IS progress
    // Dependences release at *task* completion (OpenMP's rule), before the
    // child drain: a child depending on this task's own dep object must be
    // releasable here, or the drain below would spin on it forever. The
    // wake-up enqueues successors natively (executing inline on cut-off).
    if (rec->node != nullptr) dep_engine_.complete(rec->node);
    // A finished task must have no pending children of its own before its
    // parent's taskwait can be satisfied; drain them here.
    while (ctx.children_outstanding.load(std::memory_order_acquire) > 0) {
      if (!try_run_one_task(rec->team)) wait_relax();
    }
    t_ctx = saved;
    if (rec->group != nullptr) {
      rec->group->latch.count_down();
    }
    rec->creator->children_outstanding.fetch_sub(1,
                                                 std::memory_order_release);
    rec->team->tasks_outstanding.fetch_sub(1, std::memory_order_release);
    sched::Pool<TaskRec>::free(rec);
  }

  /// Dependency wake-up target: enqueue a released task through the
  /// subclass's native path; deque-full falls back to executing it right
  /// here (its deps are met by construction). The fallback is flattened:
  /// executing a task completes it, which can wake the next link of a
  /// chain into this same fallback — recursing would nest one stack
  /// frame per chain link, so re-entrant wake-ups spill to a per-thread
  /// list the outermost frame drains iteratively.
  void enqueue_ready(TaskRec* rec) {
    TaskCtx* c =
        t_ctx != nullptr && t_ctx->team == rec->team ? t_ctx : nullptr;
    if (enqueue(c, rec)) {
      tasks_queued_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (t_in_ready_fallback) {
      t_ready_spill.push_back(rec);
      return;
    }
    t_in_ready_fallback = true;
    tasks_immediate_.fetch_add(1, std::memory_order_relaxed);
    execute(rec);
    while (!t_ready_spill.empty()) {
      TaskRec* next = t_ready_spill.back();
      t_ready_spill.pop_back();
      tasks_immediate_.fetch_add(1, std::memory_order_relaxed);
      execute(next);
    }
    t_in_ready_fallback = false;
  }

  static void on_dep_ready(void* payload, taskdep::TaskNode* node) {
    auto* pl = static_cast<DepPayload*>(payload);
    if (pl->kind == DepPayload::Kind::gate) {
      static_cast<ReadyGate*>(pl)->ready.set();
      return;
    }
    auto* rec = static_cast<TaskRec*>(pl);
    rec->node = node;
    rec->team->rt->enqueue_ready(rec);
  }

  void run_inline(TaskCtx* c, omp::TaskDesc desc,
                  taskdep::TaskNode* node = nullptr) {
    tasks_immediate_.fetch_add(1, std::memory_order_relaxed);
    TaskCtx ctx;
    ctx.team = c->team;
    ctx.tid = c->tid;
    ctx.parent = c;
    ctx.group = c->group;
    TaskCtx* saved = t_ctx;
    t_ctx = &ctx;
    if (!tg_cancelled(c->group)) desc.run();
    sched::watchdog_note_progress();
    // Release at task completion, before the child drain — same rule as
    // execute(): a child depending on this task's own dep object must be
    // releasable here or the drain would spin on it forever.
    if (node != nullptr) dep_engine_.complete(node);
    while (ctx.children_outstanding.load(std::memory_order_acquire) > 0) {
      if (!try_run_one_task(c->team)) wait_relax();
    }
    t_ctx = saved;
  }

  void wait_relax() {
    sched::chaos_maybe_delay();  // every relax step is a suspension point
    if (active_wait_) {
      common::cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  std::atomic<std::uint64_t> tasks_queued_{0};
  std::atomic<std::uint64_t> tasks_immediate_{0};
  std::atomic<std::uint64_t> task_steals_{0};
  std::atomic<std::int64_t> tasks_running_{0};  ///< bodies on a thread now
  int cutoff_ = 256;
  taskdep::DepEngine dep_engine_{&PompRuntime::on_dep_ready};

  /// Watchdog dumper: shared-queue depth, per-member deque depths, and
  /// in-flight counts for every live team. Uses try_lock throughout — a
  /// dump of a wedged process must never become a second hang.
  static void dump_task_state(void* arg) {
    auto* rt = static_cast<PompRuntime*>(arg);
    std::fprintf(
        stderr,
        "[glto-pomp] tasks: queued=%llu immediate=%llu running=%lld\n",
        static_cast<unsigned long long>(
            rt->tasks_queued_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            rt->tasks_immediate_.load(std::memory_order_relaxed)),
        static_cast<long long>(
            rt->tasks_running_.load(std::memory_order_relaxed)));
    if (!rt->teams_lock_.try_lock()) {
      std::fputs("[glto-pomp] team registry busy, depths unavailable\n",
                 stderr);
      return;
    }
    for (const PompTeam* team : rt->live_teams_) {
      std::size_t deque_depth = 0;
      for (const auto& d : team->deques) {
        if (d) deque_depth += d->size();
      }
      std::fprintf(
          stderr,
          "[glto-pomp]   team level=%d size=%d outstanding=%lld "
          "shared_queue=%zu deques=%zu\n",
          team->level, team->size,
          static_cast<long long>(
              team->tasks_outstanding.load(std::memory_order_relaxed)),
          team->shared_queue.size(), deque_depth);
    }
    rt->teams_lock_.unlock();
  }

 private:
  static void run_member(PompTeam* team, int tid,
                         const omp::RegionBody& body, TaskCtx* parent) {
    TaskCtx ctx;
    ctx.team = team;
    ctx.tid = tid;
    ctx.parent = parent;
    ctx.in_master = tid == 0;
    TaskCtx* saved = t_ctx;
    t_ctx = &ctx;
    body(tid, team->size);
    t_ctx = saved;
  }

  /// Hands @p a to a pooled worker (or a fresh pthread when @p fresh_only).
  std::unique_ptr<Worker> engage_worker(Assignment* a, bool fresh_only,
                                        int bind_rank) {
    std::unique_ptr<Worker> w;
    if (!fresh_only) {
      common::SpinGuard g(pool_lock_);
      if (!free_workers_.empty()) {
        w = std::move(free_workers_.back());
        free_workers_.pop_back();
        threads_reused_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!w) {
      w = std::make_unique<Worker>();
      w->bind_rank = bind_ ? bind_rank : -1;
      threads_created_.fetch_add(1, std::memory_order_relaxed);
      Worker* wp = w.get();
      PompRuntime* rt = this;
      w->thread = std::thread([wp, rt] { rt->worker_loop(wp); });
    }
    {
      std::lock_guard<std::mutex> lk(w->m);
      w->assignment = a;
    }
    w->cv.notify_one();
    return w;
  }

  void worker_loop(Worker* w) {
    if (w->bind_rank >= 0) common::bind_self_to_core(w->bind_rank);
    for (;;) {
      Assignment* a = nullptr;
      {
        std::unique_lock<std::mutex> lk(w->m);
        w->cv.wait(lk, [&] { return w->assignment != nullptr || w->die; });
        if (w->die) return;
        a = w->assignment;
        w->assignment = nullptr;
      }
      run_member(a->team, a->tid, a->body, nullptr);
      // Help drain this region's tasks before reporting completion.
      while (a->team->tasks_outstanding.load(std::memory_order_acquire) >
             0) {
        if (!try_run_one_task(a->team)) wait_relax();
      }
      a->remaining->fetch_sub(1, std::memory_order_release);
    }
  }

  void retire(std::unique_ptr<Worker> w) {
    {
      std::lock_guard<std::mutex> lk(w->m);
      w->die = true;
    }
    w->cv.notify_one();
    w->thread.join();
  }

  bool reuse_nested_;
  int default_threads_ = 1;
  bool nested_ = true;
  bool bind_ = true;
  bool active_wait_ = true;

  PompTeam root_team_;
  TaskCtx root_ctx_;

  common::SpinLock pool_lock_;
  std::vector<std::unique_ptr<Worker>> free_workers_;

  common::SpinLock teams_lock_;
  std::vector<PompTeam*> live_teams_;  ///< dump_task_state's walk set
  std::uint64_t watchdog_token_ = 0;

  std::atomic<std::uint64_t> threads_created_{0};
  std::atomic<std::uint64_t> threads_reused_{0};

  common::SpinLock critical_map_lock_;
  std::map<const void*, common::SpinLock> critical_locks_;
};

/// libgomp-like: shared team task queue; nested regions never reuse
/// threads.
class GnuRuntime final : public PompRuntime {
 public:
  explicit GnuRuntime(const PompOptions& opts)
      : PompRuntime(opts, /*reuse_nested_threads=*/false) {}

  [[nodiscard]] const char* name() const override { return "gnu"; }

 protected:
  void init_task_storage(PompTeam&) override {}

  bool enqueue(TaskCtx*, TaskRec* rec) override {
    rec->team->shared_queue.push(rec);
    return true;
  }

  void enqueue_bulk(TaskCtx*, TaskRec** recs, std::size_t n) override {
    // One lock acquisition for the whole burst (the per-task path pays
    // one per push on the same single team-wide lock).
    recs[0]->team->shared_queue.push_n(recs, n);
    tasks_queued_.fetch_add(n, std::memory_order_relaxed);
  }

  bool try_run_one_task(PompTeam* team) override {
    if (auto rec = team->shared_queue.pop()) {
      execute(*rec);
      return true;
    }
    return false;
  }
};

/// Intel-like: hot-team reuse; bounded per-thread deques with stealing and
/// the 256-entry cut-off.
class IntelRuntime final : public PompRuntime {
 public:
  explicit IntelRuntime(const PompOptions& opts)
      : PompRuntime(opts, /*reuse_nested_threads=*/true) {}

  [[nodiscard]] const char* name() const override { return "intel"; }

 protected:
  void init_task_storage(PompTeam& team) override {
    team.deques.resize(static_cast<std::size_t>(team.size));
    for (auto& d : team.deques) {
      d = std::make_unique<sched::BoundedDeque<TaskRec*>>(
          static_cast<std::size_t>(cutoff_));
    }
  }

  bool enqueue(TaskCtx* c, TaskRec* rec) override {
    auto& deques = rec->team->deques;
    if (deques.empty()) {  // team of 1 without storage: run inline
      return false;
    }
    // Out-of-team enqueues (dependency wake-ups fired by a thread outside
    // the task's team) scatter across the deques instead of piling onto
    // slot 0, so cross-team DAG release storms don't serialize.
    // Seed from the thread_local's own address so concurrent threads
    // draw different slot sequences instead of colliding in lockstep.
    thread_local common::FastRng slot_rng{
        0xD00DADu ^ static_cast<std::uint64_t>(
                        reinterpret_cast<std::uintptr_t>(&slot_rng))};
    const auto slot = c != nullptr
                          ? static_cast<std::size_t>(c->tid) % deques.size()
                          : static_cast<std::size_t>(slot_rng.next()) %
                                deques.size();
    return deques[slot]->try_push(rec);
  }

  bool try_run_one_task(PompTeam* team) override {
    auto& deques = team->deques;
    if (deques.empty()) return false;
    const auto n = deques.size();
    const auto self =
        t_ctx != nullptr && t_ctx->team == team
            ? static_cast<std::size_t>(t_ctx->tid) % n
            : 0;
    if (auto rec = deques[self]->pop_owner()) {
      execute(*rec);
      return true;
    }
    // Work stealing: random victim order (contention under many threads is
    // the paper's §VI-E observation).
    thread_local common::FastRng rng{0xC0FFEE};
    const auto start = static_cast<std::size_t>(rng.next() % n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto v = (start + k) % n;
      if (v == self) continue;
      if (auto rec = deques[v]->steal()) {
        task_steals_.fetch_add(1, std::memory_order_relaxed);
        execute(*rec);
        return true;
      }
    }
    return false;
  }
};

}  // namespace

std::unique_ptr<omp::Runtime> make_gnu_runtime(const PompOptions& opts) {
  return std::make_unique<GnuRuntime>(opts);
}

std::unique_ptr<omp::Runtime> make_intel_runtime(const PompOptions& opts) {
  return std::make_unique<IntelRuntime>(opts);
}

}  // namespace glto::pomp
