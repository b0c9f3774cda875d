// The runtime-neutral OpenMP execution interface (task ABI v2).
//
// This plays the role the OpenMP ABI plays in the paper: the same
// application binary runs over the Intel runtime (pthreads) or over GLTO
// (LWTs) just by switching the linked runtime (paper Fig. 2). Here the
// "ABI" is this abstract class; applications use the omp:: facade
// (src/omp/omp.hpp) and never see concrete runtimes.
//
// ABI v2: the only work currency crossing this interface is the POD
// omp::TaskDesc (trampoline + inline payload; see task_desc.hpp) for
// explicit tasks and the non-owning RegionBody for parallel regions —
// no std::function crosses a virtual call, so the facade's templated
// entry points reach the scheduler without a single heap allocation for
// small trivially-copyable captures.
//
// Implementations:
//   * pomp::GnuRuntime   — libgomp-like pthread baseline
//   * pomp::IntelRuntime — Intel-like pthread baseline
//   * rt::GltoRuntime    — GLTO over GLT over {abt,qth,mth}
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "omp/task_desc.hpp"
#include "taskdep/dep.hpp"

namespace glto::omp {

enum class Schedule : std::uint8_t {
  Static,
  Dynamic,
  Guided,
  Auto,     ///< implementation-defined; resolves to Static here
  Runtime,  ///< taken from OMP_SCHEDULE at runtime selection
};

/// Non-owning trampoline for a parallel-region body: the forking caller's
/// frame outlives the region (fork/join), so the runtime only carries a
/// function pointer + context — the v2 replacement for the
/// std::function<void(int,int)> the v1 ABI copied through every virtual
/// parallel() and stored per worker assignment.
struct RegionBody {
  using Fn = void (*)(void*, int, int);
  Fn fn = nullptr;
  void* ctx = nullptr;
  void operator()(int tid, int team_size) const { fn(ctx, tid, team_size); }
};

namespace detail {
/// Wraps a caller-owned callable (lvalue; must outlive the region).
template <class F>
[[nodiscard]] inline RegionBody region_of(F& body) {
  return RegionBody{
      [](void* p, int tid, int nth) { (*static_cast<F*>(p))(tid, nth); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body)))};
}
}  // namespace detail

struct TaskFlags {
  bool untied = false;
  bool final = false;
  bool if_clause = true;  ///< if(false) → undeferred, executed inline
  /// depend(in/out/inout: ...) clauses. A task with unmet dependences is
  /// *deferred*: it is withheld from the scheduler until every
  /// predecessor completes, then enqueued by the releasing thread
  /// (undeferred tasks with deps instead wait inline for their turn).
  /// Inline storage for up to four clauses — no allocation on the tile
  /// kernels the bqp workload emits.
  taskdep::DepList depend;
};

/// Dependency-engine counters plus descriptor-placement counters (the
/// inline-payload rate of the v2 task ABI). Basis for abl_taskdep and the
/// abl_glt_dispatch omp-task cells; dep fields are zero for a runtime
/// that saw no depend clauses.
struct TaskStats : taskdep::Stats {
  std::uint64_t task_inline = 0;  ///< descriptors whose capture fit inline
  std::uint64_t task_alloc = 0;   ///< descriptors that spilled to slab/heap
};

/// Counters every runtime maintains; basis for Tables II and III.
struct Counters {
  std::uint64_t os_threads_created = 0;  ///< pthreads / GLT_threads spawned
  std::uint64_t os_threads_reused = 0;   ///< re-engaged from a pool (Intel)
  std::uint64_t ults_created = 0;        ///< GLT_ults (GLTO only)
  std::uint64_t tasks_queued = 0;        ///< deferred through a task queue
  std::uint64_t tasks_immediate = 0;     ///< executed inline (cut-off, final)
  std::uint64_t task_steals = 0;         ///< consumer-side steals (Intel)
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Fork/join parallel region. @p body runs once per team member with
  /// (thread_num, team_size); an implicit barrier precedes the return.
  /// @p nthreads <= 0 requests the runtime default (OMP_NUM_THREADS).
  /// Nested calls create nested teams when nesting is enabled.
  virtual void parallel(int nthreads, RegionBody body) = 0;

  // --- team queries, relative to the innermost enclosing region ---------
  [[nodiscard]] virtual int thread_num() = 0;
  [[nodiscard]] virtual int team_size() = 0;
  [[nodiscard]] virtual int level() = 0;

  /// Default team size for future regions (omp_set_num_threads).
  virtual void set_default_threads(int n) = 0;
  [[nodiscard]] virtual int default_threads() = 0;

  /// Enables/disables nested parallelism (OMP_NESTED).
  virtual void set_nested(bool enabled) = 0;
  [[nodiscard]] virtual bool nested() = 0;

  // --- work-sharing loops (all team members must participate) -----------
  virtual void loop_begin(std::int64_t lo, std::int64_t hi, Schedule sched,
                          std::int64_t chunk) = 0;
  /// Next chunk [*lo, *hi) for the calling member; false when exhausted.
  virtual bool loop_next(std::int64_t* lo, std::int64_t* hi) = 0;
  /// Ends the loop construct (no implicit barrier — call barrier()).
  virtual void loop_end() = 0;

  // --- synchronization ---------------------------------------------------
  virtual void barrier() = 0;
  /// True for exactly one member per single construct instance.
  virtual bool single_try() = 0;
  virtual void single_done() = 0;  ///< winner calls when leaving the block
  virtual void critical_enter(const void* tag) = 0;
  virtual void critical_exit(const void* tag) = 0;

  // --- explicit tasks ----------------------------------------------------
  /// Creates an explicit task from a moved-in descriptor. flags.depend
  /// orders it after conflicting earlier tasks (see TaskFlags); taskwait
  /// also waits for dependent tasks the engine is still withholding.
  virtual void task(TaskDesc desc, const TaskFlags& flags) = 0;

  /// Batch spawn: moves @p n descriptors into the runtime in ONE call —
  /// semantically identical to n task() calls with the same flags, but a
  /// runtime may (and GLTO does) deposit the whole batch into its
  /// scheduler with one queue publication per victim worker and one
  /// targeted wake per victim instead of n submit+wake round-trips. The
  /// descriptors are consumed (moved-from) on return. Default: a plain
  /// loop, so pthread baselines and out-of-tree runtimes stay correct
  /// without opting in.
  virtual void task_bulk(TaskDesc* descs, std::size_t n,
                         const TaskFlags& flags) {
    for (std::size_t i = 0; i < n; ++i) {
      task(std::move(descs[i]), flags);
    }
  }

  virtual void taskwait() = 0;
  virtual void taskyield() = 0;

  /// taskgroup construct: end waits ONLY for tasks created between begin
  /// and end by the *current* task (descendants complete transitively via
  /// this runtime family's child-drain rule) — never for siblings created
  /// before the group, even inside a depend task. The default end falls
  /// back to taskwait (over-waits; both shipped runtimes override).
  virtual void taskgroup_begin() {}
  virtual void taskgroup_end() { taskwait(); }

  // --- cancellation & deadlines ------------------------------------------
  /// omp::cancel(taskgroup): marks the calling task's innermost enclosing
  /// taskgroup cancelled — member tasks not yet started skip their body,
  /// in-flight bodies run to completion, and taskgroup_end still joins
  /// everything. Returns false when there is no enclosing taskgroup (the
  /// construct is then a no-op), or when the runtime has no cancellation
  /// support (the pthread baselines' gnu/intel default here).
  virtual bool cancel_taskgroup() { return false; }

  /// Cancellation point: true when the calling task's taskgroup (or an
  /// enclosing one) has been cancelled and the caller should unwind.
  [[nodiscard]] virtual bool cancellation_requested() { return false; }

  /// Deadline form of taskwait: waits for the calling task's children for
  /// at most @p timeout_us microseconds. Returns true when they all
  /// completed, false on timeout — the children keep running and the next
  /// taskwait/region end still waits for them, so a timed-out wait leaves
  /// the tree consistent. Default: the blocking taskwait (no deadline
  /// support; never reports timeout).
  virtual bool taskwait_for_us(std::int64_t timeout_us) {
    (void)timeout_us;
    taskwait();
    return true;
  }

  /// Deadline form of taskgroup_end: waits at most @p timeout_us for the
  /// group's tasks. True → the group completed and was popped, exactly as
  /// taskgroup_end. False → timeout: the group stays active and open, so
  /// the caller can cancel_taskgroup() and then taskgroup_end() to drain
  /// (the omp::taskgroup_with_deadline recipe). Default: the blocking end
  /// (no deadline support; never reports timeout).
  virtual bool taskgroup_end_for_us(std::int64_t timeout_us) {
    (void)timeout_us;
    taskgroup_end();
    return true;
  }

  /// Dependency-engine counters (deps registered/deferred, DAG wake-ups).
  /// The descriptor-placement counters are filled in by the facade's
  /// omp::task_stats() — they live in the descriptor layer, above any
  /// single runtime.
  [[nodiscard]] virtual TaskStats task_stats() { return {}; }

  /// Polite wait hint while spinning on user-level synchronization (omp
  /// locks): GLTO yields the ULT; pthread runtimes yield the OS thread.
  /// Unlike taskyield() this is NOT a task scheduling point.
  virtual void yield_hint() = 0;

  /// Stable identity of the calling task context (for nestable locks:
  /// the owner of an omp nest lock is a *task*, not an OS thread).
  [[nodiscard]] virtual const void* task_identity() = 0;

  // --- instrumentation ---------------------------------------------------
  [[nodiscard]] virtual Counters counters() = 0;
  virtual void reset_counters() = 0;
};

}  // namespace glto::omp
