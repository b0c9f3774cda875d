// Internal task-machinery pieces shared by the runtime implementations
// (glto_runtime.cpp and pomp_runtime.cpp). Not part of the public facade.
#pragma once

#include <atomic>
#include <cstdint>

#include "sched/sync.hpp"

namespace glto::omp::detail {

/// One taskgroup instance. Counts the unfinished tasks its owning task
/// created inside the group — and only those — so taskgroup_end never
/// over-waits earlier siblings (the transitive-join deviation exposure:
/// a taskgroup nested in a depend task must not wait the depend task's
/// pre-group children). Lives on the taskgroup frame; end waits the latch
/// to reach zero before popping it, so tasks never outlive their scope.
///
/// The count lives in a CompletionLatch: GLTO's taskgroup_end blocks on
/// it outright (the waiter ULT parks, the last finishing member wakes it
/// through the core), while the pthread runtimes keep their helping loops
/// and poll try_wait() between help-run steps. A task's add(1) is ordered
/// before its creator's own count_down, so the count cannot hit zero
/// while group work remains.
struct TgScope {
  sched::CompletionLatch latch;
  TgScope* parent = nullptr;
  /// omp::cancel(): set once, checked by every group member task right
  /// before its body runs. A cancelled group still *joins* everything —
  /// in-flight bodies finish, not-yet-started members skip their body but
  /// keep the full completion bookkeeping (dep release, child join,
  /// pending decrement), so taskgroup_end's wait terminates normally.
  std::atomic<bool> cancelled{false};
};

/// True when @p g or any enclosing taskgroup has been cancelled. Walks the
/// scope chain — cancellation of an outer group reaches tasks spawned in
/// nested groups, mirroring OpenMP's innermost-enclosing-region rule.
[[nodiscard]] inline bool tg_cancelled(const TgScope* g) {
  for (; g != nullptr; g = g->parent) {
    if (g->cancelled.load(std::memory_order_acquire)) return true;
  }
  return false;
}

/// Discriminated payload header for the dependency engine's ready
/// callback: deferred tasks get scheduled (runtime-specific), undeferred
/// tasks with deps open an inline gate.
struct DepPayload {
  enum class Kind : std::uint8_t { spawn, gate } kind;
};

/// Gate an undeferred (if(false)/final) task with deps waits on inline.
/// GLTO waiters block on the event (true suspension); the pthread
/// runtimes poll is_set_locked() between help-run steps. The gate is
/// stack-resident and dies the moment the waiter sees it open, so every
/// observation that unblocks the waiter must be a locked one (see the
/// Event destruction protocol) — never gate on the racy is_set().
struct ReadyGate : DepPayload {
  ReadyGate() : DepPayload{Kind::gate} {}
  sched::Event ready;
};

/// Per-worker capacity of the task-record freelists (TaskArg/TaskRec
/// recycling in the runtimes and the descriptor spill-slab pool). OS
/// threads beyond this many distinct ranks fall back to the freelists'
/// locked shared slab — correct, just not lock-free.
inline constexpr int kRecordPoolWorkers = 64;

/// Process-wide small integer rank of the calling OS thread, handed out
/// on first use. Indexes the owner-only per-worker lists of the record
/// freelists: unlike a team-relative tid it is unique across concurrent
/// teams and runtime instances, so two threads never share a lock-free
/// list. Monotonic — a process that churns through more than
/// kRecordPoolWorkers OS threads pushes later threads onto the locked
/// slab path.
///
/// Defined out-of-line (omp.cpp) behind a noinline + compiler barrier:
/// the free paths call it AFTER a task body ran — i.e. after a possible
/// ULT suspension and OS-thread migration — where an inlined, cached
/// thread_local read from before the context switch would hand back the
/// pre-migration thread's rank and let two OS threads mutate one
/// owner-only freelist (the stale-TLS hazard sched/ult_engine.hpp documents).
[[nodiscard]] int record_rank();

}  // namespace glto::omp::detail
