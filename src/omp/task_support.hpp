// Internal work-sharing and task-machinery pieces shared by the runtime
// implementations (glto_runtime.cpp and pomp_runtime.cpp). Not part of the
// public facade.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/debug.hpp"
#include "omp/runtime.hpp"
#include "sched/sync.hpp"

namespace glto::omp::detail {

// ---- work sharing ----------------------------------------------------------
//
// single and loop arbitration, identical in GLTO and the pthread runtimes:
// a team holds a TeamShare, each member's context a MemberShare.

inline constexpr int kLoopRing = 8;  ///< concurrent nowait loop descriptors per team

/// One work-sharing loop instance shared by a team.
struct LoopDesc {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t chunk = 0;
  Schedule sched = Schedule::Static;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::uint64_t> ready_seq{0};  ///< loop instance published
};

/// A team's side: the single claim word and the loop ring (nowait-tolerant).
struct TeamShare {
  std::atomic<std::uint64_t> single_claimed{0};
  LoopDesc loops[kLoopRing];
  std::atomic<std::uint64_t> loops_inited{0};
};

/// A member's side: its construct counters and its active loop.
struct MemberShare {
  std::uint64_t single_seq = 0;
  std::uint64_t loop_seq = 0;
  LoopDesc* loop = nullptr;
  std::int64_t static_k = 0;  ///< next static chunk index for this member
  bool in_single = false;
};

/// The member's next single construct: true for exactly one member.
inline bool single_try(TeamShare& t, MemberShare& m) {
  const std::uint64_t mine = ++m.single_seq;
  std::uint64_t expected = mine - 1;
  if (t.single_claimed.compare_exchange_strong(expected, mine,
                                               std::memory_order_acq_rel)) {
    m.in_single = true;
    return true;
  }
  return false;
}

/// Enters the member's next loop: the first member to arrive publishes its
/// descriptor; the others call @p wait() until it is published (GLTO
/// yields the ULT, the pthread runtimes relax the core).
template <class Wait>
void loop_begin(TeamShare& t, MemberShare& m, std::int64_t lo, std::int64_t hi,
                Schedule sched, std::int64_t chunk, Wait wait) {
  const std::uint64_t seq = m.loop_seq++;
  LoopDesc& d = t.loops[seq % kLoopRing];
  std::uint64_t expected = seq;
  if (t.loops_inited.compare_exchange_strong(expected, seq + 1,
                                             std::memory_order_acq_rel)) {
    d.lo = lo;
    d.hi = hi;
    d.sched = sched;
    d.chunk = chunk;
    d.next.store(lo, std::memory_order_relaxed);
    d.ready_seq.store(seq + 1, std::memory_order_release);
  } else {
    while (d.ready_seq.load(std::memory_order_acquire) < seq + 1) wait();
  }
  m.loop = &d;
  m.static_k = 0;
}

/// Claims the next chunk [*lo, *hi) of the active loop for member @p tid of
/// a @p p-member team; false when the member's share is exhausted.
inline bool loop_next(MemberShare& m, int tid, int p, std::int64_t* lo,
                      std::int64_t* hi) {
  LoopDesc* d = m.loop;
  GLTO_CHECK_MSG(d != nullptr, "loop_next outside a loop construct");
  const std::int64_t n = d->hi - d->lo;
  if (n <= 0) return false;
  switch (d->sched) {
    case Schedule::Auto:
    case Schedule::Runtime:  // resolved by the facade; fall back safely
    case Schedule::Static: {
      if (d->chunk <= 0) {
        // One balanced block per member.
        if (m.static_k > 0) return false;
        const std::int64_t base = n / p, rem = n % p;
        const std::int64_t b =
            d->lo + tid * base + std::min<std::int64_t>(tid, rem);
        const std::int64_t e = b + base + (tid < rem ? 1 : 0);
        if (b >= e) return false;
        *lo = b;
        *hi = e;
        m.static_k = 1;
        return true;
      }
      // Round-robin chunks: tid, tid+p, tid+2p, ...
      const std::int64_t idx = tid + m.static_k * p;
      const std::int64_t b = d->lo + idx * d->chunk;
      if (b >= d->hi) return false;
      *lo = b;
      *hi = std::min(d->hi, b + d->chunk);
      m.static_k++;
      return true;
    }
    case Schedule::Dynamic: {
      const std::int64_t step = d->chunk > 0 ? d->chunk : 1;
      const std::int64_t b = d->next.fetch_add(step, std::memory_order_relaxed);
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

// ---- tasks ---------------------------------------------------------------

/// One taskgroup instance. Counts the unfinished tasks its owning task
/// created inside the group — and only those — so taskgroup_end never
/// over-waits earlier siblings (the transitive-wait deviation exposure:
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

}  // namespace glto::omp::detail
