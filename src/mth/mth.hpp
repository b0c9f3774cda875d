// mth — a MassiveThreads-like lightweight-threading library.
//
// Semantics (mirrors MassiveThreads 0.95 as used in the paper):
//  * *Workers* are OS threads. **Random work stealing is always on** —
//    everything mth schedules (spawned continuations, yields, woken
//    strands) is stealable: the trait behind GLTO(MTH)'s load-balancing
//    wins (Fig. 13, ≤4 threads) and its stealing-contention losses
//    (Figs. 10–12).
//  * Thread creation is **work-first**: mth::create switches to the child
//    immediately; the parent's *continuation* is published where idle
//    workers can steal it. This is how MassiveThreads achieves near-Cilk
//    spawn semantics. A finishing or blocking strand hands its worker
//    straight to the next runnable strand.
//  * Consequently **the main context is a schedulable, stealable item**:
//    after a spawn, main's continuation may be resumed by any worker.
//    This is the §IV-G property that forced the GLTO authors to pin the
//    master thread; Config::pin_main reproduces their modification (main
//    is then only ever resumed by worker 0).
//
// join() may migrate the calling strand across OS threads; worker_rank()
// must be re-queried after any suspension point.
//
// Scheduling, stacks and suspension come from the shared ULT engine
// (sched/ult_engine.hpp).
#pragma once

#include <cstdint>

#include "sched/metrics.hpp"

namespace glto::mth {

using WorkFn = void (*)(void*);

struct Config {
  int num_workers = 0;   ///< 0 → hardware threads
  bool bind_threads = true;
  bool pin_main = false; ///< GLTO §IV-G: main never migrates off worker 0
  bool shared_pool = false;  ///< one pool for all workers (§IV-F ablation)
};

/// Opaque handle to a user-level thread (strand).
struct Strand;

void init(const Config& cfg = {});
void finalize();
[[nodiscard]] bool initialized();
[[nodiscard]] int num_workers();

/// Worker executing the caller (-1 on foreign threads). May change across
/// any suspension point (spawn/join/yield) — always re-query.
[[nodiscard]] int worker_rank();

[[nodiscard]] bool in_strand();

/// Work-first spawn: switches to the child immediately; the caller's
/// continuation becomes stealable. Returns (on the parent's continuation)
/// the child handle for join().
Strand* create(WorkFn fn, void* arg);

/// Help-first bulk spawn: creates @p n strands running fn(args[i]) and
/// publishes them through the scheduling core's bulk path (one deposit on
/// the caller's deque + targeted wakes) instead of the work-first jump
/// create() performs per child — a single producer fans a burst out
/// without running each child to its first suspension inline. Handles are
/// written to @p out[0..n); everything deposited is stealable, and each
/// strand takes its stack only when a worker first runs it.
void create_bulk(WorkFn fn, void* const* args, int n, Strand** out);

/// Waits for @p s and destroys it. The caller may resume on a different
/// worker than it started on.
void join(Strand* s);

/// Yields to other runnable strands (no-op when there is nothing to run).
void yield();

/// Racy probe: could the calling worker's scheduler run anything else
/// right now? See abt::maybe_work for the busy-wait rationale.
[[nodiscard]] bool maybe_work();

[[nodiscard]] bool is_done(const Strand* s);

/// Worker the strand last ran on.
[[nodiscard]] int executed_on(const Strand* s);

/// Per-strand user pointer ("ULT-local storage"); travels with the strand
/// across suspensions *and* steals. Thread-local fallback on foreign
/// threads.
[[nodiscard]] void* self_local();
void set_self_local(void* p);

/// Shared-core scheduler behaviour (steals = successful continuation
/// steals) lives in the sched::StatsSnapshot base, parity with abt/qth;
/// MassiveThreads-specific counters here.
struct Stats : sched::StatsSnapshot {
  std::uint64_t strands_created = 0;
  std::uint64_t main_migrations = 0;  ///< times main resumed off worker 0
};

[[nodiscard]] Stats stats();

}  // namespace glto::mth
