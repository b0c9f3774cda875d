// abt — an Argobots-like lightweight-threading library.
//
// Semantics (mirrors Argobots, the paper's best-behaved GLT backend):
//  * *Execution streams* (xstreams) are the workers; xstream 0 is the
//    thread that called abt::init, which becomes the *primary ULT*,
//    pinned to xstream 0.
//  * Exact placement: units created with ult_create_on / tasklet_create_on
//    are pinned and always execute on their target xstream — the contract
//    the GLT layer documents and the paper's work-assignment studies
//    (Fig. 7) rely on. ult_create / tasklet_create units land on the
//    caller's xstream and idle xstreams may steal them.
//  * Work units are either *ULTs* (own stack, can yield/block) or
//    *tasklets* (stackless, run to completion on the scheduler's stack —
//    natively supported here just as in Argobots, §III-B). yield() in a
//    tasklet is a no-op; a blocking join inside one is an error.
//  * join() suspends a joining ULT until the unit finishes; records are
//    destroyed by join.
//
// Scheduling, stacks and suspension come from the shared ULT engine
// (sched/ult_engine.hpp).
#pragma once

#include <cstdint>

#include "sched/metrics.hpp"

namespace glto::abt {

using WorkFn = void (*)(void*);

struct Config {
  int num_xstreams = 0;      ///< 0 → hardware threads
  bool shared_pool = false;  ///< one pool shared by all xstreams
  bool bind_threads = true;  ///< pin xstream i to core i (best-effort)
};

/// Opaque handle to a ULT or tasklet.
struct WorkUnit;

/// Starts the runtime; the caller becomes the primary ULT on xstream 0.
void init(const Config& cfg = {});

/// Stops all xstreams. Pending work must have been joined already.
void finalize();

[[nodiscard]] bool initialized();
[[nodiscard]] int num_xstreams();

/// Rank of the xstream executing the caller (-1 on foreign threads).
[[nodiscard]] int self_rank();

/// True when the caller runs inside a ULT (including the primary ULT).
[[nodiscard]] bool in_ult();

/// Racy probe: could the calling xstream's scheduler run anything else
/// right now (own pool, main slot on xstream 0, or a steal victim)? Busy-
/// wait loops use it to decide between yielding (work exists — run it)
/// and releasing the core (nothing runnable — spinning would only starve
/// the producers on oversubscribed hosts).
[[nodiscard]] bool maybe_work();

/// Creates a ULT in the deque of the calling xstream (or the shared
/// pool). Unpinned: an idle xstream may steal it. No stack is taken here;
/// the xstream that first runs the ULT binds one.
WorkUnit* ult_create(WorkFn fn, void* arg);

/// Creates a ULT pinned to xstream @p rank (exact placement, never
/// stolen; advisory under a shared pool).
WorkUnit* ult_create_on(int rank, WorkFn fn, void* arg);

/// Creates @p n unpinned ULTs running fn(args[i]) and deposits the whole
/// batch through the scheduling core's bulk path: one queue publication
/// per victim xstream and one targeted wake per victim, instead of n
/// push+wake round-trips. @p spread fans contiguous chunks across
/// xstreams (the single-producer fan-out pattern); otherwise the batch
/// rides the caller's deque and woken thieves rebalance it. Handles are
/// written to @p out[0..n).
void ult_create_bulk(WorkFn fn, void* const* args, int n, WorkUnit** out,
                     bool spread);

/// Creates a stackless tasklet (calling xstream's deque, stealable).
WorkUnit* tasklet_create(WorkFn fn, void* arg);

/// Creates a stackless tasklet pinned to xstream @p rank.
WorkUnit* tasklet_create_on(int rank, WorkFn fn, void* arg);

/// Waits for completion and destroys the work unit.
void join(WorkUnit* wu);

/// Cooperatively yields the calling ULT back to its xstream's scheduler.
void yield();

/// True once @p wu has finished executing (join must still be called).
[[nodiscard]] bool is_done(const WorkUnit* wu);

/// Rank the work unit last executed on (for migration tests).
[[nodiscard]] int executed_on(const WorkUnit* wu);

/// Per-work-unit user pointer ("ULT-local storage"). Runtimes layered on
/// abt (GLTO) hang their per-ULT execution context here; it travels with
/// the ULT across suspensions. On a foreign thread it falls back to a
/// thread-local slot.
[[nodiscard]] void* self_local();
void set_self_local(void* p);

/// Scheduler-behaviour counters live in the shared sched::StatsSnapshot
/// base (every backend runs the same WsCore); only xstream-specific
/// counters are declared here.
struct Stats : sched::StatsSnapshot {
  std::uint64_t ults_created = 0;
  std::uint64_t tasklets_created = 0;
  std::uint64_t yields = 0;
};

/// Snapshot of global counters since init().
[[nodiscard]] Stats stats();

}  // namespace glto::abt
