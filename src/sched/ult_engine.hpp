// One ULT engine under the abt, qth and mth personalities.
//
// The three backends differ in what the paper measures — abt's stackless
// tasklets and exact placement, qth's FEB words, mth's work-first spawn
// with a stealable main — and in nothing else. Everything below those
// semantics lives here, once: the work-unit record and its lifecycle,
// the per-thread block, the worker threads, the scheduler loop, the
// primary thread's scheduler context, the context-switch protocol, and
// the one park path every blocking wait suspends through. A personality
// (Personality) is a name and a work-first flag over this API.
//
// Record lifecycle. alloc() builds a record in a sched::Pool block (every
// field at its default) and counts the creation; submit() /
// submit_bulk() hand it to the shared sched::WsCore. A queued record holds
// no stack: the worker that first dispatches it binds a pooled stack from
// its own StackPool slot (bind at first dispatch), and the receiving side
// of the unit's Done switch releases the stack home to that slot. Then a
// joinable unit publishes `done` and resumes its joiner, whose join()
// recycles the record; an auto-free (detached) unit is recycled at once,
// and nobody may touch its record after it is handed over. A recycled
// record goes home to the thread whose slab it was carved from, wherever
// the unit ran or was joined. Auto-free and
// a custom body are properties of the record, set by its creator before
// the record is submitted: native qth::fork* records have both (they run
// a QthFn and are joined through their FEB return word); GLT's detached
// units (glt::ult_create_detached, a bulk create without handles, and
// spawn(..., detached)) are auto-free and run fn(arg). Only started,
// unfinished units hold a stack.
//
// Park protocol. Every blocking wait — a join, a qth FEB op, a sched::
// sync primitive, a timed wait or a backoff — suspends through
// park(cb, arg, deadline, cancel): the unit switches away, and the side
// that receives control runs cb(arg, record) *after* the unit's context
// is saved. cb registers the unit with whatever will wake it, re-checking
// the wait condition under that thing's lock: true means "parked, the
// waker now owns the record and must resume() it exactly once"; false
// means the condition already holds and the engine re-readies the unit
// itself. No wakeup can fall between the check and the registration, and
// no waker can resume a half-saved context.
//
// Deadlines. A park with a deadline is also armed on the receiving
// worker's timer list, a sorted list of that worker's parked units with
// deadlines. cb runs and the timer is armed while that list's lock is
// held, so the deadline cannot fire between the registration and the
// arming. The worker fires due timers wherever it picks its next unit
// (its scheduler loop, and a work-first hand-off), and its idle park
// never outlasts its earliest deadline; engine threads run at minimal
// timer slack so that park ends on time. Firing takes the list lock, then
// calls cancel(arg), which unlinks the unit from its waker under the
// waker's lock: true means the timeout won and the engine resumes the
// unit; false means a waker already owns it and the timer does nothing.
// The waker wins every race. A resumed unit removes its own timer under
// the list lock before park() returns, so no timer outlives the parked
// frame, and the unit waits out any firing still touching it.
//
// Switch protocol. A switch carries a message naming the sender and its
// directive: Resume (a scheduler loop starts or resumes a unit), Yield,
// Park, Done, and mth's Spawn (the parent's continuation is published
// when the child starts) and Migrate (ride the main slot to rank 0).
// abt and qth units always switch back to their thread's scheduler
// context; a work-first personality (mth) first tries to hand off
// strand-to-strand and falls back to the scheduler only when idle.
//
// TLS after a switch. A unit can resume on another OS thread (steals,
// shared pools, wakes from other workers), and the compiler may keep a
// thread-local address computed before a call for use after it. So in
// any frame that spans a switch, thread-local state is re-resolved
// through one noinline accessor behind a compiler barrier (tls_now in
// ult_engine.cpp): the landing after every suspension, join's recycle,
// and resume() from a waker that may itself have migrated. Only a unit's
// first entry, which starts a fresh frame, reads the block directly.
//
// One engine is live per process at a time: the per-thread block is
// shared, so a second backend cannot start while one runs.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"
#include "sched/metrics.hpp"
#include "sched/ws_core.hpp"

namespace glto::sched::ult {

using WorkFn = void (*)(void*);

/// The one work-unit record. Personalities hand out opaque handles to it.
/// A record is written by the worker running the unit while joiners and
/// wakers on other workers touch it, so each gets cache lines of its own:
/// records packed back to back false-share (nested-for read +13% p50
/// with unaligned records). Storage comes from sched::Pool slabs, because
/// a separate aligned heap allocation per record cost qpserver-open
/// ~0.7 MB of peak RSS in allocator slack.
struct alignas(common::kCacheLine) Record {
  WorkFn fn = nullptr;
  void* arg = nullptr;
  void* aux = nullptr;  ///< personality word (qth: the aligned_t return word)
  fctx::fcontext_t ctx = nullptr;  ///< nullptr until first dispatch
  fctx::Stack stack;               ///< bound at first dispatch, freed at Done
  /// ASan/TSan identity of the stack the unit runs on: its pooled stack,
  /// or the process native stack for the main record.
  fctx::StackRegion stack_region;
  std::atomic<Record*> joiner{nullptr};
  std::atomic<int> last_rank{-1};
  int home_rank = 0;
  std::atomic<bool> done{false};
  bool pinned = false;     ///< exact placement: only home_rank runs it
  bool is_main = false;    ///< the primary context (the thread that ran init)
  bool stackless = false;  ///< abt tasklet: runs on the scheduler's stack
  /// Recycled as soon as it finishes instead of publishing `done` for a
  /// join() that recycles it (native qth forks, joined through `aux`, and
  /// GLT's detached units, which nobody joins).
  bool auto_free = false;
  void* user_local = nullptr;  ///< see self_local()
  /// Runs the unit instead of fn(arg) (native qth forks: a QthFn whose
  /// result fills the return word).
  void (*body)(Record*) = nullptr;
};

/// What sets one backend's engine apart. How a unit runs and whether it is
/// joined are properties of its record (Record::body, Record::auto_free).
struct Personality {
  const char* name;  ///< trace labels ("abt-w3") and watchdog dumps
  /// Work-first (mth): leave() hands off strand-to-strand before falling
  /// back to the scheduler, yields stay stealable, and yield() with
  /// nothing else runnable is a no-op.
  bool work_first;
};

/// What alloc() makes: a ULT; a stackless tasklet, run on the scheduler's
/// stack (abt); or a tasklet emulated over a ULT (qth and mth, as in the
/// original GLT), which runs with a stack but counts as a tasklet.
enum class Unit : std::uint8_t { ult, tasklet, emulated_tasklet };

/// Engine counters since init.
struct Counters {
  std::uint64_t created = 0;          ///< ULTs allocated
  std::uint64_t tasklets = 0;         ///< tasklets allocated (native or emulated)
  std::uint64_t yields = 0;           ///< yields that switched away
  std::uint64_t main_migrations = 0;  ///< times main resumed off rank 0
};

/// Starts @p num_workers workers (0 → hardware threads); the caller becomes
/// the main record on rank 0, pinned there when @p pin_main.
void init(const Personality& p, int num_workers, bool shared_pool,
          bool bind_threads, bool pin_main);
/// Stops the workers. Must run on the main record; a migrated main first
/// rides the main slot back to rank 0.
void finalize();
/// True while @p p is the live personality.
[[nodiscard]] bool running(const Personality& p);
[[nodiscard]] int num_workers();
/// Rank of the calling worker (-1 on foreign threads).
[[nodiscard]] int self_rank();
/// True inside a stackful unit (including main).
[[nodiscard]] bool in_ult();
/// Racy probe: could this worker's scheduler run anything else now?
[[nodiscard]] bool maybe_work();

/// A reset, unbound, joinable record, counted by @p unit. @p home_rank < 0
/// means the caller's rank (rank 0 on a foreign thread).
[[nodiscard]] Record* alloc(WorkFn fn, void* arg, int home_rank, bool pinned,
                            Unit unit = Unit::ult);
/// Queues @p r at its home rank (the caller's deque when that is the
/// caller's own rank and @p r is unpinned).
void submit(Record* r);
/// alloc() then submit().
Record* create(WorkFn fn, void* arg, int home_rank, bool pinned,
               Unit unit = Unit::ult);
void submit_bulk(Record* const* rs, int n, BulkHint hint);
/// Work-first spawn from inside a unit: allocates fn(arg), binds it and
/// switches to it now; the caller's continuation is published (stealable)
/// when the child starts. Returns the child once the caller resumes. A
/// @p detached child is auto-free: it may have finished and been recycled
/// by then, so the caller gets nullptr instead.
Record* spawn(WorkFn fn, void* arg, Unit unit = Unit::ult,
              bool detached = false);
/// Waits until joinable @p r is done (parks a unit, spins a foreign
/// thread), then recycles it.
void join(Record* r);
void yield();
/// Register-or-complete callback of the park protocol, run on the
/// receiving side with the parked unit's record.
using ParkCb = bool (*)(void* arg, Record* r);
/// Timeout callback: unlinks the unit from its waker; true when the
/// timeout won (see the header comment).
using CancelCb = bool (*)(void* arg);
/// Park protocol (see the header comment). Call only when in_ult(). With
/// a deadline (common::now_ns clock) the engine resumes the unit once it
/// passes, unless a waker resumed it first. Returns true when the
/// deadline fired.
bool park(ParkCb cb, void* arg, std::int64_t deadline_ns = common::kNoDeadline,
          CancelCb cancel = nullptr);
/// Re-readies a parked unit. Any thread, including foreign ones.
void resume(Record* r);

/// Per-unit user pointer; a thread-local slot on foreign threads.
[[nodiscard]] void* self_local();
void set_self_local(void* p);

[[nodiscard]] Counters counters();
/// Core counters plus stack-cache hits since init.
void fill_stats(StatsSnapshot& s);

[[nodiscard]] inline bool is_done(const Record* r) {
  return r->done.load(std::memory_order_acquire);
}
[[nodiscard]] inline int executed_on(const Record* r) {
  return r->last_rank.load(std::memory_order_relaxed);
}

}  // namespace glto::sched::ult
