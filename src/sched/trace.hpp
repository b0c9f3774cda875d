// Always-on tracing rings with a Chrome trace-event JSON exporter.
//
// Each OS thread that emits gets a private fixed-capacity binary ring
// (overwrite-oldest, single writer, zero allocation after first use), so the
// hot path is: one relaxed load of the global gate, and — only when tracing
// is armed — an out-of-line store of a 24-byte event. Rings are sized by
// $GLTO_TRACE_RING_KB (per thread) and live until process exit; the exporter
// walks them at glt::finalize / omp::shutdown / atexit and writes
// {"traceEvents":[...]} for chrome://tracing or ui.perfetto.dev.
//
// Gating contract (mirrors chaos.hpp / watchdog.hpp): when $GLTO_TRACE is
// unset, every emit site costs exactly one relaxed load + predictable branch.
// The slow path is deliberately out of line in trace.cpp: ULTs migrate across
// OS threads at suspension points, so the thread_local ring must be
// re-resolved at the call, never cached across a potential switch (the same
// rule as tls_now in sched/ult_engine.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace glto::sched {

/// Event kinds recorded in the rings. Values are stable within a trace file
/// (the exporter writes names, tools never see the numbers), but not an ABI.
enum class TraceKind : std::uint16_t {
  none = 0,
  task_submit,    // arg=task id, aux=1 if deferred (queued), 0 if inline
  task_start,     // arg=task id
  task_complete,  // arg=task id, aux=service time in us (clamped to u32)
  steal_attempt,  // arg=victim rank (CAS lost or deque emptied under us)
  steal_success,  // arg=victim rank
  park,           // arg=rank, aux=requested park us
  unpark,         // arg=rank parked-state observed, aux=1 woken / 0 timeout
  wake,           // arg=target rank (emitted by the waking thread)
  bulk_deposit,   // arg=units deposited, aux=home-rank hint (+1, 0 = none)
  dep_register,   // arg=dep node id, aux=dependence count
  dep_release,    // arg=dep node id, aux=successors made ready
  ult_switch,     // arg=unit id: scheduler dispatched a ULT/strand
  chaos_fault,    // aux=fault class (sched::ChaosPoint value)
  cancel,         // arg=taskgroup/team id: cancellation observed
  ult_block,      // arg=wait-node id: context parked on a sync primitive
  ult_unblock,    // arg=wait-node id, aux=blocked duration in us
  qos_shed,       // arg=request id, aux=attempts used before the drop
  deadline_miss,  // arg=request id, aux=QosMissPhase (1 queued / 2 in-flight
                  // / 3 finished late)
};

/// One ring slot. 24 bytes, trivially copyable; written by exactly one
/// thread, read only at export/dump time.
struct TraceEvent {
  std::uint64_t ts_ns;  // since trace_epoch_ns()
  std::uint64_t arg;
  std::uint32_t aux;
  std::uint16_t kind;  // TraceKind
  std::uint16_t reserved;
};
static_assert(sizeof(TraceEvent) == 24, "keep ring slots compact");

/// Fixed-capacity overwrite-oldest event ring. Single producer; readers
/// (exporter, watchdog flight recorder, tests) tolerate a racing writer by
/// snapshotting head first — a torn slot at the overwrite frontier shows up
/// as one bogus event in a crash dump, never as UB on the writer.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity_pow2)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1) {}

  void emit(TraceKind k, std::uint64_t ts_ns, std::uint64_t arg,
            std::uint32_t aux) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    TraceEvent& e = slots_[h & mask_];
    e.ts_ns = ts_ns;
    e.arg = arg;
    e.aux = aux;
    e.kind = static_cast<std::uint16_t>(k);
    e.reserved = 0;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total events ever emitted (monotonic; oldest retained is
  /// max(0, head - capacity)).
  [[nodiscard]] std::uint64_t head() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] const TraceEvent& at(std::uint64_t i) const {
    return slots_[i & mask_];
  }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

namespace trace_detail {
// The only state an emit site touches when tracing is off.
extern std::atomic<bool> g_trace_on;
// Out of line so the thread_local ring is resolved at the call site's OS
// thread (post-migration), and so the off path stays a leaf branch.
void emit_slow(TraceKind k, std::uint64_t arg, std::uint32_t aux);
void emit_slow_at(TraceKind k, std::uint64_t now_ns, std::uint64_t arg,
                  std::uint32_t aux);
}  // namespace trace_detail

[[nodiscard]] inline bool trace_enabled() {
  return trace_detail::g_trace_on.load(std::memory_order_relaxed);
}

/// The per-site hook. Cost when $GLTO_TRACE is unset: one relaxed load and
/// one predictable branch.
inline void trace_emit(TraceKind k, std::uint64_t arg = 0,
                       std::uint32_t aux = 0) {
  if (!trace_detail::g_trace_on.load(std::memory_order_relaxed)) return;
  trace_detail::emit_slow(k, arg, aux);
}

/// trace_emit for call sites that already hold a fresh common::now_ns()
/// reading (the latency hooks): reuses it instead of taking the clock a
/// second time — per-task profiling pays 3 clock reads, not 6.
inline void trace_emit_at(TraceKind k, std::uint64_t now_ns,
                          std::uint64_t arg = 0, std::uint32_t aux = 0) {
  if (!trace_detail::g_trace_on.load(std::memory_order_relaxed)) return;
  trace_detail::emit_slow_at(k, now_ns, arg, aux);
}

/// Resolve $GLTO_TRACE / $GLTO_TRACE_RING_KB. Idempotent; called from
/// glt::init and omp::select. "$GLTO_TRACE=path.json" records + exports at
/// flush; "$GLTO_TRACE=1" records only (flight recorder for the watchdog).
void trace_init_from_env();

/// Label the calling thread's track in the exported trace (e.g. "abt-w3").
/// No-op when tracing is off; safe to call before the first emit.
void trace_thread_label(const char* backend, int rank);

/// Export all rings as Chrome trace-event JSON. Uses the $GLTO_TRACE path
/// unless @p path_override is given; returns false if no path is configured
/// or the write failed. Writes via a temp file + rename so concurrent
/// processes sharing one path never interleave.
bool trace_flush(const char* path_override = nullptr);

/// Flight recorder: append the newest @p max_per_ring events of every ring
/// to @p out, oldest first per ring. Used by the watchdog stall dump.
void trace_dump_tail(std::FILE* out, std::size_t max_per_ring);

/// Monotonic-clock origin all event timestamps are relative to.
[[nodiscard]] std::uint64_t trace_epoch_ns();

/// Sum of head() over all rings (events ever recorded).
[[nodiscard]] std::uint64_t trace_events_recorded();
/// Sum over rings of events lost to overwrite (head - capacity, clamped).
[[nodiscard]] std::uint64_t trace_events_dropped();

// Test hooks. set_for_testing arms/disarms tracing in-process;
// ring_events==0 keeps the current per-ring capacity. reset_for_testing
// discards all rings (caller must have joined any emitting threads; stale
// thread_local pointers re-register via a generation check).
void trace_set_for_testing(bool on, const char* path, std::size_t ring_events);
void trace_reset_for_testing();
[[nodiscard]] const TraceRing* trace_current_ring();

}  // namespace glto::sched
