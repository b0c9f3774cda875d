// omp — the application-facing OpenMP-style API (v2).
//
// Applications (UTS, CloverLeaf-mini, CG, the microbenchmarks, examples)
// are written once against this facade and run unmodified over any of the
// five runtime configurations the paper compares:
//
//     gnu        — libgomp-like pthread runtime        ("GCC" bars)
//     intel      — Intel-like pthread runtime          ("ICC" bars)
//     glto-abt   — GLTO over the Argobots-like backend ("GLTO(ABT)")
//     glto-qth   — GLTO over the Qthreads-like backend ("GLTO(QTH)")
//     glto-mth   — GLTO over the MassiveThreads-like   ("GLTO(MTH)")
//
// This mirrors the paper's methodology (§IV-A, Fig. 2): identical OpenMP
// code, swappable runtime underneath. Select a runtime with omp::select()
// or $OMP_RUNTIME; tear it down with omp::shutdown() before selecting
// another.
//
// API v2 (zero-allocation task ABI — see docs/API.md): task/loop entry
// points are templates that build omp::TaskDesc descriptors in place, so a task with a small trivially-copyable capture
// performs no heap allocation anywhere between the call site and the
// scheduler. Highlights:
//
//     omp::task(f, args...)                 — descriptor task, firstprivate args
//     omp::task_ret(f, args...)             — returns omp::future<T>
//     omp::par_for(lo, hi, {sched,grain,cutoff}, body)
//                                           — fork + grain-controlled loop + join
//     omp::loop(lo, hi, opts, body)         — work-shared loop inside parallel
//     omp::sections(f1, f2, ...)            — span-style section dispatch
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "omp/runtime.hpp"
#include "sched/sync.hpp"
#include "sched/ult_engine.hpp"
#include "sched/watchdog.hpp"

namespace glto::omp {

// ---- ULT-native synchronization -----------------------------------------
//
// Blocking primitives over the shared scheduling core (sched/sync.hpp),
// re-exported as the application-facing names. A waiter suspends for
// real — it parks on the primitive's wait list and the signaller
// re-deposits it through the core's targeted-wake path; no sleep
// quantum, no lost wakeups. Timed waits park the same way with a
// deadline. On contexts that cannot suspend (the pthread runtimes,
// tasklets, foreign OS threads) the same calls degrade to an OS-thread
// park. Payloads ship by
// descriptor (channel<T> requires trivially-copyable T) — no
// std::function anywhere on the signalling path.
using event = sched::Event;              ///< one-shot wait-queue event
using mutex = sched::Mutex;              ///< FIFO-handoff ULT mutex
using scoped_lock = sched::ScopedLock;   ///< RAII guard for omp::mutex
using condvar = sched::Condvar;          ///< condition variable over omp::mutex
template <class T>
using channel = sched::Channel<T>;       ///< bounded MPMC channel

/// The five runtime configurations of the paper's evaluation.
enum class RuntimeKind : std::uint8_t {
  gnu,
  intel,
  glto_abt,
  glto_qth,
  glto_mth,
};

[[nodiscard]] const char* kind_name(RuntimeKind k);
[[nodiscard]] std::optional<RuntimeKind> kind_from_string(std::string_view s);

/// All five kinds, in the paper's plotting order (GCC, ICC, ABT, QTH, MTH).
[[nodiscard]] const std::vector<RuntimeKind>& all_kinds();

struct SelectOptions {
  int num_threads = 0;        ///< 0 → $OMP_NUM_THREADS or hardware threads
  bool nested = true;         ///< paper sets OMP_NESTED=true for all tests
  bool bind_threads = true;   ///< OMP_PROC_BIND=true
  bool active_wait = true;    ///< OMP_WAIT_POLICY (pthread runtimes)
  bool shared_queues = false; ///< GLT_SHARED_QUEUES (GLTO)
  int task_cutoff = 256;      ///< Intel task-deque capacity (Fig. 14 knob)
};

/// Instantiates and activates a runtime. Any previously selected runtime
/// must have been shut down. Thread-affinity/binding is best-effort.
void select(RuntimeKind kind, const SelectOptions& opts = {});

/// Reads $OMP_RUNTIME (default "glto-abt") and selects it.
void select_from_env();

/// Tears the active runtime down. All parallel work must have completed.
void shutdown();

[[nodiscard]] bool selected();
[[nodiscard]] RuntimeKind current_kind();

/// The active runtime (asserts one is selected). Most code should prefer
/// the free functions below.
[[nodiscard]] Runtime& runtime();

namespace detail {
/// Resolves Auto/Runtime schedules to a concrete kind+chunk (Runtime
/// comes from $OMP_SCHEDULE, parsed at select() time). Defined in omp.cpp.
void resolve_schedule(Schedule* sched, std::int64_t* chunk);
}  // namespace detail

// ---- directives ---------------------------------------------------------

/// #pragma omp parallel num_threads(n) — @p body is any callable taking
/// (thread_num, team_size); it is invoked through a non-owning RegionBody
/// trampoline (the caller's frame outlives the fork/join).
template <class F,
          std::enable_if_t<std::is_invocable_v<F&, int, int>, int> = 0>
void parallel(int num_threads, F&& body) {
  runtime().parallel(num_threads, detail::region_of(body));
}

/// #pragma omp parallel (default team size)
template <class F,
          std::enable_if_t<std::is_invocable_v<F&, int, int>, int> = 0>
void parallel(F&& body) {
  runtime().parallel(0, detail::region_of(body));
}

/// Loop options for omp::par_for / omp::loop — schedule kind, grain
/// (chunk) size, and a serial cutoff.
struct LoopOpts {
  Schedule sched = Schedule::Static;
  /// Chunk granted per dispatch: schedule(sched, grain). 0 → per-schedule
  /// default (static: one balanced block per member; dynamic/guided: 1).
  std::int64_t grain = 0;
  /// par_for only: trip counts <= cutoff skip the fork entirely and run
  /// serial in the caller — the task-granularity control the paper's
  /// Fig. 14 cut-off study applies to loops.
  std::int64_t cutoff = 0;
};

namespace detail {
/// Dispatches one loop chunk to @p body, which may take a range
/// (int64 begin, int64 end) or a single index (int64 i).
template <class Body>
void invoke_chunk(Body& body, std::int64_t b, std::int64_t e) {
  if constexpr (std::is_invocable_v<Body&, std::int64_t, std::int64_t>) {
    body(b, e);
  } else {
    static_assert(std::is_invocable_v<Body&, std::int64_t>,
                  "loop body must take (int64) or (int64, int64)");
    for (std::int64_t i = b; i < e; ++i) body(i);
  }
}
}  // namespace detail

/// #pragma omp for schedule(...) — must be called inside parallel by every
/// team member; chunks [lo, hi) through the team's shared loop descriptor
/// and hands each grant straight to @p body (no type erasure, no implicit
/// barrier — call omp::barrier() if the next construct needs one).
template <class Body>
void loop(std::int64_t lo, std::int64_t hi, LoopOpts opts, Body&& body) {
  Runtime& rt = runtime();
  Schedule sched = opts.sched;
  std::int64_t chunk = opts.grain;
  detail::resolve_schedule(&sched, &chunk);
  rt.loop_begin(lo, hi, sched, chunk);
  std::int64_t b = 0, e = 0;
  while (rt.loop_next(&b, &e)) detail::invoke_chunk(body, b, e);
  rt.loop_end();
}

/// #pragma omp parallel for — fork + work-shared loop + join in one call.
/// Subsumes the v1 parallel_for / parallel_for_ranges pair: @p body takes
/// an index or a range, and opts carries schedule/grain/cutoff.
template <class Body>
void par_for(std::int64_t lo, std::int64_t hi, LoopOpts opts, Body&& body) {
  if (hi <= lo) return;
  if (opts.cutoff > 0 && hi - lo <= opts.cutoff) {
    detail::invoke_chunk(body, lo, hi);  // below cutoff: no fork at all
    return;
  }
  parallel([&](int, int) { loop(lo, hi, opts, body); });
}

template <class Body>
void par_for(std::int64_t lo, std::int64_t hi, Body&& body) {
  par_for(lo, hi, LoopOpts{}, std::forward<Body>(body));
}

/// #pragma omp barrier
void barrier();

/// #pragma omp single — runs @p body on one member; implicit barrier after.
template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
void single(F&& body) {
  Runtime& rt = runtime();
  if (rt.single_try()) {
    body();
    rt.single_done();
  }
  rt.barrier();  // implicit barrier at the end of single
}

/// #pragma omp master — runs on thread 0 only; no barrier.
template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
void master(F&& body) {
  if (runtime().thread_num() == 0) body();
}

/// #pragma omp critical [(tag)]
template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
void critical(const void* tag, F&& body) {
  Runtime& rt = runtime();
  rt.critical_enter(tag);
  body();
  rt.critical_exit(tag);
}

template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
void critical(F&& body) {
  critical(nullptr, std::forward<F>(body));
}

/// #pragma omp task — builds a TaskDesc in place: @p f plus decay-copied
/// @p args (firstprivate). Small trivially-copyable captures live inline
/// in the descriptor; task creation allocates nothing.
template <class F, class... Args,
          std::enable_if_t<
              std::is_invocable_v<std::decay_t<F>&, std::decay_t<Args>&...>,
              int> = 0>
void task(F&& f, Args&&... args) {
  runtime().task(
      TaskDesc::make(std::forward<F>(f), std::forward<Args>(args)...), {});
}

/// #pragma omp task with clauses (untied/final/if/depend).
template <class F,
          std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>, int> = 0>
void task(F&& f, const TaskFlags& flags) {
  runtime().task(TaskDesc::make(std::forward<F>(f)), flags);
}

/// Batch spawn (the bulk half of the task ABI): moves @p n prebuilt
/// descriptors into the runtime in ONE virtual call — semantically n
/// omp::task calls, but GLTO deposits the whole burst into its scheduler
/// with one queue publication + one targeted wakeup per GLT_thread
/// instead of n submit+wake round-trips. The descriptors are consumed.
void task_bulk(TaskDesc* descs, std::size_t n, const TaskFlags& flags = {});

// ---- value-returning tasks: omp::future<T> ------------------------------

namespace detail {

template <class T>
struct FutureState {
  std::atomic<int> refs{2};  ///< the future + the task closure
  std::atomic<bool> done{false};
  sched::Event done_ev;  ///< set after `done`; ULT waiters park on this
  std::exception_ptr error{};
  bool has_value = false;
  alignas(T) unsigned char storage[sizeof(T)];

  [[nodiscard]] T* value_ptr() { return reinterpret_cast<T*>(storage); }
  ~FutureState() {
    if (has_value) value_ptr()->~T();
  }
  static void unref(FutureState* s) {
    if (s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete s;
  }
};

template <>
struct FutureState<void> {
  std::atomic<int> refs{2};
  std::atomic<bool> done{false};
  sched::Event done_ev;
  std::exception_ptr error{};
  static void unref(FutureState* s) {
    if (s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete s;
  }
};

}  // namespace detail

/// Outcome of a timed wait (future::wait_for / wait_until): the deadline
/// is a first-class result, not a hang.
enum class FutureStatus : std::uint8_t { ready, timeout };

/// Handle to the result of an omp::task_ret task. On a ULT (GLTO) wait()
/// parks on the state's event, with a deadline for wait_until/wait_for;
/// the pthread runtimes run queued tasks in place between completion
/// probes — the same cooperative progress rule as taskwait, but for one
/// task.
/// Exceptions thrown by the task body are transported and rethrown from
/// get(). Move-only; get() consumes the handle.
template <class T>
class future {
 public:
  future() = default;
  explicit future(detail::FutureState<T>* st) : st_(st) {}
  future(const future&) = delete;
  future& operator=(const future&) = delete;
  future(future&& o) noexcept : st_(o.st_) { o.st_ = nullptr; }
  future& operator=(future&& o) noexcept {
    if (this != &o) {
      reset();
      st_ = o.st_;
      o.st_ = nullptr;
    }
    return *this;
  }
  ~future() { reset(); }

  [[nodiscard]] bool valid() const { return st_ != nullptr; }

  /// Non-blocking completion poll (the FEB/is_done shape of the GLT layer).
  [[nodiscard]] bool is_done() const {
    return st_ != nullptr && st_->done.load(std::memory_order_acquire);
  }

  /// Blocks until the task completed. On a ULT this is a true suspension:
  /// the waiter parks on the state's event and the completing task hands
  /// it straight back to a worker deque — no sleep quantum. Contexts that
  /// cannot suspend (the pthread runtimes, foreign threads) keep the
  /// cooperative polling rule: taskyield between probes, so the runtimes
  /// that must drain their own queues while waiting still do. Safe to
  /// call before or after completion; the handle stays valid for get().
  void wait() {
    if (st_ == nullptr) return;  // moved-from / consumed: nothing to wait on
    (void)wait_ns(common::kNoDeadline);
  }

  /// wait() bounded by an absolute deadline. Returns FutureStatus::ready
  /// when the task completed, FutureStatus::timeout once @p deadline
  /// passed with the task still running — the handle stays valid either
  /// way (the task keeps running after a timeout; wait()/get() can still
  /// join it). An empty handle reports ready: there is nothing left to
  /// wait on.
  FutureStatus wait_until(std::chrono::steady_clock::time_point deadline) {
    if (st_ == nullptr) return FutureStatus::ready;
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    return wait_ns(common::now_ns() + (left > 0 ? left : 0))
               ? FutureStatus::ready
               : FutureStatus::timeout;
  }

  /// Relative-timeout form of wait_until.
  FutureStatus wait_for(std::chrono::microseconds timeout) {
    return wait_until(std::chrono::steady_clock::now() + timeout);
  }

  /// Waits, then returns the task's value (or rethrows its exception).
  /// Consumes the handle: valid() is false afterwards; a second get()
  /// (or get() on a moved-from handle) throws instead of crashing.
  T get() {
    if (st_ == nullptr) {
      throw std::logic_error("omp::future::get on an empty handle");
    }
    wait();
    detail::FutureState<T>* st = st_;
    st_ = nullptr;
    struct Unref {
      detail::FutureState<T>* s;
      ~Unref() { detail::FutureState<T>::unref(s); }
    } guard{st};
    if (st->error) std::rethrow_exception(st->error);
    if constexpr (!std::is_void_v<T>) {
      return std::move(*st->value_ptr());
    }
  }

 private:
  /// wait() until @p deadline_ns (common::now_ns clock); true when done.
  bool wait_ns(std::int64_t deadline_ns) {
    if (st_->done.load(std::memory_order_acquire)) return true;
    if (sched::ult::in_ult()) return st_->done_ev.wait_until(deadline_ns);
    sched::watchdog_enter_wait();
    while (!st_->done.load(std::memory_order_acquire) &&
           common::now_ns() < deadline_ns) {
      if (selected()) {
        Runtime& rt = runtime();
        rt.taskyield();
        // taskyield on the pthread runtimes only runs a queued task when
        // one exists — it has no backoff of its own. The polite wait
        // hint honours the configured wait policy, so an empty-queue
        // spin doesn't run hot and starve the member executing the task
        // on oversubscribed hosts.
        rt.yield_hint();
      } else {
        std::this_thread::yield();
      }
    }
    sched::watchdog_exit_wait();
    return st_->done.load(std::memory_order_acquire);
  }

  void reset() {
    if (st_ != nullptr) {
      detail::FutureState<T>::unref(st_);
      st_ = nullptr;
    }
  }
  detail::FutureState<T>* st_ = nullptr;
};

/// #pragma omp task with a result: runs f(args...) as a task and returns
/// a future for its value. The shared state is one small allocation; the
/// descriptor itself follows the usual inline/spill rule.
template <class F, class... Args>
[[nodiscard]] auto task_ret(F&& f, Args&&... args)
    -> future<std::invoke_result_t<std::decay_t<F>&, std::decay_t<Args>&...>> {
  using R = std::invoke_result_t<std::decay_t<F>&, std::decay_t<Args>&...>;
  auto* st = new detail::FutureState<R>();
  task([st, fn = std::decay_t<F>(std::forward<F>(f)),
        tup = std::tuple<std::decay_t<Args>...>(
            std::forward<Args>(args)...)]() mutable {
    try {
      if constexpr (std::is_void_v<R>) {
        std::apply(fn, tup);
      } else {
        ::new (static_cast<void*>(st->storage)) R(std::apply(fn, tup));
        st->has_value = true;
      }
    } catch (...) {
      st->error = std::current_exception();
    }
    st->done.store(true, std::memory_order_release);
    // Wake a parked waiter. Set before unref: the waiter's handle holds
    // the other reference, so the state outlives this set() either way.
    st->done_ev.set();
    detail::FutureState<R>::unref(st);
  });
  return future<R>(st);
}

/// depend-clause builders for TaskFlags::depend. The pointer is the
/// OpenMP "list item": pass an object's address (size defaults to one
/// byte — the handle idiom tiled codes use) or an explicit byte range;
/// overlapping ranges conflict.
[[nodiscard]] inline taskdep::Dep dep_in(const void* p, std::size_t size = 0) {
  return {p, size, taskdep::DepKind::in};
}
[[nodiscard]] inline taskdep::Dep dep_out(const void* p,
                                          std::size_t size = 0) {
  return {p, size, taskdep::DepKind::out};
}
[[nodiscard]] inline taskdep::Dep dep_inout(const void* p,
                                            std::size_t size = 0) {
  return {p, size, taskdep::DepKind::inout};
}

/// #pragma omp taskwait / taskyield
void taskwait();
void taskyield();

// ---- cancellation & deadlines -------------------------------------------

/// #pragma omp cancel taskgroup — marks the calling task's innermost
/// enclosing taskgroup cancelled: member tasks that have not started yet
/// skip their body; bodies already running finish normally; the group's
/// end still joins everything. Returns false when there is no enclosing
/// taskgroup or the runtime has no cancellation support (then a no-op).
bool cancel();

/// #pragma omp cancellation point taskgroup — true when the calling
/// task's taskgroup has been cancelled; long-running bodies poll this and
/// unwind early.
[[nodiscard]] bool cancellation_point();

/// Deadline form of taskwait: waits for the calling task's children for
/// at most @p timeout. True → they all completed; false → timeout (the
/// children keep running and the next taskwait or region end still
/// waits for them — a timed-out wait abandons no child).
bool taskwait_for(std::chrono::microseconds timeout);

/// #pragma omp taskgroup with a deadline: runs @p body, then waits at
/// most @p timeout for the group's tasks. On expiry the group is
/// cancelled — not-yet-started members skip their body — and then drained
/// to completion, so the scope closes consistently either way. Returns
/// true when the group finished inside the deadline, false when it had to
/// be cancelled.
template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
bool taskgroup_with_deadline(std::chrono::microseconds timeout, F&& body) {
  Runtime& rt = runtime();
  rt.taskgroup_begin();
  body();
  if (rt.taskgroup_end_for_us(timeout.count())) return true;
  rt.cancel_taskgroup();
  rt.taskgroup_end();
  return false;
}

/// #pragma omp taskloop grainsize(g) — carves [lo, hi) into ⌈n/g⌉ chunk
/// tasks, submits them as ONE bulk spawn (omp::task_bulk), then waits for
/// them. Unlike par_for (fork + work-shared loop) this runs inside the
/// CURRENT team — from a single/master producer the chunks fan out across
/// the team's workers through the bulk-deposit path, one publication +
/// one targeted wake per victim. @p body takes (int64 i) or a range
/// (int64 begin, int64 end); @p grain <= 0 defaults to 1.
template <class Body>
void taskloop(std::int64_t lo, std::int64_t hi, std::int64_t grain,
              Body&& body) {
  if (hi <= lo) return;
  const std::int64_t g = grain > 0 ? grain : 1;
  const auto nchunks = static_cast<std::size_t>((hi - lo + g - 1) / g);
  std::vector<TaskDesc> descs;
  descs.reserve(nchunks);
  // One shared copy of the body; the per-chunk captures stay at 24 bytes
  // (pointer + bounds) so every chunk descriptor is inline-payload.
  auto chunk_body = std::decay_t<Body>(std::forward<Body>(body));
  for (std::int64_t b = lo; b < hi; b += g) {
    const std::int64_t e = b + g < hi ? b + g : hi;
    descs.push_back(TaskDesc::make(
        [&chunk_body, b, e] { detail::invoke_chunk(chunk_body, b, e); }));
  }
  task_bulk(descs.data(), descs.size());
  taskwait();
}

/// Dependency-engine + descriptor-placement counters of the active
/// runtime. task_inline/task_alloc are process-wide monotonic (they count
/// descriptor construction in the facade, above any one runtime) — take
/// deltas around the region of interest.
[[nodiscard]] TaskStats task_stats();

// ---- queries (omp_* library routines) -----------------------------------

[[nodiscard]] int thread_num();     ///< omp_get_thread_num
[[nodiscard]] int num_threads();    ///< omp_get_num_threads
[[nodiscard]] int level();          ///< omp_get_level
[[nodiscard]] int max_threads();    ///< omp_get_max_threads
void set_num_threads(int n);        ///< omp_set_num_threads
void set_nested(bool enabled);      ///< omp_set_nested

/// Parallel sum-reduction helper (the pattern `reduction(+:acc)` expands
/// to): each member accumulates privately; master receives the total.
template <class F,
          std::enable_if_t<std::is_invocable_v<F&, std::int64_t>, int> = 0>
double reduce_sum(std::int64_t lo, std::int64_t hi, F&& term) {
  std::atomic<double> total{0.0};
  parallel([&](int, int) {
    double local = 0.0;
    loop(lo, hi, LoopOpts{},
         [&](std::int64_t b, std::int64_t e) {
           for (std::int64_t i = b; i < e; ++i) local += term(i);
         });
    // One atomic combine per member (what reduction(+:x) compiles to).
    double cur = total.load(std::memory_order_relaxed);
    while (!total.compare_exchange_weak(cur, cur + local,
                                        std::memory_order_relaxed)) {
    }
  });
  return total.load(std::memory_order_relaxed);
}

// ---- sections -----------------------------------------------------------

/// One section block: a non-owning descriptor (the callable outlives the
/// sections call). Build with omp::section_of or the variadic overload.
struct Section {
  void (*fn)(void*) = nullptr;
  void* ctx = nullptr;
};

/// Wraps a caller-owned callable (lvalue) as a Section.
template <class F>
[[nodiscard]] Section section_of(F& f) {
  return Section{[](void* p) { (*static_cast<F*>(p))(); },
                 const_cast<void*>(static_cast<const void*>(std::addressof(f)))};
}

/// #pragma omp sections — distributes @p count blocks over the team
/// (dynamic dispatch, one block per grab); implicit barrier after. The
/// span form: callers keep the blocks in any contiguous storage.
void sections(const Section* blocks, std::size_t count);

/// Variadic form: each argument is one section block.
template <class... Fs,
          std::enable_if_t<(sizeof...(Fs) > 0) &&
                               (std::is_invocable_v<Fs&> && ...),
                           int> = 0>
void sections(Fs&&... blocks) {
  const Section arr[] = {section_of(blocks)...};
  sections(arr, sizeof...(Fs));
}

/// #pragma omp taskgroup — runs @p body, then waits for the tasks the
/// current task created *inside the group* (descendants complete
/// transitively — see the runtime docs). Tasks created before the group —
/// e.g. by an enclosing depend task — are NOT waited for.
template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
void taskgroup(F&& body) {
  // Group-scoped wait: only tasks created inside the group are awaited
  // (grandchildren complete transitively — each task drains its own
  // children before finishing in both runtime families).
  Runtime& rt = runtime();
  rt.taskgroup_begin();
  body();
  rt.taskgroup_end();
}

// ---- locks (omp_lock_t / omp_nest_lock_t) -------------------------------

/// omp_lock_t over sched::Mutex: a contended set() suspends the calling
/// ULT (FIFO handoff on unset — no barging); on the pthread runtimes the
/// OS thread parks, matching omp_set_lock semantics there.
class Lock {
 public:
  Lock() = default;
  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

  void set();                  ///< omp_set_lock (blocks)
  [[nodiscard]] bool test();   ///< omp_test_lock (non-blocking)
  void unset();                ///< omp_unset_lock

 private:
  sched::Mutex m_;
};

/// omp_nest_lock_t: re-acquirable by the task that owns it. Ownership is
/// the runtime's task identity; the underlying mutex is held from the
/// first set() to the matching last unset().
class NestLock {
 public:
  NestLock() = default;
  NestLock(const NestLock&) = delete;
  NestLock& operator=(const NestLock&) = delete;

  void set();
  [[nodiscard]] bool test();
  void unset();
  [[nodiscard]] int depth() const {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  sched::Mutex m_;
  std::atomic<const void*> owner_{nullptr};
  std::atomic<int> depth_{0};
};

}  // namespace glto::omp
