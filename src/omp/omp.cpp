#include "omp/omp.hpp"

#include <atomic>
#include <memory>

#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/shard.hpp"
#include "glto/glto_runtime.hpp"
#include "omp/task_support.hpp"
#include "pomp/pomp_runtime.hpp"
#include "sched/chaos.hpp"
#include "sched/metrics.hpp"
#include "sched/trace.hpp"
#include "sched/watchdog.hpp"

namespace glto::omp {

namespace {

std::unique_ptr<Runtime> g_runtime;
RuntimeKind g_kind = RuntimeKind::glto_abt;

void parse_omp_schedule();

}  // namespace

// ---- descriptor placement counters -----------------------------------------

namespace detail {

namespace {

/// Descriptor-placement counters, sharded per OS thread: a process-wide
/// atomic would put a contended RMW on the very task-spawn path this ABI
/// makes allocation-free.
struct alignas(common::kCacheLine) PlacementSlot {
  std::atomic<std::uint64_t> inline_count{0};
  std::atomic<std::uint64_t> alloc_count{0};
};

common::Sharded<PlacementSlot> g_placement;

}  // namespace

void note_task_inline() { g_placement.bump(&PlacementSlot::inline_count); }

void note_task_alloc() { g_placement.bump(&PlacementSlot::alloc_count); }

std::uint64_t task_inline_count() {
  return g_placement.sum(&PlacementSlot::inline_count);
}

std::uint64_t task_alloc_count() {
  return g_placement.sum(&PlacementSlot::alloc_count);
}

}  // namespace detail

// ---- runtime selection ----------------------------------------------------

const char* kind_name(RuntimeKind k) {
  switch (k) {
    case RuntimeKind::gnu:
      return "gnu";
    case RuntimeKind::intel:
      return "intel";
    case RuntimeKind::glto_abt:
      return "glto-abt";
    case RuntimeKind::glto_qth:
      return "glto-qth";
    case RuntimeKind::glto_mth:
      return "glto-mth";
  }
  return "?";
}

std::optional<RuntimeKind> kind_from_string(std::string_view s) {
  if (s == "gnu" || s == "gcc" || s == "gomp") return RuntimeKind::gnu;
  if (s == "intel" || s == "icc" || s == "iomp") return RuntimeKind::intel;
  if (s == "glto-abt" || s == "abt") return RuntimeKind::glto_abt;
  if (s == "glto-qth" || s == "qth") return RuntimeKind::glto_qth;
  if (s == "glto-mth" || s == "mth") return RuntimeKind::glto_mth;
  return std::nullopt;
}

const std::vector<RuntimeKind>& all_kinds() {
  static const std::vector<RuntimeKind> kinds = {
      RuntimeKind::gnu, RuntimeKind::intel, RuntimeKind::glto_abt,
      RuntimeKind::glto_qth, RuntimeKind::glto_mth};
  return kinds;
}

void select(RuntimeKind kind, const SelectOptions& opts) {
  GLTO_CHECK_MSG(!g_runtime, "omp::select while a runtime is active");
  // Resolve the hardening + observability knobs before any scheduler
  // exists, so every worker loop sees a settled plan from its first
  // acquire.
  sched::chaos_init_from_env();
  sched::watchdog_init_from_env();
  sched::trace_init_from_env();
  sched::metrics_init_from_env();
  switch (kind) {
    case RuntimeKind::gnu:
    case RuntimeKind::intel: {
      pomp::PompOptions p;
      p.num_threads = opts.num_threads;
      p.nested = opts.nested;
      p.bind_threads = opts.bind_threads;
      p.active_wait = opts.active_wait;
      p.task_cutoff = opts.task_cutoff;
      g_runtime = kind == RuntimeKind::gnu ? pomp::make_gnu_runtime(p)
                                           : pomp::make_intel_runtime(p);
      break;
    }
    case RuntimeKind::glto_abt:
    case RuntimeKind::glto_qth:
    case RuntimeKind::glto_mth: {
      rt::GltoOptions g;
      g.impl = kind == RuntimeKind::glto_abt   ? glt::Impl::abt
               : kind == RuntimeKind::glto_qth ? glt::Impl::qth
                                               : glt::Impl::mth;
      g.num_threads = opts.num_threads;
      g.nested = opts.nested;
      g.bind_threads = opts.bind_threads;
      g.shared_queues = opts.shared_queues;
      g_runtime = rt::make_glto_runtime(g);
      break;
    }
  }
  g_kind = kind;
  parse_omp_schedule();
}

void select_from_env() {
  RuntimeKind kind = RuntimeKind::glto_abt;
  if (auto s = common::env_str("OMP_RUNTIME")) {
    if (auto k = kind_from_string(*s)) kind = *k;
  }
  SelectOptions opts;
  opts.nested = common::env_bool("OMP_NESTED", true);
  opts.active_wait =
      common::env_str("OMP_WAIT_POLICY").value_or("active") == "active";
  opts.shared_queues = common::env_bool("GLT_SHARED_QUEUES", false);
  select(kind, opts);
}


void shutdown() {
  GLTO_CHECK_MSG(g_runtime != nullptr, "omp::shutdown without select");
  g_runtime.reset();
  // The pomp runtimes never pass through glt::finalize, so flush here too
  // (benign rewrite when the glto runtimes already flushed).
  sched::trace_flush();
}

bool selected() { return g_runtime != nullptr; }

RuntimeKind current_kind() { return g_kind; }

Runtime& runtime() {
  GLTO_CHECK_MSG(g_runtime != nullptr, "no OpenMP runtime selected");
  return *g_runtime;
}

// ---- directives -----------------------------------------------------------

namespace {

// OMP_SCHEDULE for schedule(runtime); parsed at select() time.
Schedule g_env_sched = Schedule::Static;
std::int64_t g_env_chunk = 0;

void parse_omp_schedule() {
  g_env_sched = Schedule::Static;
  g_env_chunk = 0;
  auto s = common::env_str("OMP_SCHEDULE");
  if (!s) return;
  std::string v = *s;
  const auto comma = v.find(',');
  std::string kind = comma == std::string::npos ? v : v.substr(0, comma);
  if (comma != std::string::npos) {
    g_env_chunk = std::atoll(v.c_str() + comma + 1);
  }
  if (kind == "dynamic") {
    g_env_sched = Schedule::Dynamic;
  } else if (kind == "guided") {
    g_env_sched = Schedule::Guided;
  } else {
    g_env_sched = Schedule::Static;
  }
}

}  // namespace

namespace detail {

void resolve_schedule(Schedule* sched, std::int64_t* chunk) {
  if (*sched == Schedule::Auto) {
    *sched = Schedule::Static;
    *chunk = 0;
  } else if (*sched == Schedule::Runtime) {
    *sched = g_env_sched;
    *chunk = g_env_chunk;
  }
}

}  // namespace detail

void barrier() { runtime().barrier(); }

void task_bulk(TaskDesc* descs, std::size_t n, const TaskFlags& flags) {
  runtime().task_bulk(descs, n, flags);
}

void taskwait() { runtime().taskwait(); }

void taskyield() { runtime().taskyield(); }

bool cancel() { return runtime().cancel_taskgroup(); }

bool cancellation_point() { return runtime().cancellation_requested(); }

bool taskwait_for(std::chrono::microseconds timeout) {
  return runtime().taskwait_for_us(timeout.count());
}

TaskStats task_stats() {
  TaskStats s;
  static_cast<taskdep::Stats&>(s) = runtime().task_stats();
  s.task_inline = detail::task_inline_count();
  s.task_alloc = detail::task_alloc_count();
  return s;
}

// ---- queries ----------------------------------------------------------------

int thread_num() { return runtime().thread_num(); }
int num_threads() { return runtime().team_size(); }
int level() { return runtime().level(); }
int max_threads() { return runtime().default_threads(); }
void set_num_threads(int n) { runtime().set_default_threads(n); }
void set_nested(bool enabled) { runtime().set_nested(enabled); }

// ---- sections ---------------------------------------------------------------

void sections(const Section* blocks, std::size_t count) {
  // One member submits every block as a task in a single bulk spawn and
  // waits; the implicit barrier lets the rest of the team help drain them
  // (pthread runtimes execute queued tasks at barriers; GLTO deposits the
  // batch across its workers with targeted wakes). Replaces the dynamic
  // index loop, which paid one shared-counter grab — and, on GLTO, one
  // broadcast wake per spawned helper — per block.
  Runtime& rt = runtime();
  if (rt.single_try()) {
    constexpr std::size_t kWave = 64;
    TaskDesc wave[kWave];
    std::size_t done = 0;
    while (done < count) {
      const std::size_t take =
          count - done < kWave ? count - done : kWave;
      for (std::size_t i = 0; i < take; ++i) {
        const Section& s = blocks[done + i];
        wave[i] = TaskDesc::make([s] { s.fn(s.ctx); });
      }
      rt.task_bulk(wave, take, {});
      done += take;
    }
    rt.taskwait();
    rt.single_done();
  }
  rt.barrier();
}

// ---- locks ------------------------------------------------------------------

void Lock::set() { m_.lock(); }

bool Lock::test() { return m_.try_lock(); }

void Lock::unset() { m_.unlock(); }

void NestLock::set() {
  const void* self = runtime().task_identity();
  if (owner_.load(std::memory_order_acquire) == self) {
    depth_.fetch_add(1, std::memory_order_relaxed);  // re-entry by the owner
    return;
  }
  m_.lock();  // suspends while another task holds it
  owner_.store(self, std::memory_order_release);
  depth_.store(1, std::memory_order_relaxed);
}

bool NestLock::test() {
  const void* self = runtime().task_identity();
  if (owner_.load(std::memory_order_acquire) == self) {
    depth_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (!m_.try_lock()) return false;
  owner_.store(self, std::memory_order_release);
  depth_.store(1, std::memory_order_relaxed);
  return true;
}

void NestLock::unset() {
  if (depth_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    owner_.store(nullptr, std::memory_order_release);
    m_.unlock();
  }
}

}  // namespace glto::omp
