#include "glt/glt.hpp"

#include <atomic>

#include "abt/abt.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"
#include "sched/chaos.hpp"
#include "sched/trace.hpp"
#include "sched/watchdog.hpp"

namespace glto::glt {

namespace {

struct GltState {
  Config cfg;
  std::atomic<std::uint64_t> ults_created{0};
  std::atomic<std::uint64_t> tasklets_created{0};
  std::uint64_t metrics_token = 0;
};

GltState* g_state = nullptr;

/// Metrics provider: publish the live backend's counters as named entries
/// (registered for the lifetime of the glt instance).
void glt_metrics_provider(void* /*arg*/, sched::MetricsSnapshot& out) {
  const Stats s = stats();
  out.add("glt.ults_created", s.ults_created);
  out.add("glt.tasklets_created", s.tasklets_created);
  out.add("sched.steals", s.steals);
  out.add("sched.failed_steals", s.failed_steals);
  out.add("sched.stack_cache_hits", s.stack_cache_hits);
  out.add("sched.parks", s.parks);
  out.add("sched.parked_us", s.parked_us);
  out.add("sched.wakes_issued", s.wakes_issued);
  out.add("sched.wakes_spurious", s.wakes_spurious);
  out.add("sched.bulk_deposits", s.bulk_deposits);
  // Blocking-primitive traffic (sched/sync.hpp): contexts parked on wait
  // lists, and parked ULTs handed straight back to a worker deque.
  out.add("sched.suspensions", sched::suspensions());
  out.add("sched.wakes_direct", sched::wakes_direct());
  out.add("sched.timed_waits", sched::timed_waits());
  out.add("sched.timed_wait_timeouts", sched::timed_wait_timeouts());
}

/// Heap wrapper for backends whose native spawn signature differs from
/// WorkFn (qth returns aligned_t) or that need a join word (qth).
struct QthUltRecord {
  WorkFn fn;
  void* arg;
  qth::aligned_t ret = 0;
};

qth::aligned_t qth_trampoline(void* p) {
  auto* rec = static_cast<QthUltRecord*>(p);
  rec->fn(rec->arg);
  return 0;
}

}  // namespace

const char* impl_name(Impl impl) {
  switch (impl) {
    case Impl::abt:
      return "abt";
    case Impl::qth:
      return "qth";
    case Impl::mth:
      return "mth";
  }
  return "?";
}

std::optional<Impl> impl_from_string(std::string_view name) {
  if (name == "abt" || name == "argobots") return Impl::abt;
  if (name == "qth" || name == "qthreads") return Impl::qth;
  if (name == "mth" || name == "massivethreads") return Impl::mth;
  return std::nullopt;
}

Config config_from_env() {
  Config cfg;
  if (auto s = common::env_str("GLT_IMPL")) {
    if (auto impl = impl_from_string(*s)) cfg.impl = *impl;
  }
  cfg.num_threads = static_cast<int>(common::env_i64("GLT_NUM_THREADS", 0));
  cfg.shared_queues = common::env_bool("GLT_SHARED_QUEUES", false);
  return cfg;
}

void init(const Config& cfg) {
  GLTO_CHECK_MSG(g_state == nullptr, "glt::init called twice");
  // Hardening knobs resolve before any worker exists, so every thread the
  // backends spawn sees a settled chaos plan / watchdog window. (The omp
  // facade also resolves these; both entry points are idempotent.)
  sched::chaos_init_from_env();
  sched::watchdog_init_from_env();
  sched::trace_init_from_env();
  sched::metrics_init_from_env();
  g_state = new GltState();
  g_state->cfg = cfg;
  g_state->metrics_token =
      sched::metrics_register_provider(glt_metrics_provider, nullptr);
  switch (cfg.impl) {
    case Impl::abt: {
      abt::Config c;
      c.num_xstreams = cfg.num_threads;
      c.shared_pool = cfg.shared_queues;
      c.bind_threads = cfg.bind_threads;
      abt::init(c);
      break;
    }
    case Impl::qth: {
      qth::Config c;
      c.num_shepherds = cfg.num_threads;
      c.bind_threads = cfg.bind_threads;
      c.shared_pool = cfg.shared_queues;
      qth::init(c);
      break;
    }
    case Impl::mth: {
      mth::Config c;
      c.num_workers = cfg.num_threads;
      c.bind_threads = cfg.bind_threads;
      c.pin_main = cfg.pin_main;
      c.shared_pool = cfg.shared_queues;
      mth::init(c);
      break;
    }
  }
}

void finalize() {
  GLTO_CHECK_MSG(g_state != nullptr, "glt::finalize without init");
  switch (g_state->cfg.impl) {
    case Impl::abt:
      abt::finalize();
      break;
    case Impl::qth:
      qth::finalize();
      break;
    case Impl::mth:
      mth::finalize();
      break;
  }
  sched::metrics_unregister_provider(g_state->metrics_token);
  delete g_state;
  g_state = nullptr;
  // Export whatever the rings hold so far; later instances (or atexit)
  // simply rewrite the file with more history.
  sched::trace_flush();
}

bool initialized() { return g_state != nullptr; }

Impl current_impl() {
  GLTO_CHECK(g_state != nullptr);
  return g_state->cfg.impl;
}

int num_threads() {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return abt::num_xstreams();
    case Impl::qth:
      return qth::num_shepherds();
    case Impl::mth:
      return mth::num_workers();
  }
  return 0;
}

int thread_num() {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return abt::self_rank();
    case Impl::qth:
      return qth::shep_rank();
    case Impl::mth:
      return mth::worker_rank();
  }
  return -1;
}

Ult* ult_create(WorkFn fn, void* arg) {
  g_state->ults_created.fetch_add(1, std::memory_order_relaxed);
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return reinterpret_cast<Ult*>(abt::ult_create(fn, arg));
    case Impl::qth: {
      auto* rec = new QthUltRecord{fn, arg, 0};
      qth::fork(qth_trampoline, rec, &rec->ret);
      return reinterpret_cast<Ult*>(rec);
    }
    case Impl::mth:
      return reinterpret_cast<Ult*>(mth::create(fn, arg));
  }
  return nullptr;
}

Ult* ult_create_to(int tid, WorkFn fn, void* arg) {
  g_state->ults_created.fetch_add(1, std::memory_order_relaxed);
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return reinterpret_cast<Ult*>(abt::ult_create_on(tid, fn, arg));
    case Impl::qth: {
      auto* rec = new QthUltRecord{fn, arg, 0};
      qth::fork_to(tid, qth_trampoline, rec, &rec->ret);
      return reinterpret_cast<Ult*>(rec);
    }
    case Impl::mth:
      // mth has no placement: work-first + stealing decide (documented).
      return reinterpret_cast<Ult*>(mth::create(fn, arg));
  }
  return nullptr;
}

void ult_create_bulk(WorkFn fn, void* const* args, int n, Ult** out,
                     bool spread) {
  if (n <= 0) return;
  g_state->ults_created.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
  switch (g_state->cfg.impl) {
    case Impl::abt:
      abt::ult_create_bulk(fn, args, n,
                           reinterpret_cast<abt::WorkUnit**>(out), spread);
      break;
    case Impl::qth: {
      // The qth shape needs a per-ULT record (trampoline + return-word
      // FEB); records are built in waves so the argument arrays stay on
      // the stack while the batch deposit itself remains bulk.
      constexpr int kWave = 256;
      void* qargs[kWave];
      qth::aligned_t* qrets[kWave];
      int done = 0;
      while (done < n) {
        const int take = n - done < kWave ? n - done : kWave;
        for (int i = 0; i < take; ++i) {
          auto* rec = new QthUltRecord{fn, args[done + i], 0};
          out[done + i] = reinterpret_cast<Ult*>(rec);
          qargs[i] = rec;
          qrets[i] = &rec->ret;
        }
        qth::fork_bulk(qth_trampoline, qargs, qrets, take, spread);
        done += take;
      }
      break;
    }
    case Impl::mth:
      // mth has no placement (the thief decides): spread is advisory, the
      // batch is queued help-first on the caller's deque.
      mth::create_bulk(fn, args, n, reinterpret_cast<mth::Strand**>(out));
      break;
  }
}

bool ult_is_done(Ult* u) {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return abt::is_done(reinterpret_cast<abt::WorkUnit*>(u));
    case Impl::qth:
      // The qthread's completion fills its return-word FEB; probing the
      // word's full bit is Qthreads' native non-blocking completion test.
      return qth::feb_is_full(&reinterpret_cast<QthUltRecord*>(u)->ret);
    case Impl::mth:
      return mth::is_done(reinterpret_cast<mth::Strand*>(u));
  }
  return false;
}

void ult_join(Ult* u) {
  // Watchdog bracket: a blocking join is a potential "parked waiter" —
  // the stall monitor only fires while waiters exist with no scheduler
  // progress, and a join that suspends into backend work keeps bumping
  // progress through WsCore::acquire.
  sched::watchdog_enter_wait();
  switch (g_state->cfg.impl) {
    case Impl::abt:
      abt::join(reinterpret_cast<abt::WorkUnit*>(u));
      break;
    case Impl::qth: {
      auto* rec = reinterpret_cast<QthUltRecord*>(u);
      qth::aligned_t sink = 0;
      qth::readFF(&sink, &rec->ret);
      delete rec;
      break;
    }
    case Impl::mth:
      mth::join(reinterpret_cast<mth::Strand*>(u));
      break;
  }
  sched::watchdog_exit_wait();
}

Tasklet* tasklet_create(WorkFn fn, void* arg) {
  g_state->tasklets_created.fetch_add(1, std::memory_order_relaxed);
  if (g_state->cfg.impl == Impl::abt) {
    return reinterpret_cast<Tasklet*>(abt::tasklet_create(fn, arg));
  }
  // qth/mth: tasklets are emulated over ULTs (as in the original GLT).
  auto* t = reinterpret_cast<Tasklet*>(ult_create(fn, arg));
  // Keep the counters disjoint: the emulation ULT is reported as a tasklet.
  g_state->ults_created.fetch_sub(1, std::memory_order_relaxed);
  return t;
}

Tasklet* tasklet_create_to(int tid, WorkFn fn, void* arg) {
  g_state->tasklets_created.fetch_add(1, std::memory_order_relaxed);
  if (g_state->cfg.impl == Impl::abt) {
    return reinterpret_cast<Tasklet*>(abt::tasklet_create_on(tid, fn, arg));
  }
  auto* t = reinterpret_cast<Tasklet*>(ult_create_to(tid, fn, arg));
  g_state->ults_created.fetch_sub(1, std::memory_order_relaxed);
  return t;
}

void tasklet_join(Tasklet* t) {
  if (g_state->cfg.impl == Impl::abt) {
    sched::watchdog_enter_wait();
    abt::join(reinterpret_cast<abt::WorkUnit*>(t));
    sched::watchdog_exit_wait();
    return;
  }
  ult_join(reinterpret_cast<Ult*>(t));
}

void yield() {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      abt::yield();
      break;
    case Impl::qth:
      qth::yield();
      break;
    case Impl::mth:
      mth::yield();
      break;
  }
}

bool maybe_work() {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return abt::maybe_work();
    case Impl::qth:
      return qth::maybe_work();
    case Impl::mth:
      return mth::maybe_work();
  }
  return false;
}

void* self_local() {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      return abt::self_local();
    case Impl::qth:
      return qth::self_local();
    case Impl::mth:
      return mth::self_local();
  }
  return nullptr;
}

void set_self_local(void* p) {
  switch (g_state->cfg.impl) {
    case Impl::abt:
      abt::set_self_local(p);
      break;
    case Impl::qth:
      qth::set_self_local(p);
      break;
    case Impl::mth:
      mth::set_self_local(p);
      break;
  }
}

bool supports_stealing() { return g_state->cfg.impl == Impl::mth; }

bool supports_native_tasklets() { return g_state->cfg.impl == Impl::abt; }

Stats stats() {
  Stats s;
  if (g_state != nullptr) {
    s.ults_created = g_state->ults_created.load(std::memory_order_relaxed);
    s.tasklets_created =
        g_state->tasklets_created.load(std::memory_order_relaxed);
    // All three backends dispatch through the shared sched::WsCore, so
    // the scheduler-behaviour counters are uniformly meaningful — table3
    // and abl_glt_dispatch sweep GLT_IMPL and compare them directly.
    // Every backend Stats inherits sched::StatsSnapshot: one slice
    // assignment replaces the old per-backend field-by-field copies.
    sched::StatsSnapshot& base = s;
    switch (g_state->cfg.impl) {
      case Impl::abt:
        base = abt::stats();
        break;
      case Impl::mth:
        base = mth::stats();
        break;
      case Impl::qth:
        base = qth::stats();
        break;
    }
  }
  return s;
}

}  // namespace glto::glt
