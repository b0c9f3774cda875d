#include "glt/glt.hpp"

#include <algorithm>

#include "abt/abt.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"
#include "sched/chaos.hpp"
#include "sched/trace.hpp"
#include "sched/ult_engine.hpp"
#include "sched/watchdog.hpp"

namespace glto::glt {

namespace {

namespace ult = sched::ult;

struct GltState {
  Config cfg;
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

/// A unit created the way the live backend creates one. Tasklets are
/// native on abt; qth and mth emulate them over ULTs (as in the original
/// GLT), still counted as tasklets. mth spawns work-first and has no
/// placement; otherwise @p tid ≥ 0 pins the unit there, and without a
/// target it lands on the caller's thread (from a foreign thread: rank 0
/// on abt, round-robin on qth). A @p detached unit is auto-free: nobody
/// joins it, and the returned record must not be used.
Ult* create(int tid, WorkFn fn, void* arg, bool tasklet,
            bool detached = false) {
  const Impl impl = g_state->cfg.impl;
  const ult::Unit unit = !tasklet            ? ult::Unit::ult
                         : impl == Impl::abt ? ult::Unit::tasklet
                                             : ult::Unit::emulated_tasklet;
  if (impl == Impl::mth) return ult::spawn(fn, arg, unit, detached);
  const int home = tid >= 0            ? tid
                   : impl == Impl::qth ? qth::fork_shepherd()
                                       : -1;
  Ult* u = ult::alloc(fn, arg, home, /*pinned=*/tid >= 0, unit);
  u->auto_free = detached;
  ult::submit(u);
  return u;
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

int num_threads() { return ult::num_workers(); }

int thread_num() { return ult::self_rank(); }

Ult* ult_create(WorkFn fn, void* arg) {
  return create(-1, fn, arg, /*tasklet=*/false);
}

Ult* ult_create_to(int tid, WorkFn fn, void* arg) {
  GLTO_CHECK(tid >= 0);
  return create(tid, fn, arg, /*tasklet=*/false);
}

void ult_create_detached(int tid, WorkFn fn, void* arg) {
  (void)create(tid, fn, arg, /*tasklet=*/false, /*detached=*/true);
}

void ult_create_bulk(WorkFn fn, void* const* args, int n, Ult** out,
                     bool spread) {
  // mth has no placement (the thief decides): spread is advisory, the
  // batch is queued help-first on the caller's deque.
  const sched::BulkHint hint = spread && g_state->cfg.impl != Impl::mth
                                   ? sched::BulkHint::spread
                                   : sched::BulkHint::local;
  // Detached records are staged on the stack, in waves: once submitted
  // they belong to the engine.
  constexpr int kWave = 256;
  Ult* wave[kWave];
  for (int done = 0; done < n;) {
    const int take = out != nullptr ? n : std::min(kWave, n - done);
    Ult** rs = out != nullptr ? out : wave;
    for (int i = 0; i < take; ++i) {
      rs[i] = ult::alloc(fn, args[done + i], /*home_rank=*/-1,
                         /*pinned=*/false);
      rs[i]->auto_free = out == nullptr;
    }
    ult::submit_bulk(rs, take, hint);
    done += take;
  }
}

bool ult_is_done(Ult* u) { return ult::is_done(u); }

void ult_join(Ult* u) {
  // Watchdog bracket: a blocking join is a potential "parked waiter" —
  // the stall monitor only fires while waiters exist with no scheduler
  // progress, and a join that suspends into other work keeps bumping
  // progress through WsCore::acquire.
  sched::watchdog_enter_wait();
  ult::join(u);
  sched::watchdog_exit_wait();
}

Tasklet* tasklet_create(WorkFn fn, void* arg) {
  return create(-1, fn, arg, /*tasklet=*/true);
}

Tasklet* tasklet_create_to(int tid, WorkFn fn, void* arg) {
  GLTO_CHECK(tid >= 0);
  return create(tid, fn, arg, /*tasklet=*/true);
}

void tasklet_join(Tasklet* t) { ult_join(t); }

void yield() { ult::yield(); }

bool maybe_work() { return ult::maybe_work(); }

void* self_local() { return ult::self_local(); }

void set_self_local(void* p) { ult::set_self_local(p); }

bool supports_stealing() { return g_state->cfg.impl == Impl::mth; }

bool supports_native_tasklets() { return g_state->cfg.impl == Impl::abt; }

Stats stats() {
  Stats s;
  if (g_state != nullptr) {
    const ult::Counters c = ult::counters();
    s.ults_created = c.created;
    s.tasklets_created = c.tasklets;
    // All three backends dispatch through the shared sched::WsCore, so
    // the scheduler-behaviour counters are uniformly meaningful — table3
    // and abl_glt_dispatch sweep GLT_IMPL and compare them directly.
    ult::fill_stats(s);
  }
  return s;
}

}  // namespace glto::glt
