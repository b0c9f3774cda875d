// Ablation — ULT dispatch throughput of the shared Chase–Lev
// work-stealing core (sched::WsCore), native abt and through the GLT
// facade over all three backends.
//
// Two shapes per threads cell on native abt:
//  * burst  — create kBurst unpinned ULTs from the primary, then join them
//             all: the fine-grained spawn storm of Figs. 4–5. The deque
//             path is lock-free end to end (owner push, freelist pop,
//             stack-cache hit) and idle xstreams steal the backlog.
//  * pingpong — create+join one ULT at a time: dispatch latency, the
//             worst case for any scheduler since there is no parallelism
//             to win back.
//
// A third section sweeps the same burst through the GLT facade for ALL
// three backends — the dispatch-parity ablation: every backend runs the
// shared sched::WsCore. (glt-over-abt doubles as the §III-B "GLT overhead
// is negligible" check against the native abt rows.) Emits JSONL per row
// via $GLTO_BENCH_JSON.
//
// Further sections:
//  * burst-co — the same facade burst joined in *completion order*: a
//    sinc-style counter signals when every unit's body has run, then the
//    joins only reclaim handles (each can at most overlap a unit's
//    completion epilogue, never an unexecuted body). The creation-order
//    join parks main on every unit a lagging thief has not run yet, so
//    this variant isolates pure dispatch cost from join-order artifacts.
//    (A GLT join is the ULT engine's join on every backend; qth's FEB
//    return words serve only its native API.)
//    glt::ult_is_done is the per-handle form of the same probe; its
//    conformance tests live in tests/test_glt.cpp.
//  * omp-task — kBurst omp::task spawns on glto-abt from a single producer
//    and from every team member, plus a taskloop bulk deposit, chaos-hook
//    overhead, and a boxed std::function baseline that spills every
//    payload. task_stats() prints the task_inline/task_alloc split,
//    proving the inline rate.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "abt/abt.hpp"
#include "bench_common.hpp"
#include "glt/glt.hpp"
#include "sched/chaos.hpp"

namespace ga = glto::abt;
namespace gg = glto::glt;
namespace b = glto::bench;
namespace c = glto::common;
namespace o = glto::omp;

namespace {

std::atomic<std::uint64_t> g_sink{0};

void work(void* p) {
  g_sink.fetch_add(reinterpret_cast<std::uintptr_t>(p) + 1,
                   std::memory_order_relaxed);
}

/// Completion-counter variant: the increment is the unit's completion
/// signal (the qthreads "sinc" fan-in shape), so the creator can wait for
/// the whole burst without joining in creation order.
std::atomic<std::uint64_t> g_done{0};

void work_counted(void* p) {
  work(p);
  g_done.fetch_add(1, std::memory_order_release);
}

constexpr int kBurst = 2048;

struct AbtRun {
  explicit AbtRun(int threads) {
    ga::Config cfg;
    cfg.num_xstreams = threads;
    cfg.bind_threads = false;  // container cores < paper cores
    ga::init(cfg);
  }
  ~AbtRun() { ga::finalize(); }
};

double run_burst_abt(int n_units) {
  std::vector<ga::WorkUnit*> us;
  us.reserve(static_cast<std::size_t>(n_units));
  c::Timer t;
  for (int i = 0; i < n_units; ++i) us.push_back(ga::ult_create(work, nullptr));
  for (auto* u : us) ga::join(u);
  return t.elapsed_sec();
}

double run_pingpong_abt(int n_units) {
  c::Timer t;
  for (int i = 0; i < n_units; ++i) {
    ga::join(ga::ult_create(work, nullptr));
  }
  return t.elapsed_sec();
}

}  // namespace

int main() {
  const int reps = b::reps(10);
  const int scale = static_cast<int>(b::scale());
  const int burst = kBurst * scale;

  std::printf("Ablation: ULT dispatch on the Chase–Lev work-stealing core\n");
  std::printf("burst=%d ULTs, pingpong=%d create+join pairs, %d reps/cell\n",
              burst, burst / 4, reps);

  b::print_header("abt dispatch: burst spawn+join (s)");
  for (int nth : b::thread_sweep()) {
    AbtRun rt(nth);
    (void)run_burst_abt(burst);  // warm freelists / stack caches
    auto st = b::time_runs(reps, [&] { (void)run_burst_abt(burst); });
    b::print_row("abt-ws", nth, st);
  }

  b::print_header("abt dispatch: create+join pingpong (s)");
  for (int nth : b::thread_sweep()) {
    AbtRun rt(nth);
    (void)run_pingpong_abt(burst / 4);
    auto st = b::time_runs(reps, [&] { (void)run_pingpong_abt(burst / 4); });
    b::print_row("abt-ws", nth, st);
  }

  // Dispatch-parity sweep: the same burst through the GLT facade over all
  // three backends. One run covers what used to need three GLT_IMPL
  // invocations; glt-over-abt additionally measures the runtime-dispatch
  // layer the paper claims is negligible (§III-B).
  const gg::Impl backends[] = {gg::Impl::abt, gg::Impl::qth, gg::Impl::mth};

  b::print_header("glt backend dispatch parity: burst spawn+join (s)");
  for (const gg::Impl impl : backends) {
    for (int nth : b::thread_sweep()) {
      gg::Config cfg;
      cfg.impl = impl;
      cfg.num_threads = nth;
      cfg.bind_threads = false;
      gg::init(cfg);
      auto run_glt = [&] {
        std::vector<gg::Ult*> us;
        us.reserve(static_cast<std::size_t>(burst));
        for (int i = 0; i < burst; ++i) {
          us.push_back(gg::ult_create(work, nullptr));
        }
        for (auto* u : us) gg::ult_join(u);
      };
      run_glt();  // warm freelists / stack caches
      auto st = b::time_runs(reps, run_glt);
      char row[64];
      std::snprintf(row, sizeof row, "%s-ws", gg::impl_name(impl));
      b::print_row(row, nth, st);
      const auto gs = gg::stats();
      std::printf(
          "    steals=%llu failed_steals=%llu stack_cache_hits=%llu "
          "parks=%llu\n",
          static_cast<unsigned long long>(gs.steals),
          static_cast<unsigned long long>(gs.failed_steals),
          static_cast<unsigned long long>(gs.stack_cache_hits),
          static_cast<unsigned long long>(gs.parks));
      gg::finalize();
    }
  }

  // Completion-order burst: identical spawn storm, but main waits on a
  // sinc-style completion counter (each ULT's body ends with one atomic
  // increment) and only joins the handles once every body has run, in
  // whatever order the units actually executed. No join can stall on a
  // not-yet-stolen ULT while completed ones wait behind it, so the cell
  // measures pure dispatch throughput.
  b::print_header("glt dispatch parity: burst, completion-order join (s)");
  for (const gg::Impl impl : backends) {
    for (int nth : b::thread_sweep()) {
      gg::Config cfg;
      cfg.impl = impl;
      cfg.num_threads = nth;
      cfg.bind_threads = false;
      gg::init(cfg);
      auto run_co = [&] {
        const std::uint64_t base = g_done.load(std::memory_order_relaxed);
        std::vector<gg::Ult*> us;
        us.reserve(static_cast<std::size_t>(burst));
        for (int i = 0; i < burst; ++i) {
          us.push_back(gg::ult_create(work_counted, nullptr));
        }
        while (g_done.load(std::memory_order_acquire) - base <
               static_cast<std::uint64_t>(burst)) {
          gg::yield();  // run/steal the backlog instead of blocking
        }
        // Every unit has run its body; joins only reclaim handles (a
        // unit may still be in its completion epilogue — ult_is_done
        // can lag the counter by a few instructions — so the join, not
        // the probe, is the reclaim step).
        for (auto* u : us) gg::ult_join(u);
      };
      run_co();  // warm freelists / stack caches
      auto st = b::time_runs(reps, run_co);
      char row[64];
      std::snprintf(row, sizeof row, "%s-ws-co", gg::impl_name(impl));
      b::print_row(row, nth, st);
      gg::finalize();
    }
  }

  // omp::task descriptor ablation (task ABI v2): the fig14-shaped single
  // producer, kBurst tasks per run, over glto-abt. "v2" spawns tasks with
  // a capture-free callable (inline descriptor payload, freelist-recycled
  // TaskArg — zero heap allocations after warm-up); "boxed" (below) pushes
  // the same work as a std::function (type-erased callable + spilled
  // payload on every spawn). JSONL rows carry park/wake counter deltas so
  // BENCH_dispatch.json can attribute wins to the wakeup protocol rather
  // than container noise.
  const auto wake_kv = [](const gg::Stats& s0, const gg::Stats& s1) {
    char kv[256];
    std::snprintf(
        kv, sizeof kv,
        "\"parks\": %llu, \"wakes_issued\": %llu, "
        "\"wakes_spurious\": %llu, \"bulk_deposits\": %llu",
        static_cast<unsigned long long>(s1.parks - s0.parks),
        static_cast<unsigned long long>(s1.wakes_issued - s0.wakes_issued),
        static_cast<unsigned long long>(s1.wakes_spurious -
                                        s0.wakes_spurious),
        static_cast<unsigned long long>(s1.bulk_deposits -
                                        s0.bulk_deposits));
    return std::string(kv);
  };

  b::print_header("omp task burst on glto-abt: single producer (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const auto run_v2 = [&] {
      o::parallel([&](int, int) {
        o::single([&] {
          for (int i = 0; i < burst; ++i) {
            o::task([] { g_sink.fetch_add(1, std::memory_order_relaxed); });
          }
          o::taskwait();
        });
      });
    };
    run_v2();  // warm the record freelists
    const auto before = o::task_stats();
    const auto gs0 = gg::stats();
    auto st = b::time_runs(reps, run_v2);
    const auto gs1 = gg::stats();
    const auto after = o::task_stats();
    b::print_row_json("task-v2", nth, st, wake_kv(gs0, gs1));
    std::printf(
        "    task_inline=+%llu task_alloc=+%llu (inline rate %.1f%%) "
        "parks=+%llu wakes=+%llu spurious=+%llu\n",
        static_cast<unsigned long long>(after.task_inline -
                                        before.task_inline),
        static_cast<unsigned long long>(after.task_alloc - before.task_alloc),
        100.0 * static_cast<double>(after.task_inline - before.task_inline) /
            static_cast<double>((after.task_inline - before.task_inline) +
                                (after.task_alloc - before.task_alloc) +
                                1e-9),
        static_cast<unsigned long long>(gs1.parks - gs0.parks),
        static_cast<unsigned long long>(gs1.wakes_issued - gs0.wakes_issued),
        static_cast<unsigned long long>(gs1.wakes_spurious -
                                        gs0.wakes_spurious));
    o::shutdown();
  }

  // Multi-producer fan-out: every team member is a producer — nth
  // concurrent spawners each burst burst/nth tasks onto their own deques
  // and taskwait. Targeted wakes + stealing should hold the line as nth
  // grows.
  b::print_header("omp task fan-out on glto-abt: multi-producer (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const int per_member = burst / (nth > 0 ? nth : 1);
    const auto run_mp = [&] {
      o::parallel([&](int, int) {
        for (int i = 0; i < per_member; ++i) {
          o::task([] { g_sink.fetch_add(1, std::memory_order_relaxed); });
        }
        o::taskwait();
      });
    };
    run_mp();  // warm the record freelists
    const auto gs0 = gg::stats();
    auto st = b::time_runs(reps, run_mp);
    const auto gs1 = gg::stats();
    b::print_row_json("task-mp", nth, st, wake_kv(gs0, gs1));
    o::shutdown();
  }

  // Producer taskloop: the same 2048 indices as the single-producer cell,
  // but carved into grain-64 chunks that cross the runtime as ONE bulk
  // deposit (omp::taskloop → task_bulk → WsCore::submit_bulk) — the
  // batch-spawn half of the fan-out PR, measured beside the per-task path.
  b::print_header("omp taskloop burst on glto-abt: bulk grain chunks (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const auto run_tl = [&] {
      o::parallel([&](int, int) {
        o::single([&] {
          o::taskloop(0, burst, 64, [](std::int64_t) {
            g_sink.fetch_add(1, std::memory_order_relaxed);
          });
        });
      });
    };
    run_tl();
    const auto gs0 = gg::stats();
    auto st = b::time_runs(reps, run_tl);
    const auto gs1 = gg::stats();
    b::print_row_json("taskloop-g64", nth, st, wake_kv(gs0, gs1));
    o::shutdown();
  }
  // Chaos-harness overhead: the same single-producer burst with the
  // fault-injection hooks (a) disarmed — the shipping default, where every
  // hook is one relaxed load of g_chaos_on and a predicted branch — and
  // (b) armed at the CI chaos leg's probabilities. The off row must sit
  // within noise of the task-v2 cells above (the hardening layer is free
  // when unused); the on row prices what the chaos CI leg actually pays.
  b::print_header("omp task burst on glto-abt: chaos harness overhead (s)");
  {
    struct ChaosMode {
      const char* name;
      glto::sched::ChaosConfig cfg;  // default-constructed = off
    };
    ChaosMode chaos_modes[2];
    chaos_modes[0].name = "task-chaos-off";
    chaos_modes[1].name = "task-chaos-on";
    chaos_modes[1].cfg.enabled = true;
    chaos_modes[1].cfg.spawn_p = 0.02;
    chaos_modes[1].cfg.alloc_p = 0.05;
    chaos_modes[1].cfg.delay_p = 0.01;
    chaos_modes[1].cfg.seed = 42;
    for (const ChaosMode& cm : chaos_modes) {
      for (int nth : b::thread_sweep()) {
        b::select_runtime(o::RuntimeKind::glto_abt, nth);
        glto::sched::chaos_set_for_testing(cm.cfg);
        const auto run_chaos = [&] {
          o::parallel([&](int, int) {
            o::single([&] {
              for (int i = 0; i < burst; ++i) {
                o::task(
                    [] { g_sink.fetch_add(1, std::memory_order_relaxed); });
              }
              o::taskwait();
            });
          });
        };
        run_chaos();  // warm the record freelists
        const auto f0 = glto::sched::chaos_faults_injected();
        auto st = b::time_runs(reps, run_chaos);
        const auto f1 = glto::sched::chaos_faults_injected();
        char kv[96];
        std::snprintf(kv, sizeof kv,
                      "\"chaos\": %s, \"faults_injected\": %llu",
                      cm.cfg.enabled ? "true" : "false",
                      static_cast<unsigned long long>(f1 - f0));
        b::print_row_json(cm.name, nth, st, kv);
        glto::sched::chaos_set_for_testing({});
        o::shutdown();
      }
    }
  }

  b::print_header("omp task burst on glto-abt: boxed std::function (s)");
  for (int nth : b::thread_sweep()) {
    b::select_runtime(o::RuntimeKind::glto_abt, nth);
    const auto run_boxed = [&] {
      o::parallel([&](int, int) {
        o::single([&] {
          for (int i = 0; i < burst; ++i) {
            std::function<void()> fn = [] {
              g_sink.fetch_add(1, std::memory_order_relaxed);
            };
            o::task(std::move(fn));  // spills: measured on purpose
          }
          o::taskwait();
        });
      });
    };
    run_boxed();
    const auto before = o::task_stats();
    auto st = b::time_runs(reps, run_boxed);
    const auto after = o::task_stats();
    b::print_row("task-boxed", nth, st);
    std::printf("    task_inline=+%llu task_alloc=+%llu\n",
                static_cast<unsigned long long>(after.task_inline -
                                                before.task_inline),
                static_cast<unsigned long long>(after.task_alloc -
                                                before.task_alloc));
    o::shutdown();
  }

  std::printf("\nsink=%llu\n",
              static_cast<unsigned long long>(g_sink.load()));
  return 0;
}
