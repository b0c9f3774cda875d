#include "probes.hpp"

#include <vector>

#include "apps/bqp.hpp"
#include "apps/cg.hpp"
#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/sync.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace o = glto::omp;
namespace fx = glto::fctx;
namespace gg = glto::glt;
namespace sc = glto::sched;

/// Each probe is timed in kReps repetitions of n operations; the metric
/// is the median repetition divided by n, which keeps one preempted
/// repetition out of the number.
constexpr int kReps = 5;

template <class Fn>
double median_ns_per_op(int n, Fn&& body) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    body(n);
    per_op.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  return median(per_op);
}

// ---- fctx: jump_fcontext ping-pong on a pooled stack ---------------------

void pong_entry(fx::transfer_t t) {
  fx::asan_enter();
  const fx::StackRegion home = *static_cast<const fx::StackRegion*>(t.data);
  for (;;) t = fx::jump_fcontext_to(t.from, nullptr, home);
}

double switch_ns() {
  fx::StackPool& pool = fx::StackPool::global();
  const fx::Stack st = pool.acquire();
  const fx::StackRegion home = fx::os_thread_stack();
  fx::transfer_t t = fx::jump_fcontext_to(
      fx::make_fcontext(st.top, st.size, pong_entry),
      const_cast<fx::StackRegion*>(&home), st.region());
  // One round trip is two switches.
  const double ns = median_ns_per_op(100000, [&](int n) {
    for (int i = 0; i < n; ++i) {
      t = fx::jump_fcontext_to(t.from, nullptr, st.region());
    }
  }) / 2;
  pool.release(st);  // the pong context is abandoned mid-loop, never resumed
  return ns;
}

double stack_acquire_ns() {
  fx::StackPool& pool = fx::StackPool::global();
  return median_ns_per_op(100000, [&](int n) {
    for (int i = 0; i < n; ++i) pool.release(pool.acquire());
  });
}

// ---- glt / glto / omp ----------------------------------------------------

void noop(void*) {}

double ult_create_join_ns() {
  return median_ns_per_op(20000, [](int n) {
    for (int i = 0; i < n; ++i) gg::ult_join(gg::ult_create(noop, nullptr));
  });
}

double region_ns(int threads) {
  return median_ns_per_op(2000, [threads](int n) {
    for (int i = 0; i < n; ++i) o::parallel(threads, [](int, int) {});
  });
}

/// One CG operation minus its kernel: 1,488 empty tasks from the single
/// producer, then taskwait. Returns the median wave in ns.
double task_wave_ns(int threads) {
  const int tasks = glto::apps::cg::tasks_for_granularity(
      glto::apps::cg::kPaperRows, kCgRowsPerTask);
  std::vector<double> waves;
  o::parallel(threads, [&](int, int) {
    o::single([&] {
      for (int w = 0; w < 200; ++w) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < tasks; ++i) o::task([] {});
        o::taskwait();
        waves.push_back(static_cast<double>(now_ns() - t0));
      }
    });
  });
  return median(waves);
}

/// A K-task inout chain on one address: every task waits on its
/// predecessor, so time/K is one dependence edge (register, defer,
/// release, spawn).
double dep_edge_ns(int threads) {
  return median_ns_per_op(5000, [threads](int n) {
    int x = 0;
    o::parallel(threads, [&](int, int) {
      o::single([&] {
        o::TaskFlags f;
        f.depend = {o::dep_inout(&x)};
        for (int i = 0; i < n; ++i) o::task([&x] { ++x; }, f);
        o::taskwait();
      });
    });
  });
}

// ---- sync ----------------------------------------------------------------

struct PingPong {
  sc::Channel<int> there{1};
  sc::Channel<int> back{1};
  int rounds = 0;
};

void ping(void* p) {
  auto* pp = static_cast<PingPong*>(p);
  int v = 0;
  for (int i = 0; i < pp->rounds; ++i) {
    (void)pp->there.send(i);
    (void)pp->back.recv(v);
  }
}

void pong(void* p) {
  auto* pp = static_cast<PingPong*>(p);
  int v = 0;
  for (int i = 0; i < pp->rounds; ++i) {
    (void)pp->there.recv(v);
    (void)pp->back.send(v);
  }
}

double channel_rtt_ns() {
  return median_ns_per_op(5000, [](int n) {
    PingPong pp;
    pp.rounds = n;
    gg::Ult* a = gg::ult_create(ping, &pp);
    gg::Ult* b = gg::ult_create(pong, &pp);
    gg::ult_join(a);
    gg::ult_join(b);
  });
}

struct LateArgs {
  std::vector<double> late_us;
};

/// Event::wait_until with no signaller, on a ULT: how far past its
/// deadline each timed wait returns.
void timed_waits(void* p) {
  auto* a = static_cast<LateArgs*>(p);
  sc::Event ev;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t deadline = now_ns() + 50'000;
    (void)ev.wait_until(deadline);
    a->late_us.push_back(static_cast<double>(now_ns() - deadline) * 1e-3);
  }
}

double barrier_ns(int threads) {
  return median_ns_per_op(2000, [threads](int n) {
    o::parallel(threads, [n](int, int) {
      for (int k = 0; k < n; ++k) o::barrier();
    });
  });
}

// ---- app kernels: the plain single-threaded baselines --------------------

/// Median sequential solve time (ns) over a problem set, each problem
/// solved @p reps times.
double bqp_seq_ns(const std::vector<glto::apps::bqp::Problem>& ps, int reps) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    for (const auto& p : ps) {
      const std::int64_t t0 = now_ns();
      (void)glto::apps::bqp::solve(p, glto::apps::bqp::Mode::sequential);
      ns.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  return median(ns);
}

}  // namespace

void run_probes(std::uint64_t seed, int threads, SpanLog* spans, int parent,
                Metrics& out) {
  // Each probe is its own span; the registry delta rides on it.
  auto probe = [&](const char* name, auto&& fn) {
    Scope sp(spans, std::string("probe.") + name, parent, /*counters=*/true);
    fn();
  };
  probe("fctx.switch",
        [&] { out.add("fctx.switch_ns", switch_ns(), "ns"); });
  probe("fctx.stack_acquire",
        [&] { out.add("fctx.stack_acquire_ns", stack_acquire_ns(), "ns"); });
  probe("glt.ult_create_join", [&] {
    out.add("glt.ult_create_join_ns", ult_create_join_ns(), "ns");
  });
  probe("glto.region",
        [&] { out.add("glto.region_us", region_ns(threads) * 1e-3, "us"); });
  probe("omp.task_wave", [&] {
    out.add("omp.task_wave_us", task_wave_ns(threads) * 1e-3, "us");
  });
  probe("taskdep.edge",
        [&] { out.add("taskdep.edge_ns", dep_edge_ns(threads), "ns"); });
  probe("sync.channel_rtt",
        [&] { out.add("sync.channel_rtt_ns", channel_rtt_ns(), "ns"); });
  probe("sync.timed_wait_late", [&] {
    LateArgs a;
    gg::ult_join(gg::ult_create(timed_waits, &a));
    out.add("sync.timed_wait_late_us.p50", percentile(a.late_us, 50), "us");
    out.add("sync.timed_wait_late_us.p99", percentile(a.late_us, 99), "us");
  });
  probe("sync.barrier",
        [&] { out.add("sync.barrier_ns", barrier_ns(threads), "ns"); });
  probe("bqp.seq_solve", [&] {
    std::vector<glto::apps::bqp::Problem> ps;
    for (int k = 0; k < kInstances; ++k) {
      ps.push_back(glto::apps::bqp::make_problem(kBqpN, kBqpTile, kBqpRank,
                                                 bqp_problem_seed(seed, k)));
    }
    out.add("bqp.seq_solve_ms", bqp_seq_ns(ps, 1) * 1e-6, "ms");
  });
  probe("bqp.service", [&] {
    std::vector<glto::apps::bqp::Problem> ps;
    for (int k = 0; k < kInstances; ++k) {
      ps.push_back(glto::apps::bqp::make_problem(kQpN, kQpTile, kQpRank,
                                                 qp_problem_seed(seed, k)));
    }
    out.add("bqp.service_us", bqp_seq_ns(ps, 8) * 1e-3, "us");
  });
  probe("cg.spmv_seq", [&] {
    namespace cg = glto::apps::cg;
    const cg::Csr a = cg::make_spd_pentadiagonal(cg::kPaperRows);
    std::vector<double> x(static_cast<std::size_t>(a.n), 1.0), y(x.size());
    out.add("cg.spmv_seq_us", median_ns_per_op(100, [&](int n) {
              for (int i = 0; i < n; ++i) glto::apps::cg::spmv_seq(a, x, y);
            }) * 1e-3,
            "us");
  });
}

}  // namespace perfbench
