// perfbench — runs one workload of the repository benchmark.
//
//   perfbench --workload <cg-tasks|bqp-dag|nested-for|qpserver-open>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Every workload runs on glto-abt (the default backend) at min(4, nproc)
// GLT threads. --trace 0 measures the end-to-end metrics with tracing
// off. --trace 1 arms GLTO_METRICS, records the benchmark's own spans
// (written to --spans at exit), reads registry counters at the span
// boundaries, runs the layer probes and prints the per-layer metrics.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// 0 only when every output was correct.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "omp/omp.hpp"
#include "probes.hpp"
#include "sched/metrics.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
namespace o = glto::omp;
namespace sc = glto::sched;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      have_trace = a.trace || std::strcmp(val, "0") == 0;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && have_seconds &&
         have_trace;
}

struct Named {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares, in print order.
constexpr Named kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_us.p50", "us"},
    {"goodput_rps", "1/s"},
};

constexpr Named kPerLayer[] = {
    {"fctx.switch_ns", "ns"},
    {"fctx.stack_acquire_ns", "ns"},
    {"fctx.stack_cache_hit_ratio", "ratio"},
    {"glt.ults_created", "count/op"},
    {"glt.ult_create_join_ns", "ns"},
    {"glto.region_us", "us"},
    {"omp.task_wave_us", "us"},
    {"omp.tasks", "count/op"},
    {"omp.task_spill_ratio", "ratio"},
    {"sched.steals", "count/op"},
    {"sched.failed_steals", "count/op"},
    {"sched.steal_success_ratio", "ratio"},
    {"sched.parks", "count/op"},
    {"sched.parked_us", "us/op"},
    {"sched.wakes_issued", "count/op"},
    {"sched.wakes_spurious", "count/op"},
    {"sched.wake_useful_ratio", "ratio"},
    {"sched.bulk_deposits", "count/op"},
    {"sched.queue_wait_ns.p50", "ns"},
    {"sched.queue_wait_ns.p99", "ns"},
    {"sched.service_ns.p50", "ns"},
    {"sched.service_ns.p99", "ns"},
    {"taskdep.deps_registered", "count/op"},
    {"taskdep.deps_deferred", "count/op"},
    {"taskdep.ready_hits", "count/op"},
    {"taskdep.ready_hit_ratio", "ratio"},
    {"taskdep.edge_ns", "ns"},
    {"sync.suspensions", "count/op"},
    {"sync.wakes_direct", "count/op"},
    {"sync.timed_waits", "count/op"},
    {"sync.timed_wait_timeouts", "count/op"},
    {"sync.channel_rtt_ns", "ns"},
    {"sync.timed_wait_late_us.p50", "us"},
    {"sync.timed_wait_late_us.p99", "us"},
    {"sync.barrier_ns", "ns"},
    {"bqp.seq_solve_ms", "ms"},
    {"bqp.dag_over_seq", "ratio"},
    {"bqp.ipm_iters", "count"},
    {"bqp.kkt", "norm"},
    {"bqp.service_us", "us"},
    {"cg.iters", "count"},
    {"cg.residual", "ratio"},
    {"cg.spmv_seq_us", "us"},
    {"qos.completed.steady", "count"},
    {"qos.shed.steady", "count"},
    {"qos.deadline_missed.steady", "count"},
    {"qos.retried.steady", "count"},
    {"qos.completed.overload", "count"},
    {"qos.shed.overload", "count"},
    {"qos.deadline_missed.overload", "count"},
    {"qos.retried.overload", "count"},
    {"qpserver.admit_ratio.steady", "ratio"},
    {"qpserver.admit_ratio.overload", "ratio"},
    {"qpserver.gen_late_ms.steady", "ms"},
    {"qpserver.gen_late_ms.overload", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"host.steal_ratio", "ratio"},
};

/// Fresh-runtime trials per untraced run; setup_s is the median of their
/// set-ups.
constexpr int kTrials = 8;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics derived from the registry delta over the traced
/// window (per operation, so a faster build running more operations in
/// the same window reads the same) and from omp::task_stats().
void layer_from_counters(const sc::MetricsSnapshot& d, const o::TaskStats& t0,
                         const o::TaskStats& t1, std::uint64_t ops,
                         pb::Metrics& out) {
  const double n = static_cast<double>(ops > 0 ? ops : 1);
  auto v = [&d](const char* name) {
    return static_cast<double>(d.value(name));
  };
  auto per_op = [&](const char* metric, const char* counter) {
    out.add(metric, v(counter) / n, "count/op");
  };
  per_op("glt.ults_created", "glt.ults_created");
  out.add("fctx.stack_cache_hit_ratio",
          ratio(v("sched.stack_cache_hits"), v("glt.ults_created")), "ratio");
  const double tasks =
      static_cast<double>((t1.task_inline + t1.task_alloc) -
                          (t0.task_inline + t0.task_alloc));
  out.add("omp.tasks", tasks / n, "count/op");
  out.add("omp.task_spill_ratio",
          ratio(static_cast<double>(t1.task_alloc - t0.task_alloc), tasks),
          "ratio");
  per_op("sched.steals", "sched.steals");
  per_op("sched.failed_steals", "sched.failed_steals");
  out.add("sched.steal_success_ratio",
          ratio(v("sched.steals"),
                v("sched.steals") + v("sched.failed_steals")),
          "ratio");
  per_op("sched.parks", "sched.parks");
  out.add("sched.parked_us", v("sched.parked_us") / n, "us/op");
  per_op("sched.wakes_issued", "sched.wakes_issued");
  per_op("sched.wakes_spurious", "sched.wakes_spurious");
  out.add("sched.wake_useful_ratio",
          ratio(v("sched.wakes_issued") - v("sched.wakes_spurious"),
                v("sched.wakes_issued")),
          "ratio");
  per_op("sched.bulk_deposits", "sched.bulk_deposits");
  out.add("sched.queue_wait_ns.p50", v("lat.queue_p50_ns"), "ns");
  out.add("sched.queue_wait_ns.p99", v("lat.queue_p99_ns"), "ns");
  out.add("sched.service_ns.p50", v("lat.service_p50_ns"), "ns");
  out.add("sched.service_ns.p99", v("lat.service_p99_ns"), "ns");
  per_op("taskdep.deps_registered", "deps.registered");
  per_op("taskdep.deps_deferred", "deps.deferred");
  per_op("taskdep.ready_hits", "deps.ready_hits");
  out.add("taskdep.ready_hit_ratio",
          ratio(v("deps.ready_hits"), v("deps.deferred")), "ratio");
  per_op("sync.suspensions", "sched.suspensions");
  per_op("sync.wakes_direct", "sched.wakes_direct");
  per_op("sync.timed_waits", "sched.timed_waits");
  per_op("sync.timed_wait_timeouts", "sched.timed_wait_timeouts");
}

/// Prints every name of @p list from @p got (0 where the workload does not
/// run that layer's app) as the metrics object of the result line.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const pb::Metrics& got, const Named* list, std::size_t n) {
  std::map<std::string, double> by_name;
  for (const pb::Metric& m : got.all()) by_name[m.name] = m.value;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    double v = by_name.count(list[i].name) ? by_name[list[i].name] : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", list[i].name, v, list[i].unit);
  }
  std::printf("}}\n");
}

void print_lines(const std::string& workload, const pb::Metrics& m) {
  for (const pb::Metric& x : m.all()) {
    std::printf("%-14s %-34s %16.6f %s\n", workload.c_str(), x.name.c_str(),
                x.value, x.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  if (pb::make_workload(args.workload, 0, 1, 0) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Must precede the first runtime init: the registry resolves it once.
  if (args.trace) ::setenv("GLTO_METRICS", "1", 1);

  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = hw == 0 ? 1 : static_cast<int>(hw < 4 ? hw : 4);
  o::SelectOptions sel;
  sel.num_threads = threads;

  pb::Metrics out;
  pb::RunResult res;
  const pb::CpuTimes cpu0 = pb::cpu_times();
  if (!args.trace) {
    // kTrials trials, each on a fresh runtime: set-up (runtime init +
    // input generation + one warm-up operation), then a window of
    // seconds/kTrials. The host and the runtime settle into different
    // wake-up regimes from one instance to the next, so the samples of
    // all trials are pooled before the figures are taken.
    std::vector<double> setup_s;
    double peak_rss = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const std::int64_t t0 = pb::now_ns();
      o::select(o::RuntimeKind::glto_abt, sel);
      std::unique_ptr<pb::Workload> w =
          pb::make_workload(args.workload, args.seed, threads, t);
      const bool warm_ok = w->setup();
      setup_s.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-9);
      res.merge(w->run(args.seconds / kTrials, nullptr, -1));
      res.correct = res.correct && warm_ok;
      w.reset();
      o::shutdown();
      // The first trial's peak: later trials inherit the stack pool and
      // heap the earlier ones grew, so the process peak only ratchets up
      // with run length.
      if (t == 0) peak_rss = pb::peak_rss_mb();
    }
    out.add("setup_s", pb::median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss, "MB");
    out.add("latency_us.p50", res.latency_p50_us(), "us");
    out.add("goodput_rps", res.goodput_rps(), "1/s");
  } else {
    o::select(o::RuntimeKind::glto_abt, sel);
    std::unique_ptr<pb::Workload> w =
        pb::make_workload(args.workload, args.seed, threads, 0);
    const bool warm_ok = w->setup();
    // Untraced reference half first (histograms disarmed, no spans), then
    // the traced half on the same inputs; their ratio is the overhead.
    sc::metrics_set_for_testing(false);
    const pb::RunResult ref = w->run(args.seconds / 2, nullptr, -1);
    sc::metrics_set_for_testing(true);

    pb::SpanLog log(args.workload);
    sc::queue_delay_hist().reset();
    sc::service_time_hist().reset();
    const o::TaskStats ts0 = o::task_stats();
    const pb::CpuTimes traced0 = pb::cpu_times();
    sc::MetricsSnapshot delta;
    {
      pb::Scope root(&log, args.workload, -1, /*counters=*/true);
      res = w->run(args.seconds / 2, &log, root.id());
      delta = root.finish();
    }
    const o::TaskStats ts1 = o::task_stats();
    out = res.layer;
    layer_from_counters(delta, ts0, ts1, res.ops, out);
    out.add("host.steal_ratio", pb::steal_ratio(traced0, pb::cpu_times()),
            "ratio");
    out.add("trace.overhead_ratio",
            ratio(res.latency_p50_us(), ref.latency_p50_us()), "ratio");
    {
      pb::Scope probes(&log, "probes", -1);
      pb::run_probes(args.seed, threads, &log, probes.id(), out);
    }
    if (args.workload == "bqp-dag") {
      std::map<std::string, double> m;
      for (const pb::Metric& x : out.all()) m[x.name] = x.value;
      out.add("bqp.dag_over_seq",
              ratio(res.latency_p50_us() * 1e-3, m["bqp.seq_solve_ms"]),
              "ratio");
    }
    if (!args.spans_path.empty() && !log.write(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   args.spans_path.c_str());
    }
    res.merge(ref);
    res.correct = res.correct && warm_ok;
    w.reset();
    o::shutdown();
  }

  print_lines(args.workload, pb::own_metrics(args.workload, res));
  std::printf("%-14s %-34s %16.6f %s\n", args.workload.c_str(),
              "host.steal_ratio", pb::steal_ratio(cpu0, pb::cpu_times()),
              "ratio");
  if (args.trace) {
    print_result(res.correct, res.attempted, res.failed, out, kPerLayer,
                 sizeof kPerLayer / sizeof kPerLayer[0]);
  } else {
    print_lines(args.workload, out);
    print_result(res.correct, res.attempted, res.failed, out, kEndToEnd,
                 sizeof kEndToEnd / sizeof kEndToEnd[0]);
  }
  return res.correct ? 0 : 1;
}
