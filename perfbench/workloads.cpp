#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "apps/bqp.hpp"
#include "apps/cg.hpp"
#include "apps/qpserver.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"

namespace perfbench {

namespace {

namespace o = glto::omp;
namespace cg = glto::apps::cg;
namespace bqp = glto::apps::bqp;
namespace qp = glto::apps::qpserver;

/// Batch workloads: operations back to back until the window closes, in
/// whole rounds of @p round operations (one pass over an instance set, so
/// per-operation counts do not depend on where the window ended).
template <class Op>
RunResult run_batch(double seconds, std::size_t round, SpanLog* spans,
                    int parent, const char* span_name, Op&& op) {
  RunResult res;
  const std::int64_t t_start = now_ns();
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < t_end || res.op_us.empty() ||
         res.op_us.size() % round != 0) {
    Scope sp(spans, span_name, parent);
    const std::int64_t t0 = now_ns();
    const bool ok = op();
    res.op_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    ++res.attempted;
    if (!ok) ++res.failed;
  }
  res.window_goodput.push_back(
      static_cast<double>(res.attempted - res.failed) /
      (static_cast<double>(now_ns() - t_start) * 1e-9));
  res.ops = res.op_us.size();
  res.correct = res.failed == 0;
  return res;
}

// --------------------------------------------------------------- cg-tasks

constexpr double kCgTol = 1e-10;
/// CG iterations to 1e-10 on the paper's pentadiagonal matrix with rhs = 1:
/// the exact count is part of the correctness gate.
constexpr int kCgExpectedIters = 37;

class CgTasks final : public Workload {
 public:
  bool setup() override {
    a_ = cg::make_spd_pentadiagonal(cg::kPaperRows);
    b_.assign(static_cast<std::size_t>(a_.n), 1.0);
    ax_.assign(b_.size(), 0.0);
    bnorm_ = std::sqrt(static_cast<double>(a_.n));
    return solve_checked();
  }

  RunResult run(double seconds, SpanLog* spans, int parent) override {
    RunResult res = run_batch(seconds, 1, spans, parent, "cg.solve",
                              [&] { return solve_checked(); });
    res.layer.add("cg.iters", last_.iterations, "count");
    res.layer.add("cg.residual", last_.residual_norm / bnorm_, "ratio");
    return res;
  }

 private:
  bool solve_checked() {
    last_ = cg::solve_tasks(a_, b_, x_, 4 * kCgExpectedIters, kCgTol,
                            kCgRowsPerTask);
    // The recurrence residual must meet tol, and so must the true one.
    cg::spmv_seq(a_, x_, ax_);
    double rr = 0.0;
    for (std::size_t i = 0; i < ax_.size(); ++i) {
      const double d = b_[i] - ax_[i];
      rr += d * d;
    }
    const double rel_true = std::sqrt(rr) / bnorm_;
    return last_.converged && last_.iterations == kCgExpectedIters &&
           last_.residual_norm <= kCgTol * bnorm_ && rel_true <= 10 * kCgTol;
  }

  cg::Csr a_;
  std::vector<double> b_, x_, ax_;
  double bnorm_ = 1.0;
  cg::Result last_;
};

// ---------------------------------------------------------------- bqp-dag

constexpr double kBqpKktMax = 1e-8;

class BqpDag final : public Workload {
 public:
  explicit BqpDag(std::uint64_t seed) : seed_(seed) {}

  bool setup() override {
    problems_.clear();
    ref_iters_.clear();
    for (int k = 0; k < kInstances; ++k) {
      problems_.push_back(bqp::make_problem(kBqpN, kBqpTile, kBqpRank,
                                            bqp_problem_seed(seed_, k)));
      const bqp::Result ref =
          bqp::solve(problems_.back(), bqp::Mode::sequential);
      ref_iters_.push_back(ref.converged ? ref.iters : -1);
    }
    return solve_checked();
  }

  RunResult run(double seconds, SpanLog* spans, int parent) override {
    max_kkt_ = 0.0;
    RunResult res = run_batch(seconds, problems_.size(), spans, parent,
                              "bqp.solve", [&] { return solve_checked(); });
    double iters = 0.0;
    for (int it : ref_iters_) iters += it;
    res.layer.add("bqp.ipm_iters", iters / kInstances, "count");
    res.layer.add("bqp.kkt", max_kkt_, "norm");
    return res;
  }

 private:
  /// Solves the next problem of the set (round robin) in taskdep mode.
  bool solve_checked() {
    const std::size_t k = next_++ % problems_.size();
    const bqp::Result r = bqp::solve(problems_[k], bqp::Mode::taskdep);
    if (r.kkt > max_kkt_) max_kkt_ = r.kkt;
    return r.converged && r.kkt <= kBqpKktMax && r.iters == ref_iters_[k];
  }

  std::uint64_t seed_;
  std::vector<bqp::Problem> problems_;
  std::vector<int> ref_iters_;  ///< sequential baseline, per problem
  std::size_t next_ = 0;
  double max_kkt_ = 0.0;
};

// ------------------------------------------------------------- nested-for

/// Paper Listing 1 at Fig. 9 scale.
constexpr std::int64_t kNestedIters = 1000;

class NestedFor final : public Workload {
 public:
  explicit NestedFor(int threads)
      : expected_ults_(static_cast<std::uint64_t>(kNestedIters + 1) *
                       static_cast<std::uint64_t>(threads - 1)) {}

  bool setup() override { return sweep_checked(); }

  RunResult run(double seconds, SpanLog* spans, int parent) override {
    return run_batch(seconds, 1, spans, parent, "nested.sweep",
                     [&] { return sweep_checked(); });
  }

 private:
  bool sweep_checked() {
    const std::uint64_t before = glto::glt::stats().ults_created;
    o::parallel([](int, int) {
      o::loop(0, kNestedIters, {o::Schedule::Static, 0},
              [](std::int64_t b, std::int64_t e) {
                for (std::int64_t i = b; i < e; ++i) {
                  o::parallel([](int, int) {
                    o::loop(0, kNestedIters, {o::Schedule::Static, 0},
                            [](std::int64_t, std::int64_t) {});
                  });
                }
              });
    });
    return glto::glt::stats().ults_created - before == expected_ults_;
  }

  std::uint64_t expected_ults_;
};

// ---------------------------------------------------------- qpserver-open

constexpr int kQpIters = 40;
constexpr double kSteadyRps = 3000.0;
constexpr double kOverloadRps = 9000.0;
/// Each phase is a series of qpserver::run calls of this length.
constexpr double kCallSeconds = 0.75;

class QpServerOpen final : public Workload {
 public:
  QpServerOpen(std::uint64_t seed, int trial) : seed_(seed), trial_(trial) {}

  bool setup() override {
    // Warm-up: a short closed-loop burst fills stack caches and freelists.
    const qp::Report rep = qp::run(config(instance(0), 0.0, 256));
    return rep.completed + rep.shed + rep.deadline_missed == rep.offered &&
           rep.not_converged == 0;
  }

  RunResult run(double seconds, SpanLog* spans, int parent) override {
    calls_ = std::max(
        1, static_cast<int>(std::lround(seconds / (2 * kCallSeconds))));
    RunResult res;
    const qp::Report steady = phase("steady", kSteadyRps, spans, parent, res);
    const qp::Report over = phase("overload", kOverloadRps, spans, parent, res);
    res.ops = steady.offered + over.offered;
    // fail_ratio counts the steady phase: a request shed, missed or left
    // unconverged at a rate the service is sized for is a failure.
    res.attempted = steady.offered;
    res.failed = steady.shed + steady.deadline_missed + steady.not_converged;
    return res;
  }

 private:
  /// Call k of this trial runs on its own problem instance.
  std::uint64_t instance(int k) const {
    return qp_problem_seed(seed_, trial_ * calls_ + k);
  }

  static qp::Config config(std::uint64_t seed, double rps, int requests) {
    qp::Config c;
    c.requests = requests;
    c.concurrency = 4;
    c.queue_depth = 64;
    c.n = kQpN;
    c.tile = kQpTile;
    c.rank = kQpRank;
    c.max_iters = kQpIters;
    c.seed = seed;
    c.deadline_ms = 20;
    c.retries = 2;
    c.backoff_us = 200;
    c.degrade = false;  // degrade trades accuracy for goodput
    c.arrival_rps = rps;
    return c;
  }

  /// One paced open-loop phase at @p rps; returns the calls' Reports
  /// summed and records each call's figures in @p res.
  qp::Report phase(const char* name, double rps, SpanLog* spans, int parent,
                   RunResult& res) {
    const std::string span = std::string("qpserver.") + name;
    const bool steady = rps == kSteadyRps;
    const int requests = static_cast<int>(rps * kCallSeconds);
    Scope sp(spans, span, parent, /*counters=*/true);
    qp::Report sum;
    double late_ms = 0.0;
    for (int k = 0; k < calls_; ++k) {
      Scope call(spans, span + ".call", sp.id());
      const qp::Report rep = qp::run(config(instance(k), rps, requests));
      (void)call.finish();
      // Accounting is exact, and a completed solve must have converged.
      if (rep.completed + rep.shed + rep.deadline_missed != rep.offered ||
          rep.not_converged != 0) {
        res.correct = false;
      }
      sum.offered += rep.offered;
      sum.completed += rep.completed;
      sum.shed += rep.shed;
      sum.deadline_missed += rep.deadline_missed;
      sum.retried += rep.retried;
      sum.not_converged += rep.not_converged;
      sum.elapsed_s += rep.elapsed_s;
      late_ms += (rep.elapsed_s - static_cast<double>(rep.offered) / rps) * 1e3;
      if (steady) {
        res.call_p50_us.push_back(static_cast<double>(rep.p50_us));
        res.call_p99_us.push_back(static_cast<double>(rep.p99_us));
      } else {
        res.window_goodput.push_back(rep.goodput_rps);
      }
    }
    // The registry's QoS counters must agree with the Reports exactly.
    const glto::sched::MetricsSnapshot d = sp.finish();
    if (d.value("qos.completed") != sum.completed ||
        d.value("qos.shed") != sum.shed ||
        d.value("qos.deadline_missed") != sum.deadline_missed ||
        d.value("qos.retried") != sum.retried) {
      res.correct = false;
    }

    const std::string sfx = std::string(".") + name;
    res.layer.add("qos.completed" + sfx, static_cast<double>(sum.completed),
                  "count");
    res.layer.add("qos.shed" + sfx, static_cast<double>(sum.shed), "count");
    res.layer.add("qos.deadline_missed" + sfx,
                  static_cast<double>(sum.deadline_missed), "count");
    res.layer.add("qos.retried" + sfx, static_cast<double>(sum.retried),
                  "count");
    res.layer.add("qpserver.admit_ratio" + sfx,
                  static_cast<double>(sum.completed) /
                      static_cast<double>(sum.offered + sum.retried),
                  "ratio");
    res.layer.add("qpserver.gen_late_ms" + sfx, late_ms / calls_, "ms");
    return sum;
  }

  std::uint64_t seed_;
  int trial_;
  int calls_ = 1;
};

}  // namespace

void RunResult::merge(const RunResult& other) {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(op_us, other.op_us);
  append(call_p50_us, other.call_p50_us);
  append(call_p99_us, other.call_p99_us);
  append(window_goodput, other.window_goodput);
  ops += other.ops;
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
  for (const Metric& m : other.layer.all()) layer.add(m.name, m.value, m.unit);
}

double RunResult::latency_p50_us() const {
  return call_p50_us.empty() ? percentile(op_us, 50)
                             : interquartile_mean(call_p50_us);
}

double RunResult::latency_p99_us() const {
  return call_p99_us.empty() ? percentile(op_us, 99) : median(call_p99_us);
}

double RunResult::goodput_rps() const {
  return interquartile_mean(window_goodput);
}

Metrics own_metrics(const std::string& name, const RunResult& r) {
  Metrics m;
  const auto n = static_cast<double>(r.op_us.size());  // batch samples
  if (name == "cg-tasks" || name == "bqp-dag") {
    m.add("solve_ms.p50", r.latency_p50_us() * 1e-3, "ms");
    m.add("solve_ms.samples", n, "count");
  } else if (name == "nested-for") {
    m.add("sweep_us.p50", r.latency_p50_us(), "us");
    m.add("sweep_us.p99", r.latency_p99_us(), "us");
    m.add("sweep_us.samples", n, "count");
  } else {
    m.add("latency_us.p50", r.latency_p50_us(), "us");
    m.add("latency_us.p99", r.latency_p99_us(), "us");
    m.add("latency_us.samples", static_cast<double>(r.attempted), "count");
    m.add("goodput_rps", r.goodput_rps(), "1/s");
  }
  m.add("fail_ratio",
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio");
  return m;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads,
                                        int trial) {
  if (name == "cg-tasks") return std::make_unique<CgTasks>();
  if (name == "bqp-dag") return std::make_unique<BqpDag>(seed);
  if (name == "nested-for") return std::make_unique<NestedFor>(threads);
  if (name == "qpserver-open") {
    return std::make_unique<QpServerOpen>(seed, trial);
  }
  return nullptr;
}

}  // namespace perfbench
