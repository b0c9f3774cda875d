// Ablation — task-dependency DAG vs taskwait-barrier scheduling (the
// taskdep subsystem's headline measurement).
//
// Workload: the blocked box-QP solver's two kernels (src/apps/bqp):
//  * chol  — one blocked Cholesky factor + forward/backward solve over a
//            seeded SPD matrix. In `dag` mode the whole pipeline is one
//            barrier-free `depend` DAG; in `barrier` mode the identical
//            tile kernels are fenced with taskwait after every step —
//            the only expression the facade allowed before the engine.
//  * bqp   — the full interior-point solve (≈12 factorizations plus
//            vector updates), the end-to-end shape of a real-time QP.
//
// The DAG schedule can win two ways: independent tiles of *different* sweep
// steps overlap (trailing-update tasks of step k run while step k+1's
// panel starts), and the producer never stalls at step boundaries, so
// work-stealing deques stay fed. Rows are emitted as JSONL via
// $GLTO_BENCH_JSON (CI records BENCH_taskdep.json).
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/bqp.hpp"
#include "bench_common.hpp"

namespace o = glto::omp;
namespace b = glto::bench;
namespace q = glto::apps::bqp;

namespace {

struct ModeRow {
  q::Mode mode;
  const char* label;
};

constexpr ModeRow kModes[] = {{q::Mode::taskwait, "glto-barrier"},
                              {q::Mode::taskdep, "glto-dag"}};

enum Section { kChol, kBqp };
constexpr const char* kSectionNames[] = {"chol", "bqp"};

}  // namespace

int main() {
  int failures = 0;
  const int reps = b::reps(5);
  const int chol_n = static_cast<int>(256 * b::scale());
  const int chol_tile = 16;
  const int bqp_n = static_cast<int>(128 * b::scale());
  const int bqp_tile = 16;

  std::printf("Ablation: depend-task DAG vs taskwait barriers "
              "(glto-abt, blocked Cholesky %d/%d + box-QP IPM %d/%d)\n",
              chol_n, chol_tile, bqp_n, bqp_tile);

  // Median seconds per [section][mode][thread-sweep index].
  const std::vector<int> sweep = b::thread_sweep();
  std::vector<double> medians[2][2];

  std::vector<double> A0, rhs;
  q::make_spd(chol_n, 0xC401, A0, rhs);
  std::vector<double> A(A0.size());
  std::vector<double> x(static_cast<std::size_t>(chol_n));

  b::print_header("taskdep: blocked Cholesky factor+solve (s)");
  for (int mi = 0; mi < 2; ++mi) {
    const ModeRow& m = kModes[mi];
    for (int nth : sweep) {
      b::select_runtime(o::RuntimeKind::glto_abt, nth,
                        /*active_wait=*/false);
      auto run = [&] {
        std::memcpy(A.data(), A0.data(), A0.size() * sizeof(double));
        q::factor_solve_inplace(A.data(), x.data(), rhs.data(), chol_n,
                                chol_tile, m.mode);
      };
      run();  // warm-up (freelists, stack caches, dep-hash buckets)
      const auto st = b::time_runs(reps, run);
      b::print_row(m.label, nth, st);
      medians[kChol][mi].push_back(st.median());
      // Self-check every cell: a timing row for a wrong answer is worse
      // than no row.
      const double cell_resid = q::residual_inf(A0, x, rhs, chol_n);
      if (!(cell_resid < 1e-8)) {
        std::printf("    FAIL residual_inf=%.3e (%s, %d threads)\n",
                    cell_resid, m.label, nth);
        ++failures;
      }
      if (m.mode == q::Mode::taskdep) {
        const o::TaskStats ts = o::task_stats();
        std::printf("    deps_registered=%llu deps_deferred=%llu "
                    "dag_ready_hits=%llu\n",
                    static_cast<unsigned long long>(ts.deps_registered),
                    static_cast<unsigned long long>(ts.deps_deferred),
                    static_cast<unsigned long long>(ts.dag_ready_hits));
      }
      o::shutdown();
    }
  }

  const q::Problem p = q::make_problem(bqp_n, bqp_tile, 16, 0xB0B);
  b::print_header("taskdep: blocked box-QP IPM solve (s)");
  for (int mi = 0; mi < 2; ++mi) {
    const ModeRow& m = kModes[mi];
    for (int nth : sweep) {
      b::select_runtime(o::RuntimeKind::glto_abt, nth,
                        /*active_wait=*/false);
      double kkt = 0.0;
      auto run = [&] { kkt = q::solve(p, m.mode).kkt; };
      run();
      const auto st = b::time_runs(reps, run);
      b::print_row(m.label, nth, st);
      medians[kBqp][mi].push_back(st.median());
      std::printf("    kkt=%.3e%s\n", kkt, kkt < 1e-8 ? "" : " FAIL");
      if (!(kkt < 1e-8)) ++failures;
      o::shutdown();
    }
  }

  // Which schedule wins is measured here, never assumed: a reading, not
  // a gate (timing does not decide the exit code).
  std::printf("measured medians (ms):\n");
  for (int sec : {kChol, kBqp}) {
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const double barrier_ms = medians[sec][0][i] * 1e3;
      const double dag_ms = medians[sec][1][i] * 1e3;
      std::printf("  %s %d threads: glto-dag %.3f, glto-barrier %.3f -> %s "
                  "lower\n",
                  kSectionNames[sec], sweep[i], dag_ms, barrier_ms,
                  dag_ms < barrier_ms ? "glto-dag" : "glto-barrier");
    }
  }
  if (failures > 0) {
    std::printf("SELF-CHECK FAILED: %d cell(s) produced wrong answers\n",
                failures);
    return 1;
  }
  return 0;
}
