// Blocked box-QP IPM (src/apps/bqp): the sequential (Sherman–Morrison–
// Woodbury) reference converges to KKT < 1e-8, the blocked-Cholesky
// micro-driver is exact, the depend-task and taskwait-barrier schedules
// reproduce the sequential result across all five runtimes, and a seeded
// sweep cross-checks the two KKT algorithms (SMW vs dense tiled Cholesky)
// iteration for iteration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/bqp.hpp"
#include "omp/omp.hpp"

namespace o = glto::omp;
namespace q = glto::apps::bqp;

namespace {

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

TEST(Bqp, SequentialSolveConverges) {
  const q::Problem p = q::make_problem(64, 16, 8, 0xB09);
  const q::Result r = q::solve(p, q::Mode::sequential);
  EXPECT_TRUE(r.converged) << "iters=" << r.iters << " kkt=" << r.kkt;
  EXPECT_LT(r.kkt, 1e-8);
  // The box was built tight enough that some bounds are active: at an
  // active bound the multiplier is strictly positive.
  int active = 0;
  for (int i = 0; i < p.n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    if (r.zl[ii] > 1e-4 || r.zu[ii] > 1e-4) ++active;
  }
  EXPECT_GT(active, 0) << "instance degenerated to an unconstrained QP";
}

TEST(Bqp, SequentialCholeskyRoundtripIsExact) {
  std::vector<double> A, b;
  q::make_spd(64, 0x5EED, A, b);
  std::vector<double> Af = A, x(64);
  q::factor_solve_inplace(Af.data(), x.data(), b.data(), 64, 16,
                          q::Mode::sequential);
  EXPECT_LT(q::residual_inf(A, x, b, 64), 1e-8);
}

class BqpSched : public ::testing::TestWithParam<o::RuntimeKind> {
 protected:
  void SetUp() override {
    o::SelectOptions opts;
    opts.num_threads = 4;
    opts.bind_threads = false;
    opts.active_wait = false;
    o::select(GetParam(), opts);
  }
  void TearDown() override { o::shutdown(); }
};

TEST_P(BqpSched, TaskdepCholeskyMatchesSequential) {
  std::vector<double> A, b;
  q::make_spd(64, 0xC0DE, A, b);
  std::vector<double> Af = A, x(64);
  q::factor_solve_inplace(Af.data(), x.data(), b.data(), 64, 16,
                          q::Mode::taskdep);
  EXPECT_LT(q::residual_inf(A, x, b, 64), 1e-8);
  const o::TaskStats st = o::task_stats();
  EXPECT_GT(st.deps_registered, 0u);
}

TEST_P(BqpSched, DagScheduledSolveMatchesSequential) {
  const q::Problem p = q::make_problem(64, 16, 8, 0xB09);
  const q::Result ref = q::solve(p, q::Mode::sequential);
  ASSERT_TRUE(ref.converged);

  const q::Result dag = q::solve(p, q::Mode::taskdep);
  EXPECT_TRUE(dag.converged);
  EXPECT_LT(dag.kkt, 1e-8);
  EXPECT_LT(max_abs_diff(dag.x, ref.x), 1e-6);

  const q::Result bar = q::solve(p, q::Mode::taskwait);
  EXPECT_TRUE(bar.converged);
  EXPECT_LT(bar.kkt, 1e-8);
  EXPECT_LT(max_abs_diff(bar.x, ref.x), 1e-6);
}

// Cross-algorithm oracle: Mode::sequential steps with SMW, Mode::taskwait
// with the dense tiled Cholesky. Same IPM, same iterates up to rounding,
// so iteration counts must agree exactly on every instance — the ctest
// form of perfbench's bqp-dag iteration-equality gate. One runtime is
// enough: the schedules are already cross-checked above.
class BqpOracle : public BqpSched {};

TEST_P(BqpOracle, SmwMatchesDenseCholeskyOnSeedSweep) {
  struct Shape {
    int n, tile, rank, count;
  };
  for (const Shape sh : {Shape{48, 16, 4, 64}, Shape{256, 16, 16, 4}}) {
    for (int seed = 0; seed < sh.count; ++seed) {
      SCOPED_TRACE(::testing::Message() << "shape " << sh.n << "/" << sh.tile
                                        << "/" << sh.rank << " seed " << seed);
      const q::Problem p = q::make_problem(
          sh.n, sh.tile, sh.rank, 0x5111 + static_cast<std::uint64_t>(seed));
      const q::Result smw = q::solve(p, q::Mode::sequential);
      const q::Result dense = q::solve(p, q::Mode::taskwait);
      EXPECT_EQ(smw.converged, dense.converged);
      EXPECT_EQ(smw.iters, dense.iters);
      EXPECT_LE(max_abs_diff(smw.x, dense.x), 1e-9);
      EXPECT_LE(smw.kkt, 1e-8);
      EXPECT_LE(dense.kkt, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GltoAbt, BqpOracle,
                         ::testing::Values(o::RuntimeKind::glto_abt),
                         [](const auto&) { return std::string("glto_abt"); });

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, BqpSched,
    ::testing::Values(o::RuntimeKind::gnu, o::RuntimeKind::intel,
                      o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                      o::RuntimeKind::glto_mth),
    [](const ::testing::TestParamInfo<o::RuntimeKind>& info) {
      std::string name = o::kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });
