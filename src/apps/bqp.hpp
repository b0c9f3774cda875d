// bqp — a blocked box-constrained QP interior-point solver: the DAG
// workload that validates the task-dependency engine.
//
// Real-time QP solvers (PIQP, arXiv:2304.00290; the time-certified box-QP
// IPM of arXiv:2510.04467) are built from blocked factorize/solve sweeps
// whose natural expression is a task DAG: each tile kernel (potrf, trsm,
// syrk, gemm, trsv, gemv) reads a handful of tiles and writes one, so
// `depend` clauses per tile let independent tiles of different sweep
// steps overlap. This app solves
//
//     minimize   ½ xᵀH x + gᵀx      H = diag(d) + V Vᵀ  (SPD,
//     subject to lb ≤ x ≤ ub                             diagonal-plus-low-rank)
//
// with a primal-dual IPM whose per-iteration KKT system
// (D + V Vᵀ) dx = r, D = diag(d + z_l/s_l + z_u/s_u), is solved two ways:
//
//   sequential — Sherman–Morrison–Woodbury, plain loops, no runtime:
//                dx = D⁻¹r − W·(I + VᵀW)⁻¹·Vᵀ D⁻¹r with W = D⁻¹V, so a
//                step costs O(n·rank²) and factors only a rank×rank
//                matrix. The correctness reference, and the solve every
//                qpserver request runs.
//   taskdep    — the dense KKT matrix, factorized and solved by a blocked
//                Cholesky in which every tile kernel is a `depend` task;
//                factor and both triangular sweeps form ONE DAG with no
//                barrier anywhere
//   taskwait   — the same tile kernels fenced by taskwait after each step
//                of each sweep (what the facade forced before the dep
//                engine)
//
// All three take the same IPM iterates up to rounding, so their iteration
// counts agree. The taskdep/taskwait modes require a selected omp runtime
// and create their tasks from a single/producer region, the paper's §IV-D
// pattern.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/qos.hpp"

namespace glto::apps::bqp {

enum class Mode { sequential, taskdep, taskwait };

[[nodiscard]] const char* mode_name(Mode m);

struct Problem {
  int n = 0;     ///< variables (multiple of tile)
  int tile = 0;  ///< Cholesky tile size (≥ 8 so tile handles don't alias)
  int rank = 0;  ///< low-rank term width
  std::vector<double> d;   ///< n      — diagonal of H
  std::vector<double> V;   ///< n×rank — H = diag(d) + V Vᵀ (row-major)
  std::vector<double> g;   ///< n
  std::vector<double> lb;  ///< n
  std::vector<double> ub;  ///< n
};

/// Deterministic seeded instance with an interior box (lb < 0 < ub) tight
/// enough that several bounds are active at the optimum.
[[nodiscard]] Problem make_problem(int n, int tile, int rank,
                                   std::uint64_t seed);

struct Result {
  std::vector<double> x;
  std::vector<double> zl;  ///< multipliers of x ≥ lb
  std::vector<double> zu;  ///< multipliers of x ≤ ub
  int iters = 0;
  double kkt = 0.0;  ///< final inf-norm KKT residual
  bool converged = false;
  bool deadline_abandoned = false;  ///< QoS deadline expired mid-solve
};

/// Runs the IPM. taskdep/taskwait modes assert a selected omp runtime.
/// @p qos, when non-null, is polled once per iteration
/// (omp::cancellation_point-style): an expired deadline abandons the
/// solve at the next iteration boundary with deadline_abandoned set and
/// the best iterate so far in x (converged stays false).
[[nodiscard]] Result solve(const Problem& p, Mode mode, int max_iters = 60,
                           double tol = 1e-10,
                           const sched::QosContext* qos = nullptr);

/// inf-norm KKT residual of a candidate primal-dual point: stationarity,
/// box feasibility, multiplier sign, and complementarity.
[[nodiscard]] double kkt_residual(const Problem& p,
                                  const std::vector<double>& x,
                                  const std::vector<double>& zl,
                                  const std::vector<double>& zu);

// ---- blocked-Cholesky micro-driver (abl_taskdep uses these) -------------

/// Fills @p A with a seeded dense SPD matrix (n×n row-major) and @p b
/// with a rhs.
void make_spd(int n, std::uint64_t seed, std::vector<double>& A,
              std::vector<double>& b);

/// In-place blocked Cholesky of A (lower), then x := A⁻¹ b via the two
/// triangular sweeps, scheduled per @p mode. In taskdep mode the factor
/// and both sweeps are one barrier-free DAG.
void factor_solve_inplace(double* A, double* x, const double* b, int n,
                          int tile, Mode mode);

/// ‖A₀x − b‖∞ — verification helper for the micro-driver.
[[nodiscard]] double residual_inf(const std::vector<double>& A0,
                                  const std::vector<double>& x,
                                  const std::vector<double>& b, int n);

}  // namespace glto::apps::bqp
