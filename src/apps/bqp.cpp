#include "apps/bqp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/debug.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "omp/omp.hpp"

namespace glto::apps::bqp {

namespace {

namespace o = glto::omp;

// ---- tile kernels (row-major, lower triangle maintained) ----------------

inline double* tile(double* A, int n, int t, int I, int J) {
  return A + static_cast<std::size_t>(I) * t * n + static_cast<std::size_t>(J) * t;
}

/// Unblocked Cholesky of the t×t diagonal block at (k,k).
void potrf(double* A, int n, int t, int k) {
  double* a = tile(A, n, t, k, k);
  for (int j = 0; j < t; ++j) {
    double diag = a[j * n + j];
    for (int p = 0; p < j; ++p) diag -= a[j * n + p] * a[j * n + p];
    GLTO_CHECK_MSG(diag > 0.0, "bqp: KKT matrix lost positive definiteness");
    diag = std::sqrt(diag);
    a[j * n + j] = diag;
    for (int i = j + 1; i < t; ++i) {
      double v = a[i * n + j];
      for (int p = 0; p < j; ++p) v -= a[i * n + p] * a[j * n + p];
      a[i * n + j] = v / diag;
    }
  }
}

/// B := B · L⁻ᵀ for the panel block B = (i,k) against L = (k,k).
void trsm(double* A, int n, int t, int k, int i) {
  const double* l = tile(A, n, t, k, k);
  double* b = tile(A, n, t, i, k);
  for (int r = 0; r < t; ++r) {
    for (int j = 0; j < t; ++j) {
      double v = b[r * n + j];
      for (int p = 0; p < j; ++p) v -= b[r * n + p] * l[j * n + p];
      b[r * n + j] = v / l[j * n + j];
    }
  }
}

/// C := C − B·Bᵀ (lower part) for C = (i,i), B = (i,k).
void syrk(double* A, int n, int t, int k, int i) {
  const double* b = tile(A, n, t, i, k);
  double* c = tile(A, n, t, i, i);
  for (int r = 0; r < t; ++r) {
    for (int cc = 0; cc <= r; ++cc) {
      double v = 0.0;
      for (int p = 0; p < t; ++p) v += b[r * n + p] * b[cc * n + p];
      c[r * n + cc] -= v;
    }
  }
}

/// C := C − A_ik·A_jkᵀ for C = (i,j), k < j < i.
void gemm(double* A, int n, int t, int k, int i, int j) {
  const double* bi = tile(A, n, t, i, k);
  const double* bj = tile(A, n, t, j, k);
  double* c = tile(A, n, t, i, j);
  for (int r = 0; r < t; ++r) {
    for (int cc = 0; cc < t; ++cc) {
      double v = 0.0;
      for (int p = 0; p < t; ++p) v += bi[r * n + p] * bj[cc * n + p];
      c[r * n + cc] -= v;
    }
  }
}

/// y_i := y_i − L(i,j)·y_j (forward-sweep update).
void gemv_sub(const double* A, double* y, int n, int t, int i, int j) {
  const double* l = tile(const_cast<double*>(A), n, t, i, j);
  double* yi = y + static_cast<std::size_t>(i) * t;
  const double* yj = y + static_cast<std::size_t>(j) * t;
  for (int r = 0; r < t; ++r) {
    double v = 0.0;
    for (int p = 0; p < t; ++p) v += l[r * n + p] * yj[p];
    yi[r] -= v;
  }
}

/// y_i := L(i,i)⁻¹·y_i (forward substitution on one segment).
void trsv_fwd(const double* A, double* y, int n, int t, int i) {
  const double* l = tile(const_cast<double*>(A), n, t, i, i);
  double* yi = y + static_cast<std::size_t>(i) * t;
  for (int r = 0; r < t; ++r) {
    double v = yi[r];
    for (int p = 0; p < r; ++p) v -= l[r * n + p] * yi[p];
    yi[r] = v / l[r * n + r];
  }
}

/// y_i := y_i − L(j,i)ᵀ·y_j (backward-sweep update, j > i).
void gemv_t_sub(const double* A, double* y, int n, int t, int i, int j) {
  const double* l = tile(const_cast<double*>(A), n, t, j, i);
  double* yi = y + static_cast<std::size_t>(i) * t;
  const double* yj = y + static_cast<std::size_t>(j) * t;
  for (int r = 0; r < t; ++r) {
    double v = 0.0;
    for (int p = 0; p < t; ++p) v += l[p * n + r] * yj[p];
    yi[r] -= v;
  }
}

/// y_i := L(i,i)⁻ᵀ·y_i (backward substitution on one segment).
void trsv_bwd(const double* A, double* y, int n, int t, int i) {
  const double* l = tile(const_cast<double*>(A), n, t, i, i);
  double* yi = y + static_cast<std::size_t>(i) * t;
  for (int r = t - 1; r >= 0; --r) {
    double v = yi[r];
    for (int p = r + 1; p < t; ++p) v -= l[p * n + r] * yi[p];
    yi[r] = v / l[r * n + r];
  }
}

// ---- mode-dispatched scheduling -----------------------------------------

/// Reusable solver workspace: the per-iteration buffers the IPM rebuilds.
/// The sequential solve keeps the Sherman–Morrison–Woodbury factors here
/// (W = D⁻¹V, n×rank; C = I + VᵀW, rank×rank; the rank-vector u); the
/// task-scheduled modes keep the dense KKT tile set K (n×n). Hoisted out
/// of solve() so repeated solves (qpserver requests, the abl_taskdep
/// sweeps) stop paying an allocation train per call — after the first
/// iteration the resize calls are no-ops and the IPM touches no
/// allocator. Every buffer is fully rewritten where it is read, so reuse
/// cannot change the KKT residual.
struct Arena {
  std::vector<double> K, W, C, u, dg, rhs, dx, hx, sr, dzl, dzu;
};

/// Arenas are leased from a process-wide pool for the duration of one
/// solve and returned afterwards, so repeated solves reuse warm buffers
/// while CONCURRENT solves always hold distinct arenas. (A thread_local
/// would not be sound here: solve() crosses task-runtime suspension
/// points, after which the calling context can resume on a different OS
/// thread — the stale-TLS hazard sched/ult_engine.hpp documents.)
class ArenaLease {
 public:
  ArenaLease() {
    common::SpinGuard g(pool_lock());
    auto& free = pool();
    if (!free.empty()) {
      arena_ = std::move(free.back());
      free.pop_back();
    } else {
      arena_ = std::make_unique<Arena>();
    }
  }
  ~ArenaLease() {
    // Bound the pool's resident memory: an arena whose factor buffers
    // grew past the cap is freed instead of pooled (one giant solve must
    // not pin O(n²) for the process lifetime), and pool depth is capped so
    // a burst of concurrent solves cannot park its peak width forever.
    constexpr std::size_t kMaxPooledDoubles = 512 * 512;  // 2 MiB
    constexpr std::size_t kMaxPooledArenas = 8;
    common::SpinGuard g(pool_lock());
    auto& free = pool();
    if (arena_->K.capacity() + arena_->W.capacity() <= kMaxPooledDoubles &&
        free.size() < kMaxPooledArenas) {
      free.push_back(std::move(arena_));
    }
  }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  [[nodiscard]] Arena* get() const { return arena_.get(); }

 private:
  static common::SpinLock& pool_lock() {
    static common::SpinLock lock;
    return lock;
  }
  static std::vector<std::unique_ptr<Arena>>& pool() {
    static std::vector<std::unique_ptr<Arena>> free;
    return free;
  }
  std::unique_ptr<Arena> arena_;
};

/// Emits one tile kernel under the selected schedule: sequential runs it
/// now, taskdep attaches the depend clauses, taskwait strips them (the
/// fences order everything). The kernels are small trivially-copyable
/// captures, so the v2 descriptor path spawns them without a single heap
/// allocation (clauses stay inline in DepList as well).
struct Sched {
  Mode mode;

  template <class F>
  void run(F&& fn, std::initializer_list<taskdep::Dep> deps) const {
    if (mode == Mode::sequential) {
      fn();
      return;
    }
    o::TaskFlags flags;
    if (mode == Mode::taskdep) flags.depend = deps;
    o::task(std::forward<F>(fn), flags);
  }

  /// Step barrier — only the taskwait schedule needs it; the DAG's edges
  /// carry the ordering without ever stalling unrelated tiles.
  void fence() const {
    if (mode == Mode::taskwait) o::taskwait();
  }
};

/// Creates the whole factor + forward + backward pipeline. In taskdep
/// mode this is ONE barrier-free DAG: solve tiles of early block-rows
/// start while late factor tiles are still in flight.
void emit_factor_solve(double* A, double* y, int n, int t, const Sched& s) {
  const int T = n / t;
  const auto th = [&](int I, int J) -> const void* {
    return tile(A, n, t, I, J);
  };
  const auto yh = [&](int I) -> const void* {
    return y + static_cast<std::size_t>(I) * t;
  };

  for (int k = 0; k < T; ++k) {
    s.run([A, n, t, k] { potrf(A, n, t, k); }, {o::dep_inout(th(k, k))});
    s.fence();
    for (int i = k + 1; i < T; ++i) {
      s.run([A, n, t, k, i] { trsm(A, n, t, k, i); },
            {o::dep_in(th(k, k)), o::dep_inout(th(i, k))});
    }
    s.fence();
    for (int i = k + 1; i < T; ++i) {
      s.run([A, n, t, k, i] { syrk(A, n, t, k, i); },
            {o::dep_in(th(i, k)), o::dep_inout(th(i, i))});
      for (int j = k + 1; j < i; ++j) {
        s.run([A, n, t, k, i, j] { gemm(A, n, t, k, i, j); },
              {o::dep_in(th(i, k)), o::dep_in(th(j, k)),
               o::dep_inout(th(i, j))});
      }
    }
    s.fence();
  }

  // Solve sweeps are emitted right-looking: once segment j is
  // substituted, every update it feeds touches a *distinct* y segment, so
  // the tasks between two fences never write the same memory — the
  // taskwait schedule is race-free with per-step barriers, and the
  // taskdep schedule gets the identical DAG through the same clauses.
  for (int j = 0; j < T; ++j) {
    s.run([A, y, n, t, j] { trsv_fwd(A, y, n, t, j); },
          {o::dep_in(th(j, j)), o::dep_inout(yh(j))});
    s.fence();
    for (int i = j + 1; i < T; ++i) {
      s.run([A, y, n, t, i, j] { gemv_sub(A, y, n, t, i, j); },
            {o::dep_in(th(i, j)), o::dep_in(yh(j)), o::dep_inout(yh(i))});
    }
    s.fence();
  }

  for (int j = T - 1; j >= 0; --j) {
    s.run([A, y, n, t, j] { trsv_bwd(A, y, n, t, j); },
          {o::dep_in(th(j, j)), o::dep_inout(yh(j))});
    s.fence();
    for (int i = j - 1; i >= 0; --i) {
      s.run([A, y, n, t, i, j] { gemv_t_sub(A, y, n, t, i, j); },
            {o::dep_in(th(j, i)), o::dep_in(yh(j)), o::dep_inout(yh(i))});
    }
    s.fence();
  }
}

/// Factor+solve under an existing Sched (solve() reuses one Sched across
/// IPM iterations; the public wrapper builds a transient one).
void factor_solve_with(const Sched& s, double* A, double* x, const double* b,
                       int n, int tile_sz) {
  GLTO_CHECK_MSG(n > 0 && tile_sz >= 8 && n % tile_sz == 0,
                 "bqp: n must be a multiple of tile (tile >= 8)");
  std::memcpy(x, b, static_cast<std::size_t>(n) * sizeof(double));
  if (s.mode == Mode::sequential) {
    emit_factor_solve(A, x, n, tile_sz, s);
    return;
  }
  GLTO_CHECK_MSG(o::selected(),
                 "bqp: task-scheduled modes need a selected omp runtime");
  // Producer pattern (§IV-D): one context creates the whole pipeline.
  o::parallel([&](int, int) {
    o::single([&] {
      emit_factor_solve(A, x, n, tile_sz, s);
      o::taskwait();
    });
  });
}

}  // namespace

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::sequential:
      return "sequential";
    case Mode::taskdep:
      return "taskdep";
    case Mode::taskwait:
      return "taskwait";
  }
  return "?";
}

void factor_solve_inplace(double* A, double* x, const double* b, int n,
                          int tile_sz, Mode mode) {
  const Sched s{mode};
  factor_solve_with(s, A, x, b, n, tile_sz);
}

Problem make_problem(int n, int tile_sz, int rank, std::uint64_t seed) {
  GLTO_CHECK_MSG(n > 0 && tile_sz >= 8 && n % tile_sz == 0 && rank > 0,
                 "bqp: bad problem shape");
  Problem p;
  p.n = n;
  p.tile = tile_sz;
  p.rank = rank;
  p.d.resize(static_cast<std::size_t>(n));
  p.V.resize(static_cast<std::size_t>(n) * rank);
  p.g.resize(static_cast<std::size_t>(n));
  p.lb.resize(static_cast<std::size_t>(n));
  p.ub.resize(static_cast<std::size_t>(n));
  common::FastRng rng(seed);
  const double vs = 1.0 / std::sqrt(static_cast<double>(rank + 1));
  auto u = [&] { return static_cast<double>(rng.next() >> 11) * 0x1.0p-53; };
  for (int i = 0; i < n; ++i) {
    p.d[static_cast<std::size_t>(i)] = 1.0 + u();
    for (int r = 0; r < rank; ++r) {
      p.V[static_cast<std::size_t>(i) * rank + r] = (2.0 * u() - 1.0) * vs;
    }
    p.g[static_cast<std::size_t>(i)] = 2.0 * u() - 1.0;
    // Tight-ish box around 0 so a healthy fraction of bounds are active.
    p.lb[static_cast<std::size_t>(i)] = -0.4 + 0.3 * u();
    p.ub[static_cast<std::size_t>(i)] = 0.4 - 0.3 * u();
  }
  return p;
}

namespace {

/// hx := H·x = d∘x + V·(Vᵀx) — O(n·rank), never materializes H.
void apply_h(const Problem& p, const std::vector<double>& x,
             std::vector<double>& hx, std::vector<double>& scratch_r) {
  const int n = p.n, r = p.rank;
  scratch_r.assign(static_cast<std::size_t>(r), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < r; ++j) {
      scratch_r[static_cast<std::size_t>(j)] +=
          p.V[static_cast<std::size_t>(i) * r + j] *
          x[static_cast<std::size_t>(i)];
    }
  }
  for (int i = 0; i < n; ++i) {
    double v = p.d[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    for (int j = 0; j < r; ++j) {
      v += p.V[static_cast<std::size_t>(i) * r + j] *
           scratch_r[static_cast<std::size_t>(j)];
    }
    hx[static_cast<std::size_t>(i)] = v;
  }
}

/// a.dx := (diag(a.dg) + V·Vᵀ)⁻¹·a.rhs by Sherman–Morrison–Woodbury:
/// with w = D⁻¹b, W = D⁻¹V and C = I + Vᵀ·W (rank×rank SPD),
/// dx = w − W·C⁻¹·(Vᵀw). O(n·rank²) per step instead of the dense
/// factor's O(n³); C's Cholesky reuses potrf, definiteness check included.
void smw_solve(const Problem& p, Arena& a) {
  const int n = p.n, r = p.rank;
  const auto ur = static_cast<std::size_t>(r);
  double* W = a.W.data();
  double* C = a.C.data();
  double* u = a.u.data();
  std::fill(a.C.begin(), a.C.end(), 0.0);
  std::fill(a.u.begin(), a.u.end(), 0.0);
  for (int i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const double inv = 1.0 / a.dg[ii];
    const double* v = p.V.data() + ii * ur;
    double* w = W + ii * ur;
    a.dx[ii] = a.rhs[ii] * inv;
    for (int q = 0; q < r; ++q) w[q] = v[q] * inv;
    // C (lower triangle) += vᵢ·wᵢᵀ and u += vᵢ·(D⁻¹b)ᵢ.
    for (int q = 0; q < r; ++q) {
      u[q] += v[q] * a.dx[ii];
      for (int s = 0; s <= q; ++s) C[q * r + s] += v[q] * w[s];
    }
  }
  for (int q = 0; q < r; ++q) C[q * r + q] += 1.0;
  potrf(C, r, r, 0);
  trsv_fwd(C, u, r, r, 0);
  trsv_bwd(C, u, r, r, 0);
  for (int i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const double* w = W + ii * ur;
    double v = 0.0;
    for (int q = 0; q < r; ++q) v += w[q] * u[q];
    a.dx[ii] -= v;
  }
}

}  // namespace

double kkt_residual(const Problem& p, const std::vector<double>& x,
                    const std::vector<double>& zl,
                    const std::vector<double>& zu) {
  const int n = p.n;
  std::vector<double> hx(static_cast<std::size_t>(n)), sr;
  apply_h(p, x, hx, sr);
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const double stat = hx[ii] + p.g[ii] - zl[ii] + zu[ii];
    worst = std::max(worst, std::fabs(stat));
    worst = std::max(worst, p.lb[ii] - x[ii]);        // primal feasibility
    worst = std::max(worst, x[ii] - p.ub[ii]);
    worst = std::max(worst, -zl[ii]);                 // dual feasibility
    worst = std::max(worst, -zu[ii]);
    worst = std::max(worst, std::fabs(zl[ii] * (x[ii] - p.lb[ii])));
    worst = std::max(worst, std::fabs(zu[ii] * (p.ub[ii] - x[ii])));
  }
  return worst;
}

Result solve(const Problem& p, Mode mode, int max_iters, double tol,
             const sched::QosContext* qos) {
  const int n = p.n, r = p.rank;
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> x(un), sl(un), su(un), zl(un, 1.0), zu(un, 1.0);
  for (int i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    x[ii] = 0.5 * (p.lb[ii] + p.ub[ii]);
    sl[ii] = x[ii] - p.lb[ii];
    su[ii] = p.ub[ii] - x[ii];
  }
  // Per-iteration scratch comes from an arena leased for this solve: warm
  // resizes are no-ops, so iterations 2..k — and later solves reusing the
  // pooled arena — allocate nothing. Only the primal/dual state above
  // stays local; it is moved into the Result. The sequential step is the
  // O(n·rank²) SMW solve; the task modes keep the dense tiled-Cholesky
  // DAG, so only they size K.
  const ArenaLease lease;
  Arena& a = *lease.get();
  std::vector<double>& K = a.K;
  std::vector<double>& dg = a.dg;
  std::vector<double>& rhs = a.rhs;
  std::vector<double>& dx = a.dx;
  std::vector<double>& hx = a.hx;
  std::vector<double>& sr = a.sr;
  std::vector<double>& dzl = a.dzl;
  std::vector<double>& dzu = a.dzu;
  if (mode == Mode::sequential) {
    a.W.resize(un * static_cast<std::size_t>(r));
    a.C.resize(static_cast<std::size_t>(r) * r);
    a.u.resize(static_cast<std::size_t>(r));
  } else {
    K.resize(un * un);
  }
  dg.resize(un);
  rhs.resize(un);
  dx.resize(un);
  hx.resize(un);
  dzl.resize(un);
  dzu.resize(un);

  Result res;
  for (int iter = 1; iter <= max_iters; ++iter) {
    // Cancellation point (one clock read): an expired request abandons
    // the solve at the iteration boundary instead of finishing a useless
    // answer — the caller sees the best iterate so far.
    if (sched::qos_expired(qos)) {
      res.deadline_abandoned = true;
      res.iters = iter - 1;
      break;
    }
    apply_h(p, x, hx, sr);
    double mu = 0.0, quick = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const double rd = hx[ii] + p.g[ii] - zl[ii] + zu[ii];
      rhs[ii] = rd;  // stationarity residual, reused below
      quick = std::max({quick, std::fabs(rd), sl[ii] * zl[ii],
                        su[ii] * zu[ii]});
      mu += sl[ii] * zl[ii] + su[ii] * zu[ii];
    }
    mu /= 2.0 * n;
    res.iters = iter - 1;
    if (quick < tol) {
      res.converged = true;
      break;
    }
    const double smu = 0.1 * mu;  // fixed centering

    // KKT step (diag(dg) + V·Vᵀ)·dx = rhs, dg = d + zl/sl + zu/su.
    for (int i = 0; i < n; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      dg[ii] = p.d[ii] + zl[ii] / sl[ii] + zu[ii] / su[ii];
      rhs[ii] = -rhs[ii] + (smu - sl[ii] * zl[ii]) / sl[ii] -
                (smu - su[ii] * zu[ii]) / su[ii];
    }
    if (mode == Mode::sequential) {
      smw_solve(p, a);
    } else {
      // K = V·Vᵀ + diag(dg); lower triangle only.
      for (int i = 0; i < n; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        for (int j = 0; j <= i; ++j) {
          double v = 0.0;
          for (int q = 0; q < r; ++q) {
            v += p.V[ii * static_cast<std::size_t>(r) + q] *
                 p.V[static_cast<std::size_t>(j) * r + q];
          }
          K[ii * un + static_cast<std::size_t>(j)] = v;
        }
        K[ii * un + ii] += dg[ii];
      }
      factor_solve_with(Sched{mode}, K.data(), dx.data(), rhs.data(), n,
                        p.tile);
    }

    double alpha = 1.0;
    for (int i = 0; i < n; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      dzl[ii] = (smu - sl[ii] * zl[ii]) / sl[ii] - (zl[ii] / sl[ii]) * dx[ii];
      dzu[ii] = (smu - su[ii] * zu[ii]) / su[ii] + (zu[ii] / su[ii]) * dx[ii];
      if (dx[ii] < 0.0) alpha = std::min(alpha, -sl[ii] / dx[ii]);
      if (dx[ii] > 0.0) alpha = std::min(alpha, su[ii] / dx[ii]);
      if (dzl[ii] < 0.0) alpha = std::min(alpha, -zl[ii] / dzl[ii]);
      if (dzu[ii] < 0.0) alpha = std::min(alpha, -zu[ii] / dzu[ii]);
    }
    alpha *= 0.995;  // fraction-to-boundary
    for (int i = 0; i < n; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      x[ii] += alpha * dx[ii];
      zl[ii] += alpha * dzl[ii];
      zu[ii] += alpha * dzu[ii];
      sl[ii] = x[ii] - p.lb[ii];
      su[ii] = p.ub[ii] - x[ii];
    }
  }

  // The loop records iters before taking each step; a run that exhausts
  // max_iters without converging still took max_iters full steps. An
  // abandoned solve keeps the true step count recorded at the break.
  if (!res.converged && !res.deadline_abandoned) res.iters = max_iters;

  res.x = std::move(x);
  res.zl = std::move(zl);
  res.zu = std::move(zu);
  res.kkt = kkt_residual(p, res.x, res.zl, res.zu);
  return res;
}

void make_spd(int n, std::uint64_t seed, std::vector<double>& A,
              std::vector<double>& b) {
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> B(un * un);
  common::FastRng rng(seed);
  auto u = [&] { return static_cast<double>(rng.next() >> 11) * 0x1.0p-53; };
  for (auto& v : B) v = u() - 0.5;
  A.assign(un * un, 0.0);
  b.resize(un);
  for (auto& v : b) v = 2.0 * u() - 1.0;
  // A = B·Bᵀ + n·I — comfortably SPD.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double v = 0.0;
      for (int p = 0; p < n; ++p) {
        v += B[static_cast<std::size_t>(i) * un + p] *
             B[static_cast<std::size_t>(j) * un + p];
      }
      A[static_cast<std::size_t>(i) * un + j] = v;
      A[static_cast<std::size_t>(j) * un + i] = v;
    }
    A[static_cast<std::size_t>(i) * un + i] += n;
  }
}

double residual_inf(const std::vector<double>& A0,
                    const std::vector<double>& x,
                    const std::vector<double>& b, int n) {
  const auto un = static_cast<std::size_t>(n);
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = -b[static_cast<std::size_t>(i)];
    for (int j = 0; j < n; ++j) {
      v += A0[static_cast<std::size_t>(i) * un + j] *
           x[static_cast<std::size_t>(j)];
    }
    worst = std::max(worst, std::fabs(v));
  }
  return worst;
}

}  // namespace glto::apps::bqp
