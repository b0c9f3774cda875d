// The four benchmark workloads (see NOTES.md for why each was chosen and
// which layers it exercises).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// What measured windows of a workload produced; merge() pools several
/// windows (trials on fresh runtimes) before the figures are taken.
struct RunResult {
  /// Batch workloads: wall time of every operation (solve, sweep), µs.
  std::vector<double> op_us;
  /// The QP service: the steady phase's p50 and p99 of every
  /// qpserver::run call.
  std::vector<double> call_p50_us, call_p99_us;
  /// Goodput of every measured window: one per batch window (trial), one
  /// per overload-phase call of the QP service.
  std::vector<double> window_goodput;
  std::uint64_t ops = 0;  ///< operations run (per-op normalisation base)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Metrics layer;  ///< workload-result per-layer metrics (cg.iters, qos.* …)

  void merge(const RunResult& other);
  /// Median operation time. The QP service: the interquartile mean of the
  /// calls' p50 — each p50 is a 12.5%-wide histogram bucket, and a mean
  /// over calls resolves finer than one bucket.
  [[nodiscard]] double latency_p50_us() const;
  /// p99 of the operation times, or the median of the calls' p99.
  [[nodiscard]] double latency_p99_us() const;
  /// Correct operations (QP: requests completed within their deadline)
  /// per second: the interquartile mean over windows. A window the host
  /// stalled, or an overload call in which the service settled into a
  /// regime that keeps up, must not set the figure.
  [[nodiscard]] double goodput_rps() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input generation, reference answers and one warm-up operation; true
  /// when the warm-up output was correct. The glto-abt runtime is already
  /// selected.
  virtual bool setup() = 0;
  /// Runs operations for about @p seconds, checking every output. With a
  /// span log, each operation (or phase) is recorded under @p parent.
  virtual RunResult run(double seconds, SpanLog* spans, int parent) = 0;
};

/// Null for an unknown name. @p trial numbers the fresh-runtime trials of
/// one run; the QP service uses it to give each trial its own instances.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      int threads, int trial);

/// The workload's end-to-end figures under the names its users read
/// (solve_ms.p50, sweep_us.p99, latency_us.p99 …), for the report lines.
[[nodiscard]] Metrics own_metrics(const std::string& name,
                                  const RunResult& r);

/// Shapes shared with the probes.
inline constexpr int kCgRowsPerTask = 10;
inline constexpr int kBqpN = 256, kBqpTile = 16, kBqpRank = 16;
inline constexpr int kQpN = 48, kQpTile = 16, kQpRank = 4;

/// bqp-dag solves a set of problem instances round robin, and the QP
/// service runs each qpserver::run call on its own instance: solve time
/// differs by instance, so a single instance would tie a run's figures to
/// its seed.
inline constexpr int kInstances = 8;

[[nodiscard]] inline std::uint64_t bqp_problem_seed(std::uint64_t seed,
                                                    int k) {
  return derive_seed(seed, static_cast<std::uint64_t>(k % kInstances));
}
[[nodiscard]] inline std::uint64_t qp_problem_seed(std::uint64_t seed, int k) {
  return derive_seed(seed,
                     kInstances + static_cast<std::uint64_t>(k % kInstances));
}

}  // namespace perfbench
