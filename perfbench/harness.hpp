// perfbench harness: sample statistics, the in-memory span log, registry
// counter deltas and the metric list shared by the workloads and probes.
//
// Everything here observes the runtime from outside: wall clocks around
// calls into public functions, and the public counters
// (sched::metrics_snapshot / metrics_delta_since, glt::stats,
// omp::task_stats). Nothing is instrumented inside the library.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/metrics.hpp"

namespace perfbench {

/// Steady wall clock in ns (the library's common::now_ns clock).
[[nodiscard]] std::int64_t now_ns();

/// Linear-interpolated percentile (p in [0, 100]) of @p v; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Mean of the middle half of @p v (the lowest and highest quarter
/// dropped); 0 when empty.
[[nodiscard]] double interquartile_mean(std::vector<double> v);

/// Peak resident set of this process so far, MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Host CPU time counters (/proc/stat, all CPUs), in ticks.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Share of CPU time the hypervisor gave to other guests between two
/// readings: on a shared host this explains a slow run.
[[nodiscard]] double steal_ratio(const CpuTimes& a, const CpuTimes& b);

/// splitmix64 of (seed, stream): the per-input seeds a workload derives
/// from the benchmark's --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; a repeated name overwrites the earlier value.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Spans recorded by the benchmark's own code around each workload
/// iteration, qpserver phase and probe call. Kept in memory and written
/// as JSON lines by write(). Registry counter deltas read at a span's
/// boundaries ride on the span, so a ratio is taken where its work runs.
class SpanLog {
 public:
  explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

  /// Opens a span; returns its id (parent -1 = root).
  int begin(std::string name, int parent);
  void end(int id);
  void attach(int id, const glto::sched::MetricsSnapshot& delta);
  /// Writes every span as one JSON object per line. False on I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
  };
  std::string workload_;
  std::vector<Span> spans_;
};

/// Scoped span. With @p counters the registry is snapshotted at both
/// boundaries and the delta attached to the span — even without a log,
/// so untraced callers can still read the delta. A null log with no
/// counters makes the scope free.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, int parent, bool counters = false);
  ~Scope() { (void)finish(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }
  /// Ends the span (idempotent) and returns the counter delta (empty
  /// unless the scope was opened with counters).
  glto::sched::MetricsSnapshot finish();

 private:
  SpanLog* log_;
  int id_ = -1;
  bool counters_;
  bool done_ = false;
  glto::sched::MetricsSnapshot base_;
};

}  // namespace perfbench
