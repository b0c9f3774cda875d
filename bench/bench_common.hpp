// Shared helpers for the paper-reproduction bench binaries.
//
// Every figure/table binary sweeps (runtime × threads × workload knob),
// repeats each cell, and prints a fixed-width table of mean ± stddev —
// the same series the paper plots. Knobs:
//   GLTO_BENCH_THREADS  comma list, default "1,2,4,8,18,36"
//                       (the paper's x-axes go to 72; default trimmed for
//                        container-scale runs — export the full list for
//                        paper-scale sweeps)
//   GLTO_BENCH_REPS     repetitions per cell (default figure-specific)
//   GLTO_BENCH_SCALE    workload scale multiplier (default 1)
//   GLTO_BENCH_JSON     path to append machine-readable records to: one
//                       {"schema_version","bench","runtime","threads",
//                        "mean_s","stddev_s","min_s","median_s","runs",
//                        "host_nproc","host_uname","trace_on","m_steals",
//                        "m_parks","m_wakes_spurious","m_queue_p95_ns"}
//                       JSON object per line (JSONL), emitted for every
//                       table row so CI can diff runs — schema v2 adds
//                       host identity and per-row metrics-registry
//                       deltas. min/median are the robust estimators
//                       for dispatch microbenches on noisy shared hosts
//                       (idle-park wakeup misses put multi-ms outliers in
//                       the mean at low thread counts).
#pragma once

#include <sys/utsname.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "omp/omp.hpp"
#include "sched/metrics.hpp"
#include "sched/trace.hpp"

namespace glto::bench {

inline std::vector<int> thread_sweep() {
  std::vector<int> out;
  const std::string s =
      common::env_str("GLTO_BENCH_THREADS").value_or("1,2,4,8,18,36");
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const int v = std::atoi(s.substr(pos, comma - pos).c_str());
    if (v > 0) out.push_back(v);
    pos = comma + 1;
  }
  if (out.empty()) out.push_back(1);
  return out;
}

inline int reps(int dflt) {
  return static_cast<int>(common::env_i64("GLTO_BENCH_REPS", dflt));
}

inline double scale() {
  const auto s = common::env_i64("GLTO_BENCH_SCALE", 1);
  return s > 0 ? static_cast<double>(s) : 1.0;
}

/// Times @p fn @p n times; returns per-run seconds.
template <typename Fn>
common::RunStats time_runs(int n, Fn&& fn) {
  common::RunStats stats;
  for (int i = 0; i < n; ++i) {
    common::Timer t;
    fn();
    stats.add(t.elapsed_sec());
  }
  return stats;
}

/// Selects a runtime with the paper's environment settings
/// (OMP_NESTED=true, OMP_PROC_BIND=true analog, wait policy per scenario).
inline void select_runtime(omp::RuntimeKind kind, int threads,
                           bool active_wait = true, int task_cutoff = 256,
                           bool shared_queues = false) {
  omp::SelectOptions opts;
  opts.num_threads = threads;
  opts.nested = true;
  opts.bind_threads = true;
  opts.active_wait = active_wait;
  opts.task_cutoff = task_cutoff;
  opts.shared_queues = shared_queues;
  omp::select(kind, opts);
}

/// Title of the table currently being printed; used as the "bench" field
/// of emitted JSON records.
inline std::string& current_bench() {
  static std::string name = "bench";
  return name;
}

inline std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

/// "sysname release machine" from uname(2), resolved once. Rows from
/// different hosts in one merged JSONL stream stay attributable.
inline const std::string& host_uname() {
  static const std::string id = [] {
    struct utsname u {};
    if (::uname(&u) != 0) return std::string("unknown");
    std::string s = u.sysname;
    s += ' ';
    s += u.release;
    s += ' ';
    s += u.machine;
    return s;
  }();
  return id;
}

/// Metrics-registry deltas accrued since the previous row (or since
/// startup, for the first row). Keys are m_-prefixed so they can never
/// collide with the counters individual benches splice in via extra_json
/// (the dispatch ablation already emits bare "parks"/"wakes_issued").
inline std::string metrics_row_fields() {
  static sched::MetricsSnapshot baseline;  // empty → first row = totals
  const sched::MetricsSnapshot d = sched::metrics_delta_since(baseline);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"m_steals\": %lld, \"m_parks\": %lld, "
                "\"m_wakes_spurious\": %lld, \"m_queue_p95_ns\": %lld",
                static_cast<long long>(d.value("sched.steals")),
                static_cast<long long>(d.value("sched.parks")),
                static_cast<long long>(d.value("sched.wakes_spurious")),
                static_cast<long long>(d.value("lat.queue_p95_ns")));
  return std::string(buf);
}

/// Appends one JSONL record to $GLTO_BENCH_JSON (no-op when unset).
/// @p extra_json, when non-empty, is spliced verbatim into the object as
/// additional fields (callers pass pre-formatted `"key": value` pairs —
/// the dispatch ablation attaches park/wake counters so
/// BENCH_dispatch.json can attribute wins to the wakeup protocol).
///
/// Schema v2 adds host identity (nproc + uname) and the m_* metrics
/// deltas from the unified registry; v1 consumers keyed on the original
/// seven fields are unaffected (additive change).
inline void json_append(const char* bench, const char* runtime, int threads,
                        const common::RunStats& st,
                        const std::string& extra_json = std::string()) {
  const auto path = common::env_str("GLTO_BENCH_JSON");
  if (!path) return;
  std::FILE* f = std::fopen(path->c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"schema_version\": 2, \"bench\": \"%s\", "
               "\"runtime\": \"%s\", \"threads\": %d, "
               "\"mean_s\": %.9f, \"stddev_s\": %.9f, \"min_s\": %.9f, "
               "\"median_s\": %.9f, \"runs\": %zu, "
               "\"host_nproc\": %u, \"host_uname\": \"%s\", "
               "\"trace_on\": %s, %s%s%s}\n",
               json_escape(bench).c_str(), json_escape(runtime).c_str(),
               threads, st.mean(), st.stddev(), st.min(), st.median(),
               st.count(), std::thread::hardware_concurrency(),
               json_escape(host_uname().c_str()).c_str(),
               sched::trace_enabled() ? "true" : "false",
               metrics_row_fields().c_str(),
               extra_json.empty() ? "" : ", ", extra_json.c_str());
  std::fclose(f);
}

inline void print_header(const char* title, const char* extra_col = nullptr) {
  current_bench() = title;
  std::printf("\n== %s ==\n", title);
  if (extra_col != nullptr) {
    std::printf("%-10s %8s %8s  %-12s %-12s %-12s %-10s\n", "runtime",
                "threads", extra_col, "mean_s", "stddev_s", "median_s",
                "runs");
  } else {
    std::printf("%-10s %8s  %-12s %-12s %-12s %-10s\n", "runtime", "threads",
                "mean_s", "stddev_s", "median_s", "runs");
  }
}

inline void print_row(const char* runtime, int threads,
                      const common::RunStats& st) {
  std::printf("%-10s %8d  %-12.6f %-12.6f %-12.6f %zu\n", runtime, threads,
              st.mean(), st.stddev(), st.median(), st.count());
  json_append(current_bench().c_str(), runtime, threads, st);
}

inline void print_row_extra(const char* runtime, int threads, long long extra,
                            const common::RunStats& st) {
  std::printf("%-10s %8d %8lld  %-12.6f %-12.6f %-12.6f %zu\n", runtime,
              threads, extra, st.mean(), st.stddev(), st.median(),
              st.count());
  json_append(current_bench().c_str(), runtime, threads, st);
}

/// print_row + extra JSONL fields (pre-formatted `"key": value` pairs).
inline void print_row_json(const char* runtime, int threads,
                           const common::RunStats& st,
                           const std::string& extra_json) {
  std::printf("%-18s %8d  %-12.6f %-12.6f %-12.6f %zu\n", runtime, threads,
              st.mean(), st.stddev(), st.median(), st.count());
  json_append(current_bench().c_str(), runtime, threads, st, extra_json);
}

}  // namespace glto::bench
