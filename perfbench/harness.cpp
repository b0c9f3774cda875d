#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace perfbench {

std::int64_t now_ns() { return glto::common::now_ns(); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double peak_rss_mb() {
  // VmHWM starts afresh at exec; getrusage's ru_maxrss would report the
  // launching process's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_ratio(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return glto::common::SplitRng(seed).split(stream).next();
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

int SpanLog::begin(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanLog::attach(int id, const glto::sched::MetricsSnapshot& delta) {
  auto& out = spans_[static_cast<std::size_t>(id)].counters;
  for (const auto& e : delta.entries) {
    if (e.counter && e.value != 0) out.emplace_back(e.name, e.value);
  }
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"workload\": \"%s\", "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"counters\": {",
                 i, s.name.c_str(), workload_.c_str(), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (std::size_t k = 0; k < s.counters.size(); ++k) {
      std::fprintf(f, "%s\"%s\": %llu", k == 0 ? "" : ", ",
                   s.counters[k].first.c_str(),
                   static_cast<unsigned long long>(s.counters[k].second));
    }
    std::fputs("}}\n", f);
  }
  return std::fclose(f) == 0;
}

Scope::Scope(SpanLog* log, std::string name, int parent, bool counters)
    : log_(log), counters_(counters) {
  if (counters_) base_ = glto::sched::metrics_snapshot();
  if (log_ != nullptr) id_ = log_->begin(std::move(name), parent);
}

glto::sched::MetricsSnapshot Scope::finish() {
  glto::sched::MetricsSnapshot delta;
  if (done_) return delta;
  done_ = true;
  if (log_ != nullptr) log_->end(id_);
  if (counters_) {
    delta = glto::sched::metrics_delta_since(base_);
    if (log_ != nullptr) log_->attach(id_, delta);
  }
  return delta;
}

}  // namespace perfbench
