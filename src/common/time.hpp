// Monotonic wall-clock timing used by benches and runtime statistics.
#pragma once

#include <chrono>
#include <cstdint>

namespace glto::common {

/// Nanoseconds from a monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// now_ns() deadline meaning "wait without a deadline".
inline constexpr std::int64_t kNoDeadline = INT64_MAX;

/// Seconds (double) from a monotonic clock.
inline double now_sec() { return static_cast<double>(now_ns()) * 1e-9; }

/// Simple scoped stopwatch.
class Timer {
 public:
  Timer() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  [[nodiscard]] std::int64_t elapsed_ns() const { return now_ns() - start_; }
  [[nodiscard]] double elapsed_sec() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::int64_t start_;
};

}  // namespace glto::common
