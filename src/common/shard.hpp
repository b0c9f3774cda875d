// Per-OS-thread shards for hot event counters.
//
// One process-wide atomic bumped by every worker puts a contended cache
// line on the very path it counts (GLTO's region end read nested-for ~10%
// slower p50 through two such counters). Sharded<S> gives each OS thread
// one of kShards cache-line slots, handed out round-robin on the thread's
// first bump; a read sums the slots. Threads beyond kShards share slots,
// and a ULT that migrated may bump the slot of a thread it ran on before:
// the relaxed adds keep every count exact, the line is merely shared.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace glto::common {

template <typename S>
struct Sharded {
  static constexpr std::size_t kShards = 64;
  using Counter = std::atomic<std::uint64_t> S::*;

  void bump(Counter c) {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    (slots[mine].*c).fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t sum(Counter c) const {
    std::uint64_t n = 0;
    for (const S& s : slots) n += (s.*c).load(std::memory_order_relaxed);
    return n;
  }

  S slots[kShards];  ///< S is cache-line aligned
};

}  // namespace glto::common
