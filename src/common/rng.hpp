// Deterministic, splittable random number generation.
//
// UTS builds its tree with a *splittable* deterministic generator so that the
// same tree is produced regardless of the parallel schedule (the original
// benchmark uses SHA-1; we use a SplitMix64-style mixer, which preserves the
// property that child streams are derived purely from (parent state, index)).
#pragma once

#include <cstdint>

namespace glto::common {

/// 64-bit finalizer from SplitMix64 (Stafford variant 13).
inline constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic splittable RNG: every node of a computation tree owns a
/// 64-bit state; children derive theirs from (state, child index) only.
class SplitRng {
 public:
  explicit constexpr SplitRng(std::uint64_t seed) : state_(mix64(seed)) {}

  /// Deterministic child stream @p i of this stream.
  [[nodiscard]] constexpr SplitRng split(std::uint64_t i) const {
    return SplitRng(state_ ^ mix64(i * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL));
  }

  /// Next value; advances the stream.
  constexpr std::uint64_t next() {
    state_ = mix64(state_);
    return state_;
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  constexpr std::uint64_t next_below(std::uint64_t n) {
    return n == 0 ? 0 : next() % n;
  }

  [[nodiscard]] constexpr std::uint64_t state() const { return state_; }

 private:
  explicit constexpr SplitRng(std::uint64_t raw, int) : state_(raw) {}
  std::uint64_t state_;
};

/// xoshiro-style fast sequential PRNG for benchmark data generation.
class FastRng {
 public:
  explicit constexpr FastRng(std::uint64_t seed) : s_(mix64(seed)) {}
  std::uint64_t next() {
    s_ = mix64(s_);
    return s_;
  }
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

}  // namespace glto::common
