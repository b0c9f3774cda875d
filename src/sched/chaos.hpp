// Fault-injection chaos harness shared by the runtime tree.
//
// Probabilistically fails ULT creation (the caller degrades to inline
// execution), makes object-pool allocations skip their recycled blocks
// (exercising the carve path), and injects short delays at suspension points (widening race
// windows that a clean scheduler ordering would never open). The plan is
// resolved once from $GLTO_CHAOS ("spawn:p,alloc:p,delay:p[,seed:s]") by
// sched::resolve_chaos; with the variable unset every hook is one relaxed
// load of `detail::g_chaos_on` and a predictable branch — cheap enough to
// leave compiled into release builds (abl_glt_dispatch carries the
// chaos-off overhead cell proving it).
//
// Determinism: each OS thread derives its roll stream from
// mix64(seed ^ thread-ordinal), so a fixed seed reproduces the same
// per-thread fault sequence; cross-thread interleaving still varies, which
// is the point of a soak.
#pragma once

#include <atomic>
#include <cstdint>

namespace glto::sched {

/// Fault-injection plan of the chaos harness ($GLTO_CHAOS). Each
/// probability is independent and evaluated per opportunity:
///   spawn:p — ULT creation fails, the task degrades to inline execution
///   alloc:p — a sched::Pool alloc skips the recycled blocks and carves a
///             fresh one
///   delay:p — a short delay is injected at a suspension point to widen
///             race windows
/// A fixed seed makes a chaos soak reproducible bit-for-bit modulo thread
/// interleaving: each thread derives its stream from seed × thread id.
struct ChaosConfig {
  bool enabled = false;
  double spawn_p = 0.0;
  double alloc_p = 0.0;
  double delay_p = 0.0;
  std::uint64_t seed = 1;
};

/// Parses @p env_var as "spawn:p,alloc:p,delay:p[,seed:s]" (keys optional,
/// any order, probabilities clamped to [0,1]). Unset or empty → disabled.
/// Unrecognized tokens warn on stderr and are skipped — a silent typo
/// would turn a chaos CI leg into a no-op.
[[nodiscard]] ChaosConfig resolve_chaos(const char* env_var = "GLTO_CHAOS");

namespace detail {
extern std::atomic<bool> g_chaos_on;
/// Out-of-line probability rolls — only reached when chaos is enabled.
[[nodiscard]] bool chaos_roll_spawn();
[[nodiscard]] bool chaos_roll_alloc();
[[nodiscard]] bool chaos_roll_delay();
void chaos_do_delay();
}  // namespace detail

/// Resolves $GLTO_CHAOS on first use and latches the result. Idempotent;
/// every hook funnels through the cached flag afterwards.
void chaos_init_from_env();

/// Replaces the active plan (tests/bench toggle chaos in-process without
/// re-exec). Passing a default-constructed ChaosConfig turns chaos off.
void chaos_set_for_testing(const ChaosConfig& cfg);

/// Current plan (post-resolution).
[[nodiscard]] ChaosConfig chaos_config();

/// Total faults injected so far (spawn + alloc + delay), for soak
/// assertions that the harness actually fired.
[[nodiscard]] std::uint64_t chaos_faults_injected();

/// One relaxed load: is any fault injection active? For callers that pick
/// a different code path wholesale under chaos (e.g. bulk spawns degrade
/// to per-task spawns so each one passes the spawn-fail hook).
[[nodiscard]] inline bool chaos_enabled() {
  return detail::g_chaos_on.load(std::memory_order_relaxed);
}

/// True ⇒ the caller must pretend ULT creation failed and run the work
/// inline instead.
inline bool chaos_spawn_fail() {
  if (!detail::g_chaos_on.load(std::memory_order_relaxed)) return false;
  return detail::chaos_roll_spawn();
}

/// True ⇒ the object pool must carve a fresh block instead of recycling.
inline bool chaos_alloc_fail() {
  if (!detail::g_chaos_on.load(std::memory_order_relaxed)) return false;
  return detail::chaos_roll_alloc();
}

/// Possibly sleeps a few microseconds; called at suspension points.
inline void chaos_maybe_delay() {
  if (!detail::g_chaos_on.load(std::memory_order_relaxed)) return;
  if (detail::chaos_roll_delay()) detail::chaos_do_delay();
}

}  // namespace glto::sched
