#include "sched/chaos.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "sched/trace.hpp"

namespace glto::sched {

ChaosConfig resolve_chaos(const char* env_var) {
  ChaosConfig cfg;
  auto s = common::env_str(env_var);
  if (!s || s->empty()) return cfg;
  std::string v = *s;
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  std::size_t pos = 0;
  while (pos < v.size()) {
    std::size_t comma = v.find(',', pos);
    if (comma == std::string::npos) comma = v.size();
    std::string tok = v.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const std::size_t colon = tok.find(':');
    const std::string key = tok.substr(0, colon);
    const std::string val =
        colon == std::string::npos ? std::string() : tok.substr(colon + 1);
    double p = 0.0;
    bool numeric = false;
    try {
      p = std::stod(val);
      numeric = true;
    } catch (...) {
    }
    if (key == "seed" && numeric) {
      cfg.seed = static_cast<std::uint64_t>(p);
      if (cfg.seed == 0) cfg.seed = 1;
      continue;
    }
    if (numeric) {
      p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
      if (key == "spawn") {
        cfg.spawn_p = p;
        continue;
      }
      if (key == "alloc") {
        cfg.alloc_p = p;
        continue;
      }
      if (key == "delay") {
        cfg.delay_p = p;
        continue;
      }
    }
    std::fprintf(stderr,
                 "sched: unrecognized %s token '%s' (expected "
                 "spawn:p, alloc:p, delay:p or seed:s); skipping\n",
                 env_var, tok.c_str());
  }
  cfg.enabled = cfg.spawn_p > 0.0 || cfg.alloc_p > 0.0 || cfg.delay_p > 0.0;
  return cfg;
}

namespace detail {
std::atomic<bool> g_chaos_on{false};
}  // namespace detail

namespace {

struct ChaosState {
  ChaosConfig cfg;
  std::atomic<std::uint64_t> faults{0};
  std::atomic<std::uint64_t> thread_ordinal{0};
  // Seed epoch: bumping it makes every thread re-derive its stream, so
  // chaos_set_for_testing takes effect on threads that already rolled.
  std::atomic<std::uint64_t> epoch{0};
};

ChaosState& state() {
  static ChaosState s;
  return s;
}

std::once_flag g_env_once;

/// Per-thread roll stream, re-derived whenever the global plan changes.
common::FastRng& thread_stream() {
  thread_local common::FastRng rng(0);
  thread_local std::uint64_t seen_epoch = ~0ULL;
  ChaosState& s = state();
  const std::uint64_t e = s.epoch.load(std::memory_order_acquire);
  if (seen_epoch != e) {
    seen_epoch = e;
    const std::uint64_t ord =
        s.thread_ordinal.fetch_add(1, std::memory_order_relaxed);
    rng = common::FastRng(common::mix64(s.cfg.seed ^ (ord + 1)) ^ e);
  }
  return rng;
}

void apply(const ChaosConfig& cfg) {
  ChaosState& s = state();
  s.cfg = cfg;
  s.epoch.fetch_add(1, std::memory_order_acq_rel);
  detail::g_chaos_on.store(cfg.enabled, std::memory_order_release);
}

}  // namespace

void chaos_init_from_env() {
  std::call_once(g_env_once, [] { apply(resolve_chaos("GLTO_CHAOS")); });
}

void chaos_set_for_testing(const ChaosConfig& cfg) {
  // Make sure the env resolution can't land after us and clobber the plan.
  std::call_once(g_env_once, [] {});
  apply(cfg);
}

ChaosConfig chaos_config() { return state().cfg; }

std::uint64_t chaos_faults_injected() {
  return state().faults.load(std::memory_order_relaxed);
}

namespace detail {

bool chaos_roll_spawn() {
  ChaosState& s = state();
  if (s.cfg.spawn_p <= 0.0) return false;
  if (thread_stream().next_double() >= s.cfg.spawn_p) return false;
  s.faults.fetch_add(1, std::memory_order_relaxed);
  trace_emit(TraceKind::chaos_fault, 0, /*aux=spawn*/ 1);
  return true;
}

bool chaos_roll_alloc() {
  ChaosState& s = state();
  if (s.cfg.alloc_p <= 0.0) return false;
  if (thread_stream().next_double() >= s.cfg.alloc_p) return false;
  s.faults.fetch_add(1, std::memory_order_relaxed);
  trace_emit(TraceKind::chaos_fault, 0, /*aux=alloc*/ 2);
  return true;
}

bool chaos_roll_delay() {
  ChaosState& s = state();
  if (s.cfg.delay_p <= 0.0) return false;
  if (thread_stream().next_double() >= s.cfg.delay_p) return false;
  s.faults.fetch_add(1, std::memory_order_relaxed);
  trace_emit(TraceKind::chaos_fault, 0, /*aux=delay*/ 3);
  return true;
}

void chaos_do_delay() {
  // 1–64 µs: long enough to reorder a racing pair, short enough that a
  // soak over thousands of tasks stays inside its ctest TIMEOUT.
  const std::uint64_t us = 1 + (thread_stream().next() & 63);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace detail

}  // namespace glto::sched
