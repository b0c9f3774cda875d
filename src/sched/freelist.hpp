// Per-worker object freelist with a shared overflow slab.
//
// Work-unit records (the ULT engine's, under abt, qth and mth) are created
// and destroyed at the paper's microbenchmark rates, so their allocation
// must stay off malloc and off any shared lock on the fast path. Each
// worker owns a plain vector it alone touches (lock-free by ownership);
// oversized lists spill half to a spinlock-guarded shared slab, which also
// feeds workers whose join/create balance runs negative and foreign
// threads that recycle from outside the worker fleet.
//
// Hoisted out of the abt backend (PR 1) so qth and mth recycle through the
// identical policy — the qth/mth dispatch-parity work this PR is about.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "common/cacheline.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"
#include "sched/chaos.hpp"

namespace glto::sched {

template <typename Node>
class Freelist {
 public:
  /// Local-list size that triggers a spill of half the list to the slab.
  static constexpr std::size_t kSpillHigh = 512;
  /// Nodes moved slab→local per refill (one lock acquisition).
  static constexpr std::size_t kRefillBatch = 32;

  explicit Freelist(int num_workers)
      : lists_(static_cast<std::size_t>(num_workers > 0 ? num_workers : 1)) {}

  Freelist(const Freelist&) = delete;
  Freelist& operator=(const Freelist&) = delete;

  ~Freelist() {
    for (PerWorker& pw : lists_) {
      for (Node* n : pw.items) delete n;
    }
    for (Node* n : slab_) delete n;
  }

  /// Pops a recycled node (per-worker list, batch-refilled from the slab)
  /// or returns nullptr — the caller heap-allocates a fresh one. Lock-free
  /// unless the local list is empty and the slab has stock. @p rank < 0
  /// (foreign thread) or beyond the worker count takes the locked slab
  /// path — slower, but without it such threads would recycle into the
  /// slab while never draining it, growing it without bound (e.g. gnu's
  /// nested mode churns through fresh OS threads every region).
  [[nodiscard]] Node* try_alloc(int rank) {
    // Chaos hook: a simulated slab-exhaustion forces the caller onto its
    // heap-spill path, the same degradation a genuinely drained pool
    // produces. Every caller must already tolerate nullptr, so injecting
    // it here exercises real recovery code, not a synthetic branch.
    if (chaos_alloc_fail()) return nullptr;
    if (rank < 0 || static_cast<std::size_t>(rank) >= lists_.size()) {
      if (slab_size_.load(std::memory_order_relaxed) == 0) return nullptr;
      common::SpinGuard g(slab_lock_);
      if (slab_.empty()) return nullptr;
      Node* n = slab_.back();
      slab_.pop_back();
      slab_size_.store(slab_.size(), std::memory_order_relaxed);
      return n;
    }
    PerWorker& pw = lists_[static_cast<std::size_t>(rank)];
    if (pw.items.empty() &&
        slab_size_.load(std::memory_order_relaxed) > 0) {
      common::SpinGuard g(slab_lock_);
      const std::size_t take = std::min(kRefillBatch, slab_.size());
      pw.items.insert(pw.items.end(), slab_.end() - static_cast<long>(take),
                      slab_.end());
      slab_.resize(slab_.size() - take);
      slab_size_.store(slab_.size(), std::memory_order_relaxed);
    }
    if (pw.items.empty()) return nullptr;
    Node* n = pw.items.back();
    pw.items.pop_back();
    return n;
  }

  /// Recycles a node. Owner fast path when @p rank ≥ 0; foreign threads
  /// (and spills from oversized local lists) go through the shared slab.
  /// Callers after a suspension point must pass the *current* rank (see
  /// tls_now in sched/ult_engine.cpp) — a stale rank would touch another
  /// worker's owner-only list.
  void recycle(int rank, Node* n) {
    if (rank >= 0 && static_cast<std::size_t>(rank) < lists_.size()) {
      PerWorker& pw = lists_[static_cast<std::size_t>(rank)];
      pw.items.push_back(n);
      if (pw.items.size() > kSpillHigh) {
        const std::size_t keep = kSpillHigh / 2;
        common::SpinGuard g(slab_lock_);
        slab_.insert(slab_.end(), pw.items.begin() + static_cast<long>(keep),
                     pw.items.end());
        slab_size_.store(slab_.size(), std::memory_order_relaxed);
        pw.items.resize(keep);
      }
      return;
    }
    common::SpinGuard g(slab_lock_);
    slab_.push_back(n);
    slab_size_.store(slab_.size(), std::memory_order_relaxed);
  }

  /// Racy stock probe (tests / stats).
  [[nodiscard]] std::size_t slab_size_approx() const {
    return slab_size_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(common::kCacheLine) PerWorker {
    std::vector<Node*> items;
  };

  std::vector<PerWorker> lists_;
  common::SpinLock slab_lock_;
  std::vector<Node*> slab_ GLTO_GUARDED_BY(slab_lock_);
  /// Lock-free mirror of slab_.size() so the empty-slab fast path skips
  /// the lock; refreshed under slab_lock_ after every mutation.
  std::atomic<std::size_t> slab_size_{0};
};

}  // namespace glto::sched
