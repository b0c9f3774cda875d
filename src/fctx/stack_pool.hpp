// Pooled ULT stack allocation.
//
// Creating a ULT must be orders of magnitude cheaper than pthread_create;
// the dominant cost is stack allocation, so stacks are mmap'ed once (with a
// PROT_NONE guard page below) and recycled. The global() pool additionally
// keeps a per-thread cache of free stacks with batched refill/spill to the
// shared freelist, so the acquire()/release() fast path on scheduler
// threads touches no lock (a spawn-heavy xstream otherwise serializes on
// the freelist spinlock — exactly the hot path the paper's create/join
// microbenchmarks measure).
//
// The backends (abt, qth, mth) bind a ULT's stack when a scheduler first
// dispatches it, not when it is created, and release it on that
// scheduler's side when the ULT finishes. Acquire and release therefore
// happen on the same worker (barring a ULT that migrates mid-run), so a
// worker's cache feeds itself: a producer that queues a burst takes no
// stacks, and each worker cycles a few cache-warm stacks through the
// units it runs instead of pulling ones other workers last released.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fctx/fcontext.hpp"

namespace glto::fctx {

struct Stack {
  void* base = nullptr;   ///< lowest mapped address (guard page)
  void* top = nullptr;    ///< highest usable address; pass to make_fcontext
  std::size_t size = 0;   ///< usable size (excludes the guard page)
  void* tsan = nullptr;   ///< TSan fiber handle (acquire() → release())

  [[nodiscard]] bool valid() const { return base != nullptr; }

  /// Context identity for fctx::jump_fcontext_to: the usable range as ASan
  /// fiber bounds plus the TSan fiber handle.
  [[nodiscard]] StackRegion region() const {
    return {static_cast<const char*>(top) - size, size, tsan};
  }
};

/// Process-wide stack pool. Thread-safe.
class StackPool {
 public:
  /// @p stack_size is rounded up to whole pages. 64 KiB default matches
  /// typical LWT library defaults (Argobots: 64 KiB).
  ///
  /// @p per_thread_cache enables the lock-free per-thread free-stack
  /// caches. Only an *immortal* pool may enable it (thread caches spill
  /// back on thread exit, which must not outlive the pool); global() does.
  explicit StackPool(std::size_t stack_size = kDefaultStackSize,
                     bool per_thread_cache = false);
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Returns a guard-paged stack; recycles a previously released one when
  /// available, otherwise mmaps a fresh one.
  Stack acquire();

  /// Returns a stack to the pool for reuse.
  void release(Stack s);

  [[nodiscard]] std::size_t stack_size() const { return stack_size_; }

  /// Number of stacks ever mmap'ed (for tests / ablation counters).
  [[nodiscard]] std::uint64_t total_mapped() const;

  /// acquire() calls served from a per-thread cache without locking.
  [[nodiscard]] std::uint64_t cache_hits() const;

  /// The process-wide default pool (64 KiB stacks, per-thread caches on).
  static StackPool& global();

  static constexpr std::size_t kDefaultStackSize = 64 * 1024;
  /// Stacks moved shared→thread cache per refill (one lock acquisition).
  static constexpr std::size_t kCacheRefillBatch = 16;
  /// Cache size that triggers a spill of half the cache back to shared.
  static constexpr std::size_t kCacheSpillHigh = 64;

  struct Impl;  ///< opaque; public so the per-thread cache can point at it

 private:
  [[nodiscard]] Stack make_stack(void* base) const;

  Impl* impl_;
  std::size_t stack_size_;
};

}  // namespace glto::fctx
