// Pooled ULT stack allocation.
//
// Creating a ULT must be orders of magnitude cheaper than pthread_create,
// and the main cost is the stack, so stacks are mmap'ed once (with a
// PROT_NONE guard page below) and recycled through the same owner slots as
// records (common/owner_slots.hpp): a stack belongs to the slot of the
// thread that mapped it and goes home to that slot wherever it is
// released. A small header just above `top`, outside the usable range,
// names the owning slot and holds the free link.
//
// The backends (abt, qth, mth) bind a ULT's stack when a scheduler first
// dispatches it, not when it is created, and release it when the ULT
// finishes, wherever that is. A producer that queues a burst takes no
// stacks, and a stack that mth's work-first spawn binds on one worker and
// another worker releases goes back to the first: a slot maps a new stack
// only when every stack it mapped is in use or still on its way back.
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
  /// Bytes mapped per stack above its guard page: the usable range plus
  /// the header. 64 KiB matches typical LWT library defaults (Argobots:
  /// 64 KiB).
  static constexpr std::size_t kStackBytes = 64 * 1024;

  /// Returns a guard-paged stack: a released one of the caller's slot
  /// when there is one, otherwise a freshly mapped one.
  Stack acquire();

  /// Returns a stack to the slot that mapped it.
  void release(Stack s);

  /// Number of stacks ever mmap'ed (for tests / ablation counters).
  [[nodiscard]] std::uint64_t total_mapped() const;

  /// acquire() calls served by a recycled stack.
  [[nodiscard]] std::uint64_t cache_hits() const;

  static StackPool& global();

 private:
  StackPool() = default;
};

}  // namespace glto::fctx
