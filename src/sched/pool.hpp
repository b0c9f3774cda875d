// One object pool for every recycled record.
//
// Work-unit records, GLTO task records and region-member arguments, the
// pthread runtimes' task records and task-descriptor spill slabs are made
// and destroyed at the paper's microbenchmark rates, and mostly on two
// different threads: a task is created by its producer and freed wherever
// it ran. Pool<T> keeps its free blocks on owner slots
// (common/owner_slots.hpp), so a block freed on any thread goes home to
// the slot that carved it. Each slot also carves from a slab of its own;
// the slab header, found by masking a block's address, names that slot, so
// a block carries no header of its own. alloc() pops a free block of the
// caller's slot and carves a fresh one when there is none.
//
// Memory is never returned to the heap. alloc() constructs the object and
// free() destroys it, so a recycled block starts from T's own defaults. A
// chaos alloc fault skips the recycled blocks and carves a fresh one.
// Under ASan a free block is poisoned except its link word: a touch after
// free reports use-after-poison.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/owner_slots.hpp"
#include "sched/chaos.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define GLTO_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GLTO_POOL_ASAN 1
#endif
#endif

#if defined(GLTO_POOL_ASAN)
extern "C" {
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

namespace glto::sched {

/// Size and alignment of every pool slab: a block's slab header sits at
/// the block's address rounded down to a multiple of this. At 64 KiB glibc
/// serves the aligned request from a mapping of its own, so a slab's
/// resident pages are the ones carved; 16 KiB slabs were split out of the
/// heap, and the fragments around each one read qpserver-open +0.47 MB of
/// peak RSS.
inline constexpr std::size_t kPoolSlabBytes = 64 * 1024;

template <typename T>
class Pool {
  /// The slab a slot is carving. Owner only.
  struct Carving {
    char* cursor = nullptr;  ///< next uncarved block
    char* end = nullptr;
  };
  using Slots = common::OwnerSlots<Pool, Carving>;
  using Slot = typename Slots::Slot;
  using Block = typename Slots::Node;

 public:
  /// A T built from @p args in a recycled or freshly carved block.
  template <class... Args>
  [[nodiscard]] static T* alloc(Args&&... args) {
    Slot& s = Slots::home();
    void* b = chaos_alloc_fail() ? nullptr : Slots::pop(s);
    if (b == nullptr) b = carve(s);
#if defined(GLTO_POOL_ASAN)
    __asan_unpoison_memory_region(b, kBlock);
#endif
    return ::new (b) T(std::forward<Args>(args)...);
  }

  /// Destroys @p p and returns its block to the slot that carved it.
  static void free(T* p) noexcept {
    p->~T();
    auto* b = reinterpret_cast<Block*>(p);
    Slot* owner = reinterpret_cast<SlabHeader*>(
                      reinterpret_cast<std::uintptr_t>(p) &
                      ~std::uintptr_t{kPoolSlabBytes - 1})
                      ->owner;
#if defined(GLTO_POOL_ASAN)
    __asan_poison_memory_region(b + 1, kBlock - sizeof(Block));
#endif
    Slots::push(owner, b);
  }

  /// Slabs carved since the process started.
  [[nodiscard]] static std::size_t slabs_carved() {
    return slabs_.load(std::memory_order_relaxed);
  }

 private:
  struct SlabHeader {
    Slot* owner;
  };

  static constexpr std::size_t kAlign =
      alignof(T) > alignof(Block) ? alignof(T) : alignof(Block);
  static constexpr std::size_t kBlock = (sizeof(T) + kAlign - 1) / kAlign *
                                        kAlign;
  static constexpr std::size_t kHeader =
      (sizeof(SlabHeader) + kAlign - 1) / kAlign * kAlign;
  static constexpr std::size_t kPerSlab = (kPoolSlabBytes - kHeader) / kBlock;
  static_assert(sizeof(T) >= sizeof(Block), "a free block holds its link");
  static_assert(kPerSlab >= 8, "T is too large for a pool slab");

  static void* carve(Slot& s) {
    Carving& c = s.state;
    if (c.cursor == c.end) {
      char* slab = static_cast<char*>(::operator new(
          kPoolSlabBytes, std::align_val_t{kPoolSlabBytes}));
      ::new (slab) SlabHeader{&s};
      c.cursor = slab + kHeader;
      c.end = c.cursor + kPerSlab * kBlock;
      slabs_.fetch_add(1, std::memory_order_relaxed);
    }
    void* b = c.cursor;
    c.cursor += kBlock;
    return b;
  }

  static inline std::atomic<std::size_t> slabs_{0};
};

}  // namespace glto::sched
