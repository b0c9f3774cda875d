// One object pool for every recycled record.
//
// Work-unit records, GLTO task records and region-member arguments, the
// pthread runtimes' task records and task-descriptor spill slabs are made
// and destroyed at the paper's microbenchmark rates, and mostly on two
// different threads: a task is created by its producer and freed wherever
// it ran. Pool<T> shards its free lists by owner, as mimalloc does (Leijen,
// Zorn and de Moura, "Mimalloc: Free List Sharding in Action", APLAS 2019):
//
//  * Every OS thread lazily adopts a home slot: an owner-only local free
//    list, a few atomic remote free lists, and the slab it is carving.
//  * A block belongs to the slot whose slab it was carved from. The slab
//    header, found by masking the block's address, names that slot, so a
//    block carries no header of its own.
//  * free() on the owner's thread pushes onto the local list; on any other
//    thread it CAS-pushes onto one of the owner's remote lists, the one
//    the freeing thread always uses. alloc() pops the local list; when
//    that is empty it takes a whole remote list with one exchange (only
//    the owner pops, so there is no ABA); when all are empty it carves a
//    block from the slab.
//  * At thread exit the slot goes, with both lists and its slab, onto an
//    idle list, and the next thread to need a slot adopts it. Threads that
//    come and go (gnu's nested mode starts OS threads every region) reuse
//    the same slots instead of growing new ones.
//
// Memory is never returned to the heap. alloc() constructs the object and
// free() destroys it, so a recycled block starts from T's own defaults. A
// chaos alloc fault skips the recycled blocks and carves a fresh one.
// Under ASan a free block is poisoned except its link word: a touch after
// free reports use-after-poison.
//
// Both calls look the caller's slot up when they run, through a noinline
// accessor: a free after a ULT suspension may run on another OS thread than
// the frame started on (the stale-TLS hazard of sched/ult_engine.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/cacheline.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"
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
  struct Block {
    Block* next;
  };

 public:
  /// A T built from @p args in a recycled or freshly carved block.
  template <class... Args>
  [[nodiscard]] static T* alloc(Args&&... args) {
    Slot& s = home();
    void* b = chaos_alloc_fail() ? nullptr : pop(s);
    if (b == nullptr) b = carve(s);
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
    if (owner == current()) {
      b->next = owner->local;
      owner->local = b;
      return;
    }
    std::atomic<Block*>& list = owner->remote[remote_index()].head;
    Block* head = list.load(std::memory_order_relaxed);
    do {
      b->next = head;
    } while (!list.compare_exchange_weak(head, b, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  /// Slabs carved since the process started.
  [[nodiscard]] static std::size_t slabs_carved() {
    return slabs_.load(std::memory_order_relaxed);
  }

 private:
  /// Remote lists per slot. Each freeing thread keeps to one of them, so
  /// up to this many threads free into a slot without contending for a
  /// list head. With one list per slot every consumer's CAS and the
  /// producer's exchange fought for one line: cg::solve_tasks, one
  /// producer feeding three workers, ran slower than with per-worker
  /// free lists (4-vCPU x86-64 host).
  static constexpr std::size_t kRemoteLists = 4;

  /// Blocks freed by other threads; pushed by anyone, taken by the owner.
  /// Each list sits on its own 128 bytes, and the first one 128 bytes from
  /// the owner's fields: the adjacent-line prefetcher moves 64-byte lines
  /// in 128-byte pairs, and with the owner's fields and a remote list on
  /// one pair every remote free stalled the owner's next local push or pop
  /// (nested-for read +15% p50 on a 4-vCPU x86-64 host).
  struct alignas(2 * common::kCacheLine) RemoteList {
    std::atomic<Block*> head{nullptr};
  };
  struct alignas(2 * common::kCacheLine) Slot {
    Block* local = nullptr;  ///< owner only
    char* cursor = nullptr;  ///< owner only: next uncarved block
    char* end = nullptr;
    Slot* next_idle = nullptr;  ///< link on the idle list
    RemoteList remote[kRemoteLists];
  };
  struct SlabHeader {
    Slot* owner;
  };
  /// Gives the thread's slot back when the thread exits. A thread that
  /// allocates again while exiting keeps the slot it then adopts.
  struct Retire {
    bool armed = false;
    ~Retire() {
      if (t_slot == nullptr) return;
      common::SpinGuard g(idle_lock_);
      t_slot->next_idle = idle_;
      idle_ = t_slot;
      t_slot = nullptr;
    }
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

  /// The calling thread's slot as seen *now* (nullptr before its first
  /// alloc). noinline plus the compiler barrier keep a free that follows a
  /// ULT migration from reusing a slot address read before it.
  __attribute__((noinline)) static Slot* current() {
    asm volatile("");
    return t_slot;
  }

  /// The remote list the calling thread pushes onto, handed out
  /// round-robin on its first remote free. Any index is correct: a stale
  /// one read before a ULT migration merely shares a list.
  static std::size_t remote_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kRemoteLists;
    return mine;
  }

  static Slot& home() {
    if (Slot* s = current()) return *s;
    Slot* s = nullptr;
    {
      common::SpinGuard g(idle_lock_);
      if (idle_ != nullptr) {
        s = idle_;
        idle_ = s->next_idle;
      }
    }
    if (s == nullptr) s = new Slot();
    t_slot = s;
    t_retire.armed = true;  // first use registers the exit hook
    return *s;
  }

  static void* pop(Slot& s) {
    if (s.local == nullptr) {
      for (RemoteList& r : s.remote) {
        if (r.head.load(std::memory_order_relaxed) != nullptr) {
          s.local = r.head.exchange(nullptr, std::memory_order_acquire);
          break;
        }
      }
    }
    Block* b = s.local;
    if (b == nullptr) return nullptr;
    s.local = b->next;
    // The next block was most likely freed, and its link written, on
    // another core: fetch it for writing now, not on the next alloc's
    // critical path.
    if (s.local != nullptr) __builtin_prefetch(s.local, 1);
#if defined(GLTO_POOL_ASAN)
    __asan_unpoison_memory_region(b, kBlock);
#endif
    return b;
  }

  static void* carve(Slot& s) {
    if (s.cursor == s.end) {
      char* slab = static_cast<char*>(::operator new(
          kPoolSlabBytes, std::align_val_t{kPoolSlabBytes}));
      ::new (slab) SlabHeader{&s};
      s.cursor = slab + kHeader;
      s.end = s.cursor + kPerSlab * kBlock;
      slabs_.fetch_add(1, std::memory_order_relaxed);
    }
    void* b = s.cursor;
    s.cursor += kBlock;
    return b;
  }

  static inline thread_local Slot* t_slot = nullptr;
  static inline thread_local Retire t_retire;
  static inline common::SpinLock idle_lock_;
  static inline Slot* idle_ GLTO_GUARDED_BY(idle_lock_) = nullptr;
  static inline std::atomic<std::size_t> slabs_{0};
};

}  // namespace glto::sched
