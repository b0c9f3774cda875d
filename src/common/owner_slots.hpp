// Owner-sharded free lists: a freed block goes home to the thread that
// made it.
//
// Records and ULT stacks are made on one thread and mostly freed on
// another: a task is created by its producer and freed wherever it ran, and
// under mth's work-first spawn a stack is bound on one worker and released
// on another. OwnerSlots shards the free lists by owner, as mimalloc does
// (Leijen, Zorn and de Moura, "Mimalloc: Free List Sharding in Action",
// APLAS 2019):
//
//  * Every OS thread lazily adopts a home slot: an owner-only local free
//    list and a few atomic remote free lists.
//  * Each block names the slot that owns it; where it keeps that name is
//    the user's business (sched::Pool masks the block's address to its
//    slab header, fctx::StackPool reads a header above the stack top).
//  * push() on the owner's thread pushes onto the local list; on any other
//    thread it CAS-pushes onto one of the owner's remote lists, the one the
//    pushing thread always uses. pop() takes the local list; when that is
//    empty it takes a whole remote list with one exchange (only the owner
//    pops, so there is no ABA). nullptr means every block the slot owns is
//    in use or still on its way back.
//  * At thread exit the slot goes, with its lists, onto an idle list, and
//    the next thread to need a slot adopts it. Threads that come and go
//    (gnu's nested mode starts OS threads every region) reuse the same
//    slots instead of growing new ones.
//
// Each Tag has slots of its own; State is extra owner-only data kept in
// every slot (sched::Pool's slab cursor). Slot lookup goes through a
// noinline accessor at call time: a push after a ULT suspension may run on
// another OS thread than the frame started on (the stale-TLS hazard of
// sched/ult_engine.hpp).
#pragma once

#include <atomic>
#include <cstddef>

#include "common/cacheline.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"

namespace glto::common {

struct NoSlotState {};

template <class Tag, class State = NoSlotState>
class OwnerSlots {
 public:
  /// A free block's link word.
  struct Node {
    Node* next;
  };

 private:
  /// Remote lists per slot. Each pushing thread keeps to one of them, so up
  /// to this many threads free into a slot without contending for a list
  /// head. With one list per slot every consumer's CAS and the producer's
  /// exchange fought for one line: cg::solve_tasks, one producer feeding
  /// three workers, ran slower than with per-worker free lists (4-vCPU
  /// x86-64 host).
  static constexpr std::size_t kRemoteLists = 4;

  /// Blocks freed by other threads; pushed by anyone, taken by the owner.
  /// Each list sits on its own 128 bytes, and the first one 128 bytes from
  /// the owner's fields: the adjacent-line prefetcher moves 64-byte lines
  /// in 128-byte pairs, and with the owner's fields and a remote list on
  /// one pair every remote free stalled the owner's next local push or pop
  /// (nested-for read +15% p50 on a 4-vCPU x86-64 host).
  struct alignas(2 * kCacheLine) RemoteList {
    std::atomic<Node*> head{nullptr};
  };

 public:
  struct alignas(2 * kCacheLine) Slot {
    Node* local = nullptr;  ///< owner only
    State state{};          ///< owner only
    Slot* next_idle = nullptr;  ///< link on the idle list
    RemoteList remote[kRemoteLists];
  };

  /// The calling thread's slot, adopted on first use.
  static Slot& home() {
    if (Slot* s = current()) return *s;
    Slot* s = nullptr;
    {
      SpinGuard g(idle_lock_);
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

  /// Returns @p n to @p owner: onto its local list from the owner's
  /// thread, onto one of its remote lists from any other.
  static void push(Slot* owner, Node* n) noexcept {
    if (owner == current()) {
      n->next = owner->local;
      owner->local = n;
      return;
    }
    std::atomic<Node*>& list = owner->remote[remote_index()].head;
    Node* head = list.load(std::memory_order_relaxed);
    do {
      n->next = head;
    } while (!list.compare_exchange_weak(head, n, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  /// A free block of @p s, the caller's own slot, or nullptr.
  static Node* pop(Slot& s) {
    if (s.local == nullptr) {
      for (RemoteList& r : s.remote) {
        if (r.head.load(std::memory_order_relaxed) != nullptr) {
          s.local = r.head.exchange(nullptr, std::memory_order_acquire);
          break;
        }
      }
    }
    Node* n = s.local;
    if (n == nullptr) return nullptr;
    s.local = n->next;
    // The next block was most likely freed, and its link written, on
    // another core: fetch it for writing now, not on the next pop's
    // critical path.
    if (s.local != nullptr) __builtin_prefetch(s.local, 1);
    return n;
  }

 private:
  /// Gives the thread's slot back when the thread exits. A thread that
  /// allocates again while exiting keeps the slot it then adopts.
  struct Retire {
    bool armed = false;
    ~Retire() {
      if (t_slot == nullptr) return;
      SpinGuard g(idle_lock_);
      t_slot->next_idle = idle_;
      idle_ = t_slot;
      t_slot = nullptr;
    }
  };

  /// The calling thread's slot as seen *now* (nullptr before its first
  /// home()). noinline plus the compiler barrier keep a push that follows
  /// a ULT migration from reusing a slot address read before it.
  __attribute__((noinline)) static Slot* current() {
    asm volatile("");
    return t_slot;
  }

  /// The remote list the calling thread pushes onto, handed out
  /// round-robin on its first remote push. Any index is correct: a stale
  /// one read before a ULT migration merely shares a list.
  static std::size_t remote_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kRemoteLists;
    return mine;
  }

  static inline thread_local Slot* t_slot = nullptr;
  static inline thread_local Retire t_retire;
  static inline SpinLock idle_lock_;
  static inline Slot* idle_ GLTO_GUARDED_BY(idle_lock_) = nullptr;
};

}  // namespace glto::common
