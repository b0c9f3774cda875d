// omp::TaskDesc — the zero-allocation task descriptor, the only currency
// that crosses the Runtime virtual ABI (task ABI v2).
//
// The paper's thesis is that lightweight-thread OpenMP wins or loses on
// per-task overhead, yet the v1 facade paid a type-erased
// std::function<void()> (heap for any capture beyond the SSO buffer) plus
// a heap task record on *every* omp::task. A TaskDesc is a trampoline
// `void(*)(void*)` plus a cache-line-sized inline payload buffer: any
// trivially-copyable capture of up to kInlineBytes is stored in place and
// the whole descriptor moves by memcpy — task creation performs **zero
// heap allocations**. Captures that don't fit (or aren't trivially
// copyable, e.g. a std::function passed to omp::task)
// spill to a fixed-size slab recycled through sched::Pool (returned to the
// thread that carved it, wherever the task ran); only captures larger than
// a slab fall back to operator new.
//
// omp::task_stats() reports the split as task_inline / task_alloc — the
// inline-payload rate the dispatch ablation (abl_glt_dispatch) prints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>

#include "sched/pool.hpp"

namespace glto::omp {

namespace detail {

/// A spilled capture's block: one fixed size keeps the pool simple and
/// covers every realistic capture (a boxed std::function is 32 bytes).
struct SpillSlab {
  alignas(std::max_align_t) unsigned char bytes[256];
};

// Defined in omp.cpp.
void note_task_inline();
void note_task_alloc();
[[nodiscard]] std::uint64_t task_inline_count();
[[nodiscard]] std::uint64_t task_alloc_count();

}  // namespace detail

/// Type-erased, move-only, allocation-free (for small trivially-copyable
/// captures) description of one unit of deferred work. 64 bytes total.
class TaskDesc {
 public:
  using InvokeFn = void (*)(void*);

  /// Inline payload capacity: five pointers' worth of capture. Larger or
  /// non-trivially-copyable callables spill to the slab pool.
  static constexpr std::size_t kInlineBytes = 40;
  static constexpr std::size_t kInlineAlign = 8;

  TaskDesc() = default;
  TaskDesc(const TaskDesc&) = delete;
  TaskDesc& operator=(const TaskDesc&) = delete;

  TaskDesc(TaskDesc&& other) noexcept { steal(other); }

  TaskDesc& operator=(TaskDesc&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~TaskDesc() { release(); }

  /// Builds a descriptor invoking f(args...). Arguments are captured by
  /// value (decay-copied — OpenMP firstprivate semantics); pass pointers
  /// or std::ref for shared state.
  template <class F, class... Args>
  [[nodiscard]] static TaskDesc make(F&& f, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      return from_callable(std::forward<F>(f));
    } else {
      return from_callable(
          [fn = std::decay_t<F>(std::forward<F>(f)),
           tup = std::tuple<std::decay_t<Args>...>(
               std::forward<Args>(args)...)]() mutable { std::apply(fn, tup); });
    }
  }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }
  [[nodiscard]] bool spilled() const { return spill_ != nullptr; }

  /// Executes the captured callable once and destroys the payload; the
  /// descriptor is empty afterwards. Must not be called twice.
  void run() {
    InvokeFn fn = invoke_;
    invoke_ = nullptr;
    fn(payload());
    destroy_payload();
  }

 private:
  template <class C0>
  [[nodiscard]] static TaskDesc from_callable(C0&& c) {
    using C = std::decay_t<C0>;
    static_assert(std::is_invocable_v<C&>,
                  "omp::task callable must be invocable with the given args");
    // The spill pool hands out max_align_t-aligned blocks (slab or plain
    // operator new); an over-aligned capture (e.g. an AVX vector) would
    // be constructed at UB alignment — reject it at compile time.
    static_assert(alignof(C) <= alignof(std::max_align_t),
                  "task capture alignment exceeds the spill pool's "
                  "max_align_t guarantee — capture a pointer instead");
    TaskDesc d;
    d.invoke_ = [](void* p) { (*static_cast<C*>(p))(); };
    if constexpr (sizeof(C) <= kInlineBytes && alignof(C) <= kInlineAlign &&
                  std::is_trivially_copyable_v<C>) {
      ::new (static_cast<void*>(d.buf_)) C(std::forward<C0>(c));
      detail::note_task_inline();
    } else {
      using Pool = sched::Pool<detail::SpillSlab>;
      constexpr bool kSlab = sizeof(C) <= sizeof(detail::SpillSlab);
      void* block = nullptr;
      if constexpr (kSlab) {
        block = Pool::alloc()->bytes;
      } else {
        block = ::operator new(sizeof(C));
      }
      ::new (block) C(std::forward<C0>(c));
      d.spill_ = block;
      d.destroy_ = [](void* p) {
        static_cast<C*>(p)->~C();
        if constexpr (kSlab) {
          Pool::free(static_cast<detail::SpillSlab*>(p));
        } else {
          ::operator delete(p);
        }
      };
      detail::note_task_alloc();
    }
    return d;
  }

  [[nodiscard]] void* payload() { return spill_ != nullptr ? spill_ : buf_; }

  void destroy_payload() {
    // Inline payloads are trivially copyable (hence trivially
    // destructible); only spills carry a destroy hook, which also returns
    // the block to the slab pool.
    if (destroy_ != nullptr) {
      InvokeFn d = destroy_;
      destroy_ = nullptr;
      void* p = spill_;
      spill_ = nullptr;
      d(p);
    }
  }

  /// Destroys a payload that never ran (descriptor dropped or overwritten).
  void release() {
    invoke_ = nullptr;
    destroy_payload();
  }

  void steal(TaskDesc& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    spill_ = other.spill_;
    if (spill_ == nullptr && invoke_ != nullptr) {
      // Inline payloads are trivially copyable by construction.
      __builtin_memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
    other.spill_ = nullptr;
  }

  InvokeFn invoke_ = nullptr;
  InvokeFn destroy_ = nullptr;  ///< non-null iff the payload spilled
  void* spill_ = nullptr;       ///< slab / heap block when capture didn't fit
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

static_assert(sizeof(TaskDesc) == 64, "TaskDesc is one cache line");

}  // namespace glto::omp
