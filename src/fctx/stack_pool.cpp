#include "fctx/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "common/debug.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"

namespace glto::fctx {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up_pages(std::size_t n) {
  const std::size_t ps = page_size();
  return (n + ps - 1) / ps * ps;
}

}  // namespace

struct StackPool::Impl {
  glto::common::SpinLock lock;
  // recycled stacks (base addresses); guarded by lock
  std::vector<void*> free_bases GLTO_GUARDED_BY(lock);
  // everything mapped, for teardown; guarded by lock
  std::vector<void*> all_bases GLTO_GUARDED_BY(lock);
  std::atomic<std::uint64_t> mapped{0};
  std::atomic<std::uint64_t> cache_hits{0};
  bool per_thread_cache = false;
};

namespace {

/// Per-thread free-stack cache. Bound to at most one pool per thread (in
/// practice: the immortal global() pool — the only one allowed to enable
/// caching, so the spill in the destructor can never dangle). A fixed
/// array: it never holds more than kCacheSpillHigh + 1 stacks, and a
/// growing vector would reach the heap whenever a worker's cache hit a new
/// high-water mark.
struct ThreadCache {
  StackPool::Impl* owner = nullptr;
  void* bases[StackPool::kCacheSpillHigh + 1];
  std::size_t n = 0;

  ~ThreadCache() {
    if (owner == nullptr || n == 0) return;
    glto::common::SpinGuard g(owner->lock);
    owner->free_bases.insert(owner->free_bases.end(), bases, bases + n);
  }
};

thread_local ThreadCache t_cache;

}  // namespace

StackPool::StackPool(std::size_t stack_size, bool per_thread_cache)
    : impl_(new Impl), stack_size_(round_up_pages(stack_size)) {
  impl_->per_thread_cache = per_thread_cache;
}

StackPool::~StackPool() {
  // A caching pool must be immortal: per-thread caches hold a raw Impl*
  // that they dereference from thread-exit destructors, so destroying
  // the pool first would be a use-after-free. Fail loudly instead.
  GLTO_CHECK_MSG(!impl_->per_thread_cache,
                 "a StackPool with per_thread_cache enabled must never be "
                 "destroyed (thread caches spill into it at thread exit)");
  const std::size_t total = stack_size_ + page_size();
  for (void* base : impl_->all_bases) ::munmap(base, total);
  delete impl_;
}

Stack StackPool::make_stack(void* base) const {
  Stack s;
  s.base = base;
  s.size = stack_size_;
  s.top = static_cast<char*>(base) + page_size() + stack_size_;
  // Fresh TSan fiber per occupancy: the handle is destroyed on release(),
  // so a recycled stack never inherits its previous occupant's vector
  // clock (stale happens-before edges would mask real races).
  s.tsan = tsan_fiber_create();
  return s;
}

Stack StackPool::acquire() {
  if (impl_->per_thread_cache &&
      (t_cache.owner == impl_ || t_cache.owner == nullptr)) {
    t_cache.owner = impl_;
    if (t_cache.n > 0) {
      impl_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      return make_stack(t_cache.bases[--t_cache.n]);
    }
    // Batch refill: one lock acquisition amortized over kCacheRefillBatch
    // subsequent lock-free acquires.
    {
      glto::common::SpinGuard g(impl_->lock);
      const std::size_t take =
          std::min(kCacheRefillBatch, impl_->free_bases.size());
      for (std::size_t i = 0; i < take; ++i) {
        t_cache.bases[t_cache.n++] = impl_->free_bases.back();
        impl_->free_bases.pop_back();
      }
    }
    if (t_cache.n > 0) return make_stack(t_cache.bases[--t_cache.n]);
  } else {
    glto::common::SpinGuard g(impl_->lock);
    if (!impl_->free_bases.empty()) {
      void* base = impl_->free_bases.back();
      impl_->free_bases.pop_back();
      return make_stack(base);
    }
  }
  const std::size_t total = stack_size_ + page_size();
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  GLTO_CHECK_MSG(base != MAP_FAILED, "stack mmap failed");
  // Guard page at the low end: stack overflow faults instead of corrupting
  // a neighbouring stack.
  GLTO_CHECK(::mprotect(base, page_size(), PROT_NONE) == 0);
  impl_->mapped.fetch_add(1, std::memory_order_relaxed);
  {
    glto::common::SpinGuard g(impl_->lock);
    impl_->all_bases.push_back(base);
  }
  return make_stack(base);
}

void StackPool::release(Stack s) {
  if (!s.valid()) return;
  asan_clear_stack(s.region());  // drop poison left by abandoned frames
  tsan_fiber_destroy(s.tsan);    // retire the occupant's TSan identity
  if (impl_->per_thread_cache &&
      (t_cache.owner == impl_ || t_cache.owner == nullptr)) {
    t_cache.owner = impl_;
    t_cache.bases[t_cache.n++] = s.base;
    if (t_cache.n > kCacheSpillHigh) {
      // Spill half back to the shared freelist in one lock acquisition so
      // a join-heavy thread keeps feeding spawn-heavy ones.
      const std::size_t keep = kCacheSpillHigh / 2;
      glto::common::SpinGuard g(impl_->lock);
      impl_->free_bases.insert(impl_->free_bases.end(), t_cache.bases + keep,
                               t_cache.bases + t_cache.n);
      t_cache.n = keep;
    }
    return;
  }
  glto::common::SpinGuard g(impl_->lock);
  impl_->free_bases.push_back(s.base);
}

std::uint64_t StackPool::total_mapped() const {
  return impl_->mapped.load(std::memory_order_relaxed);
}

std::uint64_t StackPool::cache_hits() const {
  return impl_->cache_hits.load(std::memory_order_relaxed);
}

StackPool& StackPool::global() {
  static StackPool* pool =  // immortal: ULTs may outlive main
      new StackPool(kDefaultStackSize, /*per_thread_cache=*/true);
  return *pool;
}

}  // namespace glto::fctx
