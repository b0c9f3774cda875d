#include "fctx/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <new>

#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/owner_slots.hpp"
#include "common/shard.hpp"

namespace glto::fctx {

namespace {

using Slots = common::OwnerSlots<StackPool>;

/// Sits at `top`, in the last bytes of the mapping. The link comes first:
/// a free stack's list node is its header.
struct alignas(16) Header {
  Slots::Node link;
  Slots::Slot* owner;
};

constexpr std::size_t kUsable = StackPool::kStackBytes - sizeof(Header);

struct alignas(common::kCacheLine) HitShard {
  std::atomic<std::uint64_t> hits{0};
};

common::Sharded<HitShard> g_hits;
std::atomic<std::uint64_t> g_mapped{0};

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

/// A fresh stack owned by @p owner.
Header* map_stack(Slots::Slot& owner) {
  const std::size_t guard = page_size();
  void* base = ::mmap(nullptr, guard + StackPool::kStackBytes,
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  GLTO_CHECK_MSG(base != MAP_FAILED, "stack mmap failed");
  // Guard page at the low end: stack overflow faults instead of corrupting
  // a neighbouring stack.
  GLTO_CHECK(::mprotect(base, guard, PROT_NONE) == 0);
  g_mapped.fetch_add(1, std::memory_order_relaxed);
  return ::new (static_cast<char*>(base) + guard + kUsable)
      Header{{nullptr}, &owner};
}

}  // namespace

Stack StackPool::acquire() {
  Slots::Slot& home = Slots::home();
  auto* h = reinterpret_cast<Header*>(Slots::pop(home));
  if (h != nullptr) {
    g_hits.bump(&HitShard::hits);
  } else {
    h = map_stack(home);
  }
  Stack s;
  s.top = h;
  s.size = kUsable;
  s.base = reinterpret_cast<char*>(h) - kUsable - page_size();
  // Fresh TSan fiber per occupancy: the handle is destroyed on release(),
  // so a recycled stack never inherits its previous occupant's vector
  // clock (stale happens-before edges would mask real races).
  s.tsan = tsan_fiber_create();
  return s;
}

void StackPool::release(Stack s) {
  if (!s.valid()) return;
  asan_clear_stack(s.region());  // drop poison left by abandoned frames
  tsan_fiber_destroy(s.tsan);    // retire the occupant's TSan identity
  auto* h = static_cast<Header*>(s.top);
  Slots::push(h->owner, &h->link);
}

std::uint64_t StackPool::total_mapped() const {
  return g_mapped.load(std::memory_order_relaxed);
}

std::uint64_t StackPool::cache_hits() const {
  return g_hits.sum(&HitShard::hits);
}

StackPool& StackPool::global() {
  static StackPool pool;  // stateless: the slots are process-wide
  return pool;
}

}  // namespace glto::fctx
