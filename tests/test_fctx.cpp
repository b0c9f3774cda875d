// Unit tests for the fcontext switching core and the stack pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"

namespace gf = glto::fctx;

namespace {

// Simple coroutine harness: the context entry repeatedly receives a counter,
// increments it, and jumps back.
struct PingPong {
  gf::fcontext_t peer = nullptr;
  int hops = 0;
};

void pingpong_entry(gf::transfer_t t) {
  auto* st = static_cast<PingPong*>(t.data);
  gf::fcontext_t back = t.from;
  for (;;) {
    st->hops++;
    gf::transfer_t r = gf::jump_fcontext(back, st);
    back = r.from;
    st = static_cast<PingPong*>(r.data);
  }
}

}  // namespace

TEST(Fctx, MakeAndSingleJump) {
  gf::Stack s = gf::StackPool::global().acquire();
  gf::fcontext_t ctx = gf::make_fcontext(s.top, s.size, pingpong_entry);
  PingPong st;
  gf::transfer_t t = gf::jump_fcontext(ctx, &st);
  EXPECT_EQ(st.hops, 1);
  EXPECT_NE(t.from, nullptr);
  gf::StackPool::global().release(s);
}

TEST(Fctx, ManyRoundTrips) {
  gf::Stack s = gf::StackPool::global().acquire();
  gf::fcontext_t ctx = gf::make_fcontext(s.top, s.size, pingpong_entry);
  PingPong st;
  gf::transfer_t t = gf::jump_fcontext(ctx, &st);
  for (int i = 1; i < 1000; ++i) {
    t = gf::jump_fcontext(t.from, &st);
  }
  EXPECT_EQ(st.hops, 1000);
  gf::StackPool::global().release(s);
}

namespace {

void locals_entry(gf::transfer_t t) {
  // Verify stack locals survive suspension.
  volatile std::uint64_t magic[16];
  for (int i = 0; i < 16; ++i) magic[i] = 0xdeadbeef00ull + i;
  gf::transfer_t r = gf::jump_fcontext(t.from, t.data);
  for (int i = 0; i < 16; ++i) {
    if (magic[i] != 0xdeadbeef00ull + i) {
      *static_cast<bool*>(r.data) = false;
      gf::jump_fcontext(r.from, r.data);
    }
  }
  *static_cast<bool*>(r.data) = true;
  gf::jump_fcontext(r.from, r.data);
}

}  // namespace

TEST(Fctx, StackLocalsSurviveSuspension) {
  gf::Stack s = gf::StackPool::global().acquire();
  gf::fcontext_t ctx = gf::make_fcontext(s.top, s.size, locals_entry);
  bool ok = false;
  gf::transfer_t t = gf::jump_fcontext(ctx, &ok);
  gf::jump_fcontext(t.from, &ok);
  EXPECT_TRUE(ok);
  gf::StackPool::global().release(s);
}

namespace {

void chain_entry(gf::transfer_t t) {
  // Each context adds its depth and returns; exercises many live contexts.
  auto* v = static_cast<std::vector<int>*>(t.data);
  v->push_back(static_cast<int>(v->size()));
  gf::jump_fcontext(t.from, t.data);
  ADD_FAILURE() << "context resumed after completion";
}

}  // namespace

TEST(Fctx, ManyLiveContexts) {
  constexpr int kContexts = 64;
  std::vector<gf::Stack> stacks;
  std::vector<int> order;
  for (int i = 0; i < kContexts; ++i) {
    gf::Stack s = gf::StackPool::global().acquire();
    gf::fcontext_t c = gf::make_fcontext(s.top, s.size, chain_entry);
    gf::jump_fcontext(c, &order);
    stacks.push_back(s);
  }
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kContexts));
  for (int i = 0; i < kContexts; ++i) EXPECT_EQ(order[i], i);
  for (auto& s : stacks) gf::StackPool::global().release(s);
}

static_assert(gf::StackPool::kStackBytes % 4096 == 0,
              "stacks are mapped in whole pages");

TEST(StackPool, AcquireGivesUsableAlignedStack) {
  auto& pool = gf::StackPool::global();
  gf::Stack s = pool.acquire();
  ASSERT_TRUE(s.valid());
  EXPECT_GE(s.size, 32u * 1024u);
  EXPECT_LE(s.size, gf::StackPool::kStackBytes);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.top) % 16, 0u)
      << "stack top must be 16-byte alignable";
  // Write through the whole usable range (would fault on bad mapping).
  auto* p = static_cast<char*>(s.top) - s.size;
  for (std::size_t i = 0; i < s.size; i += 512) p[i] = char(i);
  static_cast<char*>(s.top)[-1] = 1;
  pool.release(s);
}

TEST(StackPool, RecyclesReleasedStacks) {
  auto& pool = gf::StackPool::global();
  gf::Stack a = pool.acquire();
  void* base = a.base;
  const auto mapped = pool.total_mapped();
  const auto hits = pool.cache_hits();
  pool.release(a);
  gf::Stack b = pool.acquire();
  EXPECT_EQ(b.base, base) << "the last stack released comes back first";
  EXPECT_EQ(pool.total_mapped(), mapped);
  EXPECT_EQ(pool.cache_hits(), hits + 1);
  pool.release(b);
}

TEST(StackPool, DistinctStacksWhenHeld) {
  auto& pool = gf::StackPool::global();
  const auto mapped = pool.total_mapped();
  gf::Stack a = pool.acquire();
  gf::Stack b = pool.acquire();
  EXPECT_NE(a.base, b.base);
  EXPECT_LE(pool.total_mapped() - mapped, 2u);
  pool.release(a);
  pool.release(b);
}

TEST(StackPool, GuardPageFaultsOnOverflow) {
  // The page below the usable range is PROT_NONE: a ULT overflowing its
  // stack must fault immediately instead of silently corrupting the
  // neighbouring mapping. Regression test for the guard-page contract.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto& pool = gf::StackPool::global();
  gf::Stack s = pool.acquire();
  auto* guard = static_cast<volatile char*>(s.base);
  EXPECT_DEATH({ guard[0] = 1; }, "");
  // The page just above the guard is the stack's lowest usable byte.
  auto* lowest = static_cast<char*>(s.top) - s.size;
  lowest[0] = 1;  // must NOT fault
  pool.release(s);
}

namespace {

/// Acquires stacks until one is freshly mapped: then every stack the
/// calling thread's slot owns is held, and its free lists are empty.
std::vector<gf::Stack> hold_until_mapped(gf::StackPool& pool) {
  std::vector<gf::Stack> held;
  for (;;) {
    const auto mapped = pool.total_mapped();
    held.push_back(pool.acquire());
    if (pool.total_mapped() != mapped) return held;
  }
}

}  // namespace

TEST(StackPool, StackReleasedElsewhereGoesHome) {
  // Thread B releases a stack thread A mapped, and stays alive: A's next
  // acquire must get that stack back instead of mapping another.
  auto& pool = gf::StackPool::global();
  std::vector<gf::Stack> held = hold_until_mapped(pool);
  const gf::Stack mine = held.back();
  held.pop_back();
  const auto mapped = pool.total_mapped();
  std::atomic<int> step{0};
  std::thread b([&] {
    pool.release(mine);
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
  });
  while (step.load() != 1) std::this_thread::yield();
  gf::Stack again = pool.acquire();
  EXPECT_EQ(again.base, mine.base);
  EXPECT_EQ(pool.total_mapped(), mapped);
  step.store(2);
  b.join();
  pool.release(again);
  for (auto& s : held) pool.release(s);
}

TEST(StackPool, CrossThreadChurnMapsOnlyWhatIsHeld) {
  // One thread acquires waves of stacks and another releases them, as
  // mth's work-first spawn binds a stack on one worker and another
  // releases it. Each wave comes back to the acquiring thread, so the
  // churn maps at most one wave's worth of stacks.
  auto& pool = gf::StackPool::global();
  constexpr std::size_t kWave = 24;
  constexpr int kRounds = 200;
  const auto mapped = pool.total_mapped();
  std::vector<gf::Stack> wave(kWave);
  std::atomic<int> posted{0};
  std::atomic<int> released{0};
  bool distinct = true;
  std::thread releaser([&] {
    for (int r = 1; r <= kRounds; ++r) {
      while (posted.load() != r) std::this_thread::yield();
      for (auto& s : wave) pool.release(s);
      released.store(r);
    }
  });
  for (int r = 1; r <= kRounds; ++r) {
    for (auto& s : wave) {
      s = pool.acquire();
      // Touch top and bottom of the usable range.
      auto* lo = static_cast<char*>(s.top) - s.size;
      lo[0] = static_cast<char>(r);
      static_cast<char*>(s.top)[-1] = static_cast<char>(r);
    }
    for (std::size_t i = 0; i < kWave; ++i) {
      for (std::size_t j = i + 1; j < kWave; ++j) {
        distinct = distinct && wave[i].base != wave[j].base;
      }
    }
    posted.store(r);
    while (released.load() != r) std::this_thread::yield();
  }
  releaser.join();
  EXPECT_TRUE(distinct);
  EXPECT_LE(pool.total_mapped() - mapped, kWave);
}
