// Zero-allocation steady state of the GLT create/join paths, detached
// creation, GLTO task waves and the qth FEB table.
//
// The global operator new/delete are replaced with counting versions. Each
// case runs a warm-up round (freelists, stack caches and queues fill) and
// then asserts that the measured rounds call operator new zero times, from
// any thread. Backend-parameterized: a GLT ULT or tasklet is an engine
// record on abt, qth and mth alike, recycled through the engine freelist.
//
// Skipped under ASan/TSan builds and under fault injection: chaos alloc
// faults force the heap path on purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "qth/qth.hpp"
#include "sched/chaos.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GLTO_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GLTO_TEST_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return posix_memalign(&p, align, n) == 0 ? p : nullptr;
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, alignof(std::max_align_t));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace gg = glto::glt;
namespace gq = glto::qth;
namespace o = glto::omp;

constexpr int kWarmRounds = 3;
constexpr int kRounds = 20;

/// operator new calls made by kRounds rounds of @p round, after
/// kWarmRounds unmeasured ones.
template <class F>
std::uint64_t steady_allocs(F round) {
  for (int i = 0; i < kWarmRounds; ++i) round();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) round();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

bool skip_reason(std::string* why) {
#if defined(GLTO_TEST_SANITIZED)
  *why = "sanitizer runtimes allocate on their own";
  return true;
#else
  glto::sched::chaos_init_from_env();  // idempotent; init would resolve it
  if (glto::sched::chaos_enabled()) {
    *why = "chaos alloc faults force the heap by design";
    return true;
  }
  return false;
#endif
}

void bump(void* p) {
  static_cast<std::atomic<int>*>(p)->fetch_add(1, std::memory_order_relaxed);
}

struct Shape {
  gg::Impl impl;
  int threads;
};

std::string name_of(const Shape& s) {
  return std::string(gg::impl_name(s.impl)) + "_" + std::to_string(s.threads) +
         "threads";
}

void PrintTo(const Shape& s, std::ostream* os) { *os << name_of(s); }

class AllocGlt : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    std::string why;
    if (skip_reason(&why)) GTEST_SKIP() << why;
    gg::Config cfg;
    cfg.impl = GetParam().impl;
    cfg.num_threads = GetParam().threads;
    cfg.bind_threads = false;
    gg::init(cfg);
    // Every GLT_thread runs one unit first, so each holds a cached stack:
    // a thread that first stole work in a measured round would map its
    // first stack then, and growing the pool's bookkeeping is a one-off
    // warm-up cost, not a per-ULT one.
    for (int t = 0; t < gg::num_threads(); ++t) {
      gg::ult_join(gg::ult_create_to(t, bump, &count_));
    }
    count_.store(0);
  }
  void TearDown() override {
    if (gg::initialized()) gg::finalize();
  }
  std::atomic<int> count_{0};
};

TEST_P(AllocGlt, WaveOf64CreateJoinAllocatesNothing) {
  constexpr int kWave = 64;
  gg::Ult* us[kWave];
  const std::uint64_t n = steady_allocs([&] {
    for (auto*& u : us) u = gg::ult_create(bump, &count_);
    for (auto* u : us) gg::ult_join(u);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(count_.load(), kWave * (kWarmRounds + kRounds));
}

TEST_P(AllocGlt, CreateJoinPingPongAllocatesNothing) {
  const std::uint64_t n = steady_allocs([&] {
    for (int i = 0; i < 64; ++i) gg::ult_join(gg::ult_create(bump, &count_));
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(count_.load(), 64 * (kWarmRounds + kRounds));
}

TEST_P(AllocGlt, TaskletCreateJoinAllocatesNothing) {
  const std::uint64_t n = steady_allocs([&] {
    for (int i = 0; i < 64; ++i) {
      gg::tasklet_join(gg::tasklet_create(bump, &count_));
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(count_.load(), 64 * (kWarmRounds + kRounds));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AllocGlt,
    ::testing::Values(Shape{gg::Impl::abt, 1}, Shape{gg::Impl::qth, 1},
                      Shape{gg::Impl::mth, 1}, Shape{gg::Impl::abt, 4},
                      Shape{gg::Impl::qth, 4}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return name_of(info.param);
    });

void count_down(void* p) { static_cast<gg::latch*>(p)->count_down(); }

/// One-worker shapes only. (At more workers a detached record is recycled
/// on whichever worker ran it, so the creating worker keeps refilling its
/// list from the heap — the same hoarding as native qth fork waves.)
class AllocGltOneWorker : public AllocGlt {};

TEST_P(AllocGltOneWorker, DetachedWaveAllocatesNothing) {
  constexpr int kWave = 64;
  void* args[kWave];
  gg::latch done;
  for (auto*& a : args) a = &done;
  const std::uint64_t n = steady_allocs([&] {
    done.add(2 * kWave);
    for (int i = 0; i < kWave; ++i) {
      gg::ult_create_detached(-1, count_down, &done);
    }
    gg::ult_create_bulk(count_down, args, kWave, /*out=*/nullptr,
                        /*spread=*/false);
    done.wait();
  });
  EXPECT_EQ(n, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AllocGltOneWorker,
    ::testing::Values(Shape{gg::Impl::abt, 1}, Shape{gg::Impl::qth, 1},
                      Shape{gg::Impl::mth, 1}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return name_of(info.param);
    });

/// GLTO task waves at one GLT_thread: task records, descriptors and the
/// detached task ULTs all recycle, and taskwait is a latch park.
class AllocGltoTasks : public ::testing::TestWithParam<o::RuntimeKind> {
 protected:
  void SetUp() override {
    std::string why;
    if (skip_reason(&why)) GTEST_SKIP() << why;
    o::SelectOptions opts;
    opts.num_threads = 1;
    opts.bind_threads = false;
    o::select(GetParam(), opts);
    selected_ = true;
  }
  void TearDown() override {
    if (selected_) o::shutdown();
  }
  bool selected_ = false;
};

TEST_P(AllocGltoTasks, TaskWaveAndTaskwaitAllocateNothing) {
  std::atomic<int> count{0};
  std::uint64_t n = ~0ull;
  o::parallel([&](int, int) {  // one long-lived region around every round
    n = steady_allocs([&] {
      for (int i = 0; i < 64; ++i) {
        o::task([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
      o::taskwait();
    });
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(count.load(), 64 * (kWarmRounds + kRounds));
}

INSTANTIATE_TEST_SUITE_P(
    GltoRuntimes, AllocGltoTasks,
    ::testing::Values(o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                      o::RuntimeKind::glto_mth),
    [](const ::testing::TestParamInfo<o::RuntimeKind>& info) {
      std::string n = o::kind_name(info.param);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

/// Native qth at one shepherd. (Auto-freed fork waves at more shepherds
/// are left out: their records are recycled on whichever shepherd ran
/// them, so the forking shepherd keeps refilling from the heap.)
class AllocQthNative : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string why;
    if (skip_reason(&why)) GTEST_SKIP() << why;
    gq::Config cfg;
    cfg.num_shepherds = 1;
    cfg.bind_threads = false;
    gq::init(cfg);
  }
  void TearDown() override {
    if (gq::initialized()) gq::finalize();
  }
};

TEST_F(AllocQthNative, FebCycleAllocatesNothing) {
  gq::aligned_t word = 0;
  gq::aligned_t got = 0;
  const std::uint64_t n = steady_allocs([&] {
    gq::feb_empty(&word);
    gq::writeF(&word, 7);
    gq::readFF(&got, &word);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(got, 7u);
  EXPECT_TRUE(gq::feb_is_full(&word));
}

struct HandOff {
  gq::aligned_t word = 0;
  gq::aligned_t got = 0;
};

TEST_F(AllocQthNative, BlockingHandOffAllocatesNothing) {
  HandOff h;
  const auto before = gq::stats().feb_blocks;
  const std::uint64_t n = steady_allocs([&] {
    gq::feb_empty(&h.word);
    gq::aligned_t producer_ret = 0;
    gq::aligned_t consumer_ret = 0;
    gq::fork(
        [](void* p) -> gq::aligned_t {
          gq::writeEF(&static_cast<HandOff*>(p)->word, 42);
          return 0;
        },
        &h, &producer_ret);
    // The deque runs its newest unit first: the consumer parks on the
    // empty word before the producer fills it.
    gq::fork(
        [](void* p) -> gq::aligned_t {
          auto* ho = static_cast<HandOff*>(p);
          gq::readFE(&ho->got, &ho->word);
          return 1;
        },
        &h, &consumer_ret);
    gq::aligned_t sink = 0;
    gq::readFF(&sink, &consumer_ret);
    gq::readFF(&sink, &producer_ret);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(h.got, 42u);
  EXPECT_FALSE(gq::feb_is_full(&h.word)) << "readFE leaves the word empty";
  // Each round parks the consumer on the word and main on a return word.
  EXPECT_GE(gq::stats().feb_blocks - before,
            2u * (kWarmRounds + kRounds));
}

}  // namespace
