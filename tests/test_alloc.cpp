// Zero-allocation steady state of the GLT create/join paths, detached
// creation, GLTO task waves and regions, and the qth FEB table.
//
// The global operator new/delete are replaced with counting versions. Each
// case runs warm-up rounds (pool and stack slots adopted, free lists and
// queues filled) and then asserts that the measured rounds call operator
// new zero times, from any thread. Backend-parameterized: a GLT ULT or
// tasklet is an engine record on abt, qth and mth alike. Records, GLTO
// task records and region-member arguments recycle through sched::Pool,
// and ULT stacks through fctx::StackPool; both return what another worker
// frees to the thread that made it: detached units, native qth forks,
// nested regions and tasks produced on one worker and finished on others
// allocate nothing at 4 workers too.
//
// Skipped under ASan/TSan builds and under fault injection: chaos alloc
// faults make the pool carve fresh blocks on purpose.
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
    // Every GLT_thread runs one unit that creates and joins another, so
    // each holds a cached stack and has adopted its record-pool slot: a
    // thread that first stole work (or, on mth, resumed the migrating
    // main) in a measured round would map its first stack or carve its
    // first slab then. Both are one-off warm-up costs, not per-ULT ones.
    for (int t = 0; t < gg::num_threads(); ++t) {
      gg::ult_join(gg::ult_create_to(
          t,
          [](void* c) { gg::ult_join(gg::ult_create(bump, c)); },
          &count_));
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

/// Detached units finish, and free their records, on whichever worker ran
/// them; the records go home to the creating thread's pool slot. On mth
/// the work-first spawn binds a stack on one worker and another releases
/// it; the stack goes home too.
class AllocGltDetached : public AllocGlt {};

TEST_P(AllocGltDetached, DetachedWaveAllocatesNothing) {
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
    Backends, AllocGltDetached,
    ::testing::Values(Shape{gg::Impl::abt, 1}, Shape{gg::Impl::qth, 1},
                      Shape{gg::Impl::mth, 1}, Shape{gg::Impl::abt, 4},
                      Shape{gg::Impl::qth, 4}, Shape{gg::Impl::mth, 4}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return name_of(info.param);
    });

struct GltoShape {
  o::RuntimeKind kind;
  int threads;
};

std::string glto_name(const ::testing::TestParamInfo<GltoShape>& info) {
  std::string n = o::kind_name(info.param.kind);
  for (auto& ch : n) {
    if (ch == '-') ch = '_';
  }
  return n + "_" + std::to_string(info.param.threads) + "threads";
}

void PrintTo(const GltoShape& s, std::ostream* os) {
  *os << o::kind_name(s.kind) << "_" << s.threads << "threads";
}

/// GLTO task waves and regions: task records, descriptors, region-member
/// arguments and the detached task and member ULTs all recycle, and
/// taskwait and region end are latch parks.
class AllocGlto : public ::testing::TestWithParam<GltoShape> {
 protected:
  void SetUp() override {
    std::string why;
    if (skip_reason(&why)) GTEST_SKIP() << why;
    o::SelectOptions opts;
    opts.num_threads = GetParam().threads;
    opts.bind_threads = false;
    o::select(GetParam().kind, opts);
    selected_ = true;
  }
  void TearDown() override {
    if (selected_) o::shutdown();
  }
  bool selected_ = false;
};

TEST_P(AllocGlto, TaskWaveAndTaskwaitAllocateNothing) {
  std::atomic<int> count{0};
  std::uint64_t n = ~0ull;
  // One long-lived region around every round; only its master produces,
  // so at more than one thread the tasks run, and are freed, elsewhere.
  o::parallel([&](int tid, int) {
    if (tid != 0) return;
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

/// Nested regions: every member argument, member record and member stack
/// recycles, also when a parked member ends on another worker than the one
/// its stack came from.
class AllocGltoRegions : public AllocGlto {};

TEST_P(AllocGltoRegions, NestedRegionAllocatesNothing) {
  std::atomic<int> count{0};
  const int t = GetParam().threads;
  const std::uint64_t n = steady_allocs([&] {
    o::parallel(t, [&](int, int) {
      o::parallel(2, [&](int, int) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(count.load(), 2 * t * (kWarmRounds + kRounds));
}

INSTANTIATE_TEST_SUITE_P(
    GltoRuntimes, AllocGlto,
    ::testing::Values(GltoShape{o::RuntimeKind::glto_abt, 1},
                      GltoShape{o::RuntimeKind::glto_qth, 1},
                      GltoShape{o::RuntimeKind::glto_mth, 1},
                      GltoShape{o::RuntimeKind::glto_abt, 4},
                      GltoShape{o::RuntimeKind::glto_qth, 4},
                      GltoShape{o::RuntimeKind::glto_mth, 4}),
    glto_name);

INSTANTIATE_TEST_SUITE_P(
    GltoRuntimes, AllocGltoRegions,
    ::testing::Values(GltoShape{o::RuntimeKind::glto_abt, 1},
                      GltoShape{o::RuntimeKind::glto_qth, 1},
                      GltoShape{o::RuntimeKind::glto_mth, 1},
                      GltoShape{o::RuntimeKind::glto_abt, 4},
                      GltoShape{o::RuntimeKind::glto_qth, 4},
                      GltoShape{o::RuntimeKind::glto_mth, 4}),
    glto_name);

/// Native qth at one shepherd.
class AllocQthNative : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string why;
    if (skip_reason(&why)) GTEST_SKIP() << why;
    gq::Config cfg;
    cfg.num_shepherds = shepherds_;
    cfg.bind_threads = false;
    gq::init(cfg);
  }
  void TearDown() override {
    if (gq::initialized()) gq::finalize();
  }
  int shepherds_ = 1;
};

/// Native qth at four shepherds: auto-freed fork records finish on
/// whichever shepherd ran them and go home to the forking one.
class AllocQthNativeWide : public AllocQthNative {
 protected:
  AllocQthNativeWide() { shepherds_ = 4; }
  void SetUp() override {
    AllocQthNative::SetUp();
    if (IsSkipped()) return;
    // As in AllocGlt: every shepherd runs one qthread that forks and joins
    // another, so each holds a cached stack and has adopted its pool slot.
    for (int s = 0; s < gq::num_shepherds(); ++s) {
      gq::aligned_t ret = 0;
      gq::aligned_t sink = 0;
      gq::fork_to(
          s,
          [](void*) -> gq::aligned_t {
            gq::aligned_t r = 0;
            gq::aligned_t v = 0;
            gq::fork([](void*) -> gq::aligned_t { return 1; }, nullptr, &r);
            gq::readFF(&v, &r);
            return v;
          },
          nullptr, &ret);
      gq::readFF(&sink, &ret);
    }
  }
};

TEST_F(AllocQthNativeWide, ForkWaveAllocatesNothing) {
  constexpr int kWave = 64;
  std::atomic<int> count{0};
  // No return words: an FEB entry is made the first time a word in an
  // entry-less bucket gets a waiter, which depends on timing. The forking
  // main yields until the wave has run instead.
  const std::uint64_t n = steady_allocs([&] {
    const int target = count.load() + kWave;
    for (int i = 0; i < kWave; ++i) {
      gq::fork(
          [](void* p) -> gq::aligned_t {
            static_cast<std::atomic<int>*>(p)->fetch_add(1);
            return 0;
          },
          &count, nullptr);
    }
    while (count.load() < target) gq::yield();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(count.load(), kWave * (kWarmRounds + kRounds));
}

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
