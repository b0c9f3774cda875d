// GLT conformance suite, parameterized over the three backends.
//
// The GLT promise (paper §III-B): a program written against the GLT API
// runs unmodified over any backend with identical *results* (performance
// may differ). Every test here therefore runs 3×: abt, qth, mth.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "fctx/stack_pool.hpp"
#include "glt/glt.hpp"

namespace gg = glto::glt;

class GltBackend : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void SetUp() override {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 3;
    cfg.bind_threads = false;
    gg::init(cfg);
  }
  void TearDown() override { gg::finalize(); }
};

TEST_P(GltBackend, InitReportsBackendAndThreads) {
  EXPECT_TRUE(gg::initialized());
  EXPECT_EQ(gg::current_impl(), GetParam());
  EXPECT_EQ(gg::num_threads(), 3);
  EXPECT_GE(gg::thread_num(), 0);
}

TEST_P(GltBackend, UltCreateJoin) {
  std::atomic<int> x{0};
  auto* u = gg::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(11); }, &x);
  gg::ult_join(u);
  EXPECT_EQ(x.load(), 11);
}

TEST_P(GltBackend, ManyUltsAllRun) {
  constexpr int kN = 300;
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), kN);
}

TEST_P(GltBackend, UltCreateBulkRunsEveryUnit) {
  // Bulk spawn conformance: one deposit publishes the whole batch; every
  // unit runs exactly once; handles join normally. Both distribution
  // hints, odd batch sizes, and a size larger than the internal wave.
  for (const bool spread : {false, true}) {
    for (const int n : {1, 7, 300}) {
      std::atomic<int> count{0};
      std::vector<void*> args(static_cast<std::size_t>(n), &count);
      std::vector<gg::Ult*> us(static_cast<std::size_t>(n));
      gg::ult_create_bulk(
          [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
          args.data(), n, us.data(), spread);
      for (auto* u : us) gg::ult_join(u);
      EXPECT_EQ(count.load(), n) << "spread=" << spread << " n=" << n;
    }
  }
  EXPECT_GT(gg::stats().bulk_deposits, 0u)
      << "bulk creates must go through the core's bulk-deposit path";
}

TEST_P(GltBackend, UltCreateBulkFromInsideUlt) {
  // A producer ULT fans a batch out mid-flight (the DAG ready-burst
  // shape); the creator joins its batch before finishing.
  struct Ctx {
    std::atomic<int> count{0};
  } ctx;
  auto* outer = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        constexpr int kN = 32;
        std::vector<void*> args(kN, &c->count);
        std::vector<gg::Ult*> us(kN);
        gg::ult_create_bulk(
            [](void* q) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
            args.data(), kN, us.data(), /*spread=*/false);
        for (auto* u : us) gg::ult_join(u);
      },
      &ctx);
  gg::ult_join(outer);
  EXPECT_EQ(ctx.count.load(), 32);
}

TEST_P(GltBackend, UltIsDoneTracksCompletion) {
  // The non-destructive completion probe behind the completion-order
  // burst join: false until the body ran, true after, join still works.
  std::atomic<int> count{0};
  constexpr int kN = 100;
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  // Completion-order reclaim: join whatever finished first.
  std::size_t remaining = us.size();
  while (remaining > 0) {
    bool progressed = false;
    for (auto& u : us) {
      if (u != nullptr && gg::ult_is_done(u)) {
        gg::ult_join(u);
        u = nullptr;
        --remaining;
        progressed = true;
      }
    }
    if (!progressed) gg::yield();
  }
  EXPECT_EQ(count.load(), kN);
}

void count_down(void* p) { static_cast<gg::latch*>(p)->count_down(); }

TEST_P(GltBackend, DetachedUltsCountDownALatch) {
  // Detached units have no handle: each counts down a latch the creator
  // waits on. They still count as created ULTs, and each gives its stack
  // back when it finishes. Singles both placements, then bulk waves with
  // both hints, one larger than the internal staging wave.
  constexpr int kSingles = 256;
  constexpr int kBulk = 300;
  const auto& pool = glto::fctx::StackPool::global();
  const std::uint64_t m0 = pool.total_mapped();
  const std::uint64_t c0 = gg::stats().ults_created;
  gg::latch done;
  done.add(kSingles + 2 * kBulk);
  for (int i = 0; i < kSingles; ++i) {
    gg::ult_create_detached(i % 2 == 0 ? -1 : i % gg::num_threads(),
                            count_down, &done);
  }
  std::vector<void*> args(kBulk, &done);
  for (const bool spread : {false, true}) {
    gg::ult_create_bulk(count_down, args.data(), kBulk, /*out=*/nullptr,
                        spread);
  }
  done.wait();
  EXPECT_EQ(gg::stats().ults_created - c0,
            static_cast<std::uint64_t>(kSingles + 2 * kBulk));
  // At most each GLT_thread's first stack and the primary scheduler's.
  EXPECT_LE(pool.total_mapped(),
            m0 + static_cast<std::uint64_t>(gg::num_threads()) + 1);
}

TEST_P(GltBackend, UltCreateToAllThreads) {
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  for (int t = 0; t < gg::num_threads(); ++t) {
    for (int i = 0; i < 20; ++i) {
      us.push_back(gg::ult_create_to(
          t, [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
          &count));
    }
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), gg::num_threads() * 20);
}

TEST_P(GltBackend, PlacementIsExactWithoutStealing) {
  if (gg::supports_stealing()) {
    GTEST_SKIP() << "mth: placement is advisory under work stealing";
  }
  for (int t = 0; t < gg::num_threads(); ++t) {
    std::atomic<int> ran_on{-1};
    auto* u = gg::ult_create_to(
        t,
        [](void* p) {
          static_cast<std::atomic<int>*>(p)->store(gg::thread_num());
        },
        &ran_on);
    gg::ult_join(u);
    EXPECT_EQ(ran_on.load(), t);
  }
}

TEST_P(GltBackend, TaskletCreateJoin) {
  std::atomic<int> x{0};
  auto* t = gg::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(21); }, &x);
  gg::tasklet_join(t);
  EXPECT_EQ(x.load(), 21);
}

TEST_P(GltBackend, TaskletsToSpecificThreads) {
  std::atomic<int> count{0};
  std::vector<gg::Tasklet*> ts;
  for (int t = 0; t < gg::num_threads(); ++t) {
    ts.push_back(gg::tasklet_create_to(
        t, [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* t : ts) gg::tasklet_join(t);
  EXPECT_EQ(count.load(), gg::num_threads());
}

TEST_P(GltBackend, YieldFromMainIsSafe) {
  for (int i = 0; i < 5; ++i) gg::yield();
  SUCCEED();
}

TEST_P(GltBackend, NestedCreateJoinInsideUlt) {
  std::atomic<int> total{0};
  auto* u = gg::ult_create(
      [](void* p) {
        std::vector<gg::Ult*> kids;
        for (int i = 0; i < 16; ++i) {
          kids.push_back(gg::ult_create(
              [](void* q) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
              p));
        }
        for (auto* k : kids) gg::ult_join(k);
        static_cast<std::atomic<int>*>(p)->fetch_add(100);
      },
      &total);
  gg::ult_join(u);
  EXPECT_EQ(total.load(), 116);
}

TEST_P(GltBackend, UltsCanYieldAndFinish) {
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  for (int i = 0; i < 20; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          for (int k = 0; k < 5; ++k) gg::yield();
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), 20);
}

TEST_P(GltBackend, StatsTrackCreations) {
  const auto before = gg::stats();
  std::atomic<int> x{0};
  auto* u = gg::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  auto* t = gg::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  gg::ult_join(u);
  gg::tasklet_join(t);
  const auto after = gg::stats();
  EXPECT_EQ(after.ults_created, before.ults_created + 1);
  EXPECT_EQ(after.tasklets_created, before.tasklets_created + 1);
}

TEST_P(GltBackend, CapabilitiesMatchBackend) {
  switch (GetParam()) {
    case gg::Impl::abt:
      EXPECT_FALSE(gg::supports_stealing());
      EXPECT_TRUE(gg::supports_native_tasklets());
      break;
    case gg::Impl::qth:
      EXPECT_FALSE(gg::supports_stealing());
      EXPECT_FALSE(gg::supports_native_tasklets());
      break;
    case gg::Impl::mth:
      EXPECT_TRUE(gg::supports_stealing());
      EXPECT_FALSE(gg::supports_native_tasklets());
      break;
  }
}

TEST_P(GltBackend, FanOutFanInPattern) {
  // Map-reduce shape: N ULTs write disjoint slots; main reduces after join.
  constexpr int kN = 128;
  static std::vector<long long> slots;
  slots.assign(kN, 0);
  struct Arg {
    int idx;
  };
  static Arg args[kN];
  std::vector<gg::Ult*> us;
  for (int i = 0; i < kN; ++i) {
    args[i].idx = i;
    us.push_back(gg::ult_create(
        [](void* p) {
          const int i = static_cast<Arg*>(p)->idx;
          slots[static_cast<std::size_t>(i)] = 1LL * i * i;
        },
        &args[i]));
  }
  for (auto* u : us) gg::ult_join(u);
  long long sum = 0;
  for (auto v : slots) sum += v;
  long long expect = 0;
  for (int i = 0; i < kN; ++i) expect += 1LL * i * i;
  EXPECT_EQ(sum, expect);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltBackend,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

// Stack residency follows running ULTs, not queued ones: a ULT binds its
// pooled stack when it first runs, on the GLT_thread that runs it, and
// releases it there when it finishes. One GLT_thread queues more no-op
// ULTs than the pool has ever mapped (help-first on every backend, mth
// included); none may take a stack while queued, and draining them cycles
// through the runner's cache instead of mapping a stack per unit.
class GltStackResidency : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void SetUp() override {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 1;
    cfg.bind_threads = false;
    gg::init(cfg);
  }
  void TearDown() override { gg::finalize(); }
};

TEST_P(GltStackResidency, QueuedUltsHoldNoStack) {
  const auto& pool = glto::fctx::StackPool::global();
  const std::uint64_t m0 = pool.total_mapped();
  const int k = static_cast<int>(m0) + 1024;
  std::atomic<int> count{0};
  std::vector<void*> args(static_cast<std::size_t>(k), &count);
  std::vector<gg::Ult*> us(static_cast<std::size_t>(k));
  gg::ult_create_bulk(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
      args.data(), k, us.data(), /*spread=*/false);
  EXPECT_EQ(pool.total_mapped(), m0)
      << "queued ULTs must not hold stacks before they first run";
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), k);
  // At most one stack for the running ULT plus the primary scheduler's
  // (created lazily at main's first suspension).
  EXPECT_LE(pool.total_mapped(), m0 + 2);
}

TEST_P(GltStackResidency, DetachedUltsReturnTheirStacks) {
  // A detached wave holds no stack while queued, and once it has drained
  // the next wave maps nothing: finished detached units return their
  // stacks (and records) without a join.
  const auto& pool = glto::fctx::StackPool::global();
  const std::uint64_t m0 = pool.total_mapped();
  const int k = static_cast<int>(m0) + 1024;
  gg::latch done;
  done.add(k);
  std::vector<void*> args(static_cast<std::size_t>(k), &done);
  gg::ult_create_bulk(count_down, args.data(), k, /*out=*/nullptr,
                      /*spread=*/false);
  EXPECT_EQ(pool.total_mapped(), m0)
      << "queued detached ULTs must not hold stacks";
  done.wait();
  const std::uint64_t m1 = pool.total_mapped();
  EXPECT_LE(m1, m0 + 2);
  gg::latch again;
  again.add(256);
  for (int i = 0; i < 256; ++i) {
    gg::ult_create_detached(-1, count_down, &again);
  }
  again.wait();
  EXPECT_EQ(pool.total_mapped(), m1)
      << "detached ULTs must give their stacks back when they finish";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltStackResidency,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

// GLT_SHARED_QUEUES=1 conformance: the §IV-F shared-pool ablation must
// produce identical results on every backend now that qth and mth honour
// it through the shared scheduling core (previously abt-only).
class GltSharedQueues : public ::testing::TestWithParam<gg::Impl> {
 protected:
  void SetUp() override {
    gg::Config cfg;
    cfg.impl = GetParam();
    cfg.num_threads = 3;
    cfg.bind_threads = false;
    cfg.shared_queues = true;
    gg::init(cfg);
  }
  void TearDown() override { gg::finalize(); }
};

TEST_P(GltSharedQueues, ManyUltsAllRun) {
  constexpr int kN = 200;
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), kN);
}

TEST_P(GltSharedQueues, NestedCreateJoinInsideUlt) {
  std::atomic<int> total{0};
  auto* u = gg::ult_create(
      [](void* p) {
        std::vector<gg::Ult*> kids;
        for (int i = 0; i < 16; ++i) {
          kids.push_back(gg::ult_create(
              [](void* q) { static_cast<std::atomic<int>*>(q)->fetch_add(1); },
              p));
        }
        for (auto* k : kids) gg::ult_join(k);
        static_cast<std::atomic<int>*>(p)->fetch_add(100);
      },
      &total);
  gg::ult_join(u);
  EXPECT_EQ(total.load(), 116);
}

TEST_P(GltSharedQueues, UltsCanYieldAndFinish) {
  std::atomic<int> count{0};
  std::vector<gg::Ult*> us;
  for (int i = 0; i < 20; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          for (int k = 0; k < 5; ++k) gg::yield();
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        },
        &count));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(count.load(), 20);
}

TEST_P(GltSharedQueues, TaskletsRunToo) {
  std::atomic<int> x{0};
  auto* t = gg::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  gg::tasklet_join(t);
  EXPECT_EQ(x.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GltSharedQueues,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

TEST(GltConfig, ImplNameRoundTrip) {
  for (auto impl : {gg::Impl::abt, gg::Impl::qth, gg::Impl::mth}) {
    auto parsed = gg::impl_from_string(gg::impl_name(impl));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, impl);
  }
  EXPECT_FALSE(gg::impl_from_string("pthreads").has_value());
}

TEST(GltConfig, LongNamesAccepted) {
  EXPECT_EQ(*gg::impl_from_string("argobots"), gg::Impl::abt);
  EXPECT_EQ(*gg::impl_from_string("qthreads"), gg::Impl::qth);
  EXPECT_EQ(*gg::impl_from_string("massivethreads"), gg::Impl::mth);
}

TEST(GltConfig, QueriesBeforeInitReportNoTeam) {
  ASSERT_FALSE(gg::initialized());
  EXPECT_EQ(gg::num_threads(), 0);
  EXPECT_EQ(gg::thread_num(), -1);
}

TEST(GltConfig, EnvConfigParsing) {
  namespace env = glto::common;
  env::env_set("GLT_IMPL", "mth");
  env::env_set("GLT_NUM_THREADS", "5");
  env::env_set("GLT_SHARED_QUEUES", "1");
  auto cfg = gg::config_from_env();
  EXPECT_EQ(cfg.impl, gg::Impl::mth);
  EXPECT_EQ(cfg.num_threads, 5);
  EXPECT_TRUE(cfg.shared_queues);
  env::env_set("GLT_IMPL", nullptr);
  env::env_set("GLT_NUM_THREADS", nullptr);
  env::env_set("GLT_SHARED_QUEUES", nullptr);
  auto cfg2 = gg::config_from_env();
  EXPECT_EQ(cfg2.impl, gg::Impl::abt) << "abt is the default backend";
  EXPECT_EQ(cfg2.num_threads, 0);
  EXPECT_FALSE(cfg2.shared_queues);
}
