// Unit + integration tests for the Argobots-like runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "abt/abt.hpp"
#include "fctx/stack_pool.hpp"

namespace ga = glto::abt;

namespace {

/// RAII runtime for a test body.
struct AbtScope {
  explicit AbtScope(int n, bool shared = false) {
    ga::Config cfg;
    cfg.num_xstreams = n;
    cfg.shared_pool = shared;
    cfg.bind_threads = false;  // container may have 1 core
    ga::init(cfg);
  }
  ~AbtScope() { ga::finalize(); }
};

}  // namespace

TEST(Abt, InitFinalize) {
  AbtScope s(2);
  EXPECT_TRUE(ga::initialized());
  EXPECT_EQ(ga::num_xstreams(), 2);
  EXPECT_EQ(ga::self_rank(), 0);
  EXPECT_TRUE(ga::in_ult()) << "caller is the primary ULT";
}

TEST(Abt, SingleUltRunsAndJoins) {
  AbtScope s(1);
  std::atomic<int> x{0};
  auto* u = ga::ult_create([](void* p) { static_cast<std::atomic<int>*>(p)->store(42); }, &x);
  ga::join(u);
  EXPECT_EQ(x.load(), 42);
}

TEST(Abt, ManyUltsAllExecute) {
  AbtScope s(4);
  constexpr int kN = 500;
  std::atomic<int> count{0};
  std::vector<ga::WorkUnit*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(ga::ult_create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* u : us) ga::join(u);
  EXPECT_EQ(count.load(), kN);
}

TEST(Abt, UltCreateOnTargetsXstream) {
  AbtScope s(3);
  // create_on pins: a ULT created on rank r must execute on rank r even
  // with work stealing enabled (exact-placement contract).
  for (int r = 0; r < 3; ++r) {
    std::atomic<int> observed{-1};
    auto* u = ga::ult_create_on(
        r,
        [](void* p) {
          static_cast<std::atomic<int>*>(p)->store(ga::self_rank());
        },
        &observed);
    ga::join(u);
    EXPECT_EQ(observed.load(), r) << "pinned units are never stolen";
  }
}

TEST(Abt, ExecutedOnReportsRank) {
  AbtScope s(3);
  for (int r = 0; r < 3; ++r) {
    std::atomic<int> dummy{0};
    auto* u = ga::ult_create_on(
        r, [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); },
        &dummy);
    // Yield while waiting: a ULT on xstream 0 only runs when the primary
    // ULT suspends (cooperative scheduling).
    while (!ga::is_done(u)) ga::yield();
    EXPECT_EQ(ga::executed_on(u), r);
    ga::join(u);
  }
}

TEST(Abt, TaskletRunsWithoutStack) {
  AbtScope s(2);
  std::atomic<int> x{0};
  auto* t = ga::tasklet_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(7); }, &x);
  ga::join(t);
  EXPECT_EQ(x.load(), 7);
  EXPECT_GE(ga::stats().tasklets_created, 1u);
}

TEST(Abt, YieldInterleavesUltsOnOneXstream) {
  AbtScope s(1);
  // Two ULTs on one xstream must interleave via yield: each appends its tag
  // alternately. Proves cooperative scheduling works and that yield is a
  // fairness point (a yielded ULT goes to the FIFO side queue, so its peer
  // runs next). Which tag goes first is a scheduling detail (the
  // work-first deque pops the newest ULT first), so only strict
  // alternation is asserted, not the starting tag.
  struct Shared {
    std::vector<int> order;
  } sh;
  struct Arg {
    Shared* sh;
    int tag;
  };
  Arg a0{&sh, 0}, a1{&sh, 1};
  auto body = [](void* p) {
    auto* a = static_cast<Arg*>(p);
    for (int i = 0; i < 3; ++i) {
      a->sh->order.push_back(a->tag);
      ga::yield();
    }
  };
  auto* u0 = ga::ult_create(body, &a0);
  auto* u1 = ga::ult_create(body, &a1);
  ga::join(u0);
  ga::join(u1);
  ASSERT_EQ(sh.order.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(sh.order[static_cast<std::size_t>(i)], sh.order[i % 2])
        << "i=" << i;
  }
  EXPECT_NE(sh.order[0], sh.order[1]) << "yield must interleave the ULTs";
}

TEST(Abt, UltJoinsAnotherUlt) {
  AbtScope s(2);
  struct State {
    std::atomic<int> inner{0};
    std::atomic<int> outer{0};
  } st;
  struct Outer {
    State* st;
  } outer_arg{&st};
  auto* u = ga::ult_create(
      [](void* p) {
        auto* st = static_cast<Outer*>(p)->st;
        auto* inner = ga::ult_create(
            [](void* q) { static_cast<State*>(q)->inner.store(5); }, st);
        ga::join(inner);
        st->outer.store(st->inner.load() + 1);
      },
      &outer_arg);
  ga::join(u);
  EXPECT_EQ(st.inner.load(), 5);
  EXPECT_EQ(st.outer.load(), 6);
}

TEST(Abt, DeepNestedJoinChain) {
  AbtScope s(2);
  // Each ULT spawns and joins the next; depth 50 exercises blocking and
  // re-readying through the scheduler repeatedly.
  struct Node {
    int depth;
    std::atomic<int>* sum;
  };
  static ga::WorkFn rec = [](void* p) {
    auto* n = static_cast<Node*>(p);
    if (n->depth > 0) {
      Node child{n->depth - 1, n->sum};
      auto* u = ga::ult_create(rec, &child);
      ga::join(u);
    }
    n->sum->fetch_add(1);
  };
  std::atomic<int> sum{0};
  Node root{50, &sum};
  auto* u = ga::ult_create(rec, &root);
  ga::join(u);
  EXPECT_EQ(sum.load(), 51);
}

TEST(Abt, SharedPoolExecutesEverything) {
  AbtScope s(4, /*shared=*/true);
  constexpr int kN = 300;
  std::atomic<int> count{0};
  std::vector<ga::WorkUnit*> us;
  for (int i = 0; i < kN; ++i) {
    // Placement rank is advisory under a shared pool.
    us.push_back(ga::ult_create_on(
        i % 4, [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* u : us) ga::join(u);
  EXPECT_EQ(count.load(), kN);
}

TEST(Abt, StatsCountCreations) {
  AbtScope s(1);
  const auto before = ga::stats();
  std::atomic<int> x{0};
  auto* a = ga::ult_create([](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  auto* b = ga::tasklet_create([](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  ga::join(a);
  ga::join(b);
  const auto after = ga::stats();
  EXPECT_EQ(after.ults_created, before.ults_created + 1);
  EXPECT_EQ(after.tasklets_created, before.tasklets_created + 1);
}

TEST(Abt, ReinitAfterFinalize) {
  {
    AbtScope s(2);
    std::atomic<int> x{0};
    auto* u = ga::ult_create([](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &x);
    ga::join(u);
  }
  {
    AbtScope s(3);
    EXPECT_EQ(ga::num_xstreams(), 3);
    std::atomic<int> x{0};
    auto* u = ga::ult_create([](void* p) { static_cast<std::atomic<int>*>(p)->store(2); }, &x);
    ga::join(u);
    EXPECT_EQ(x.load(), 2);
  }
}

TEST(Abt, ChildCreatesGrandchildrenAcrossXstreams) {
  AbtScope s(4);
  std::atomic<int> total{0};
  struct Arg {
    std::atomic<int>* total;
  } arg{&total};
  auto* u = ga::ult_create(
      [](void* p) {
        auto* total = static_cast<Arg*>(p)->total;
        std::vector<ga::WorkUnit*> kids;
        for (int r = 0; r < ga::num_xstreams(); ++r) {
          for (int i = 0; i < 10; ++i) {
            kids.push_back(ga::ult_create_on(
                r,
                [](void* q) {
                  static_cast<std::atomic<int>*>(q)->fetch_add(1);
                },
                total));
          }
        }
        for (auto* k : kids) ga::join(k);
      },
      &arg);
  ga::join(u);
  EXPECT_EQ(total.load(), 40);
}

TEST(Abt, ManyTaskletsInterleavedWithUlts) {
  AbtScope s(2);
  constexpr int kN = 200;
  std::atomic<int> count{0};
  std::vector<ga::WorkUnit*> ws;
  for (int i = 0; i < kN; ++i) {
    auto fn = [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); };
    ws.push_back(i % 2 == 0 ? ga::ult_create(fn, &count)
                            : ga::tasklet_create(fn, &count));
  }
  for (auto* w : ws) ga::join(w);
  EXPECT_EQ(count.load(), kN);
}

// ---------------------------------------------------------------------------
// Work-stealing scheduler surfaces (Chase–Lev dispatch, PR 1).
// ---------------------------------------------------------------------------

TEST(AbtSteal, IdleXstreamStealsUnpinnedWork) {
  AbtScope s(2);
  // The primary ULT never suspends below, so xstream 0's scheduler never
  // runs: the only way this unpinned ULT can execute is a steal by
  // xstream 1. Deterministic forcing of the steal path.
  std::atomic<int> ran_on{-1};
  auto* u = ga::ult_create(
      [](void* p) {
        static_cast<std::atomic<int>*>(p)->store(ga::self_rank());
      },
      &ran_on);
  while (!ga::is_done(u)) {
    // Busy poll WITHOUT yielding: keeps the primary scheduler parked.
  }
  EXPECT_EQ(ran_on.load(), 1) << "unit must have been stolen by xstream 1";
  EXPECT_EQ(ga::executed_on(u), 1);
  EXPECT_GE(ga::stats().steals, 1u);
  ga::join(u);
}

TEST(AbtSteal, PinnedPlacementExactUnderStealStorm) {
  AbtScope s(4);
  // A storm of stealable units plus pinned units to every rank: stealing
  // must never move a pinned unit off its target xstream.
  constexpr int kStorm = 400;
  constexpr int kPinnedPerRank = 25;
  std::atomic<int> storm_count{0};
  std::vector<ga::WorkUnit*> storm;
  storm.reserve(kStorm);
  for (int i = 0; i < kStorm; ++i) {
    storm.push_back(ga::ult_create(
        [](void* p) {
          ga::yield();  // churn: suspensions interleave with steals
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        },
        &storm_count));
  }
  struct Observed {
    std::atomic<int> rank{-1};
  };
  std::vector<Observed> seen(4 * kPinnedPerRank);
  std::vector<ga::WorkUnit*> pinned;
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < kPinnedPerRank; ++i) {
      pinned.push_back(ga::ult_create_on(
          r,
          [](void* p) {
            static_cast<Observed*>(p)->rank.store(ga::self_rank());
          },
          &seen[static_cast<std::size_t>(r * kPinnedPerRank + i)]));
    }
  }
  for (auto* u : pinned) ga::join(u);
  for (auto* u : storm) ga::join(u);
  EXPECT_EQ(storm_count.load(), kStorm);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < kPinnedPerRank; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(r * kPinnedPerRank + i)]
                    .rank.load(),
                r)
          << "pinned unit crossed xstreams";
    }
  }
}

TEST(AbtSteal, SelfLocalFollowsUnitAcrossSteals) {
  AbtScope s(3);
  // self_local is per-work-unit state: it must travel with the ULT even
  // when yields let the unit migrate between xstreams.
  constexpr int kN = 60;
  std::atomic<int> bad{0};
  std::vector<ga::WorkUnit*> us;
  us.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    us.push_back(ga::ult_create(
        [](void* p) {
          int token = 0;
          ga::set_self_local(&token);
          for (int k = 0; k < 4; ++k) {
            ga::yield();
            if (ga::self_local() != &token) {
              static_cast<std::atomic<int>*>(p)->fetch_add(1);
              return;
            }
          }
        },
        &bad));
  }
  for (auto* u : us) ga::join(u);
  EXPECT_EQ(bad.load(), 0) << "self_local detached from its work unit";
}

TEST(AbtSteal, StackCacheHitsCountRecycledStacks) {
  AbtScope s(1);
  // Single xstream → the stack released when the first ULT finishes goes
  // home to *this* thread's slot, so the second ULT's acquire must reuse
  // it, visible as a strictly increasing counter.
  std::atomic<int> x{0};
  auto bump = [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); };
  ga::join(ga::ult_create(bump, &x));
  const auto hits_before = ga::stats().stack_cache_hits;
  ga::join(ga::ult_create(bump, &x));
  EXPECT_GE(ga::stats().stack_cache_hits, hits_before + 1)
      << "recycled ULT stack must be served from the thread's stack slot";
  EXPECT_EQ(x.load(), 2);
}

TEST(AbtRecycle, WorkUnitRecordsAreReused) {
  AbtScope s(1);
  // Sequential create/join on one xstream must hit the per-worker free
  // list: the second create returns the recycled record, not a fresh
  // allocation.
  std::atomic<int> x{0};
  auto* a = ga::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  ga::join(a);
  auto* b = ga::ult_create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); }, &x);
  EXPECT_EQ(a, b) << "joined record should be recycled by the next create";
  ga::join(b);
  EXPECT_EQ(x.load(), 2);
}

TEST(AbtRecycle, RecycledUnitsStartClean) {
  AbtScope s(2);
  // A recycled record must not leak joiner/self_local state from its
  // previous life (stale joiners would wake the wrong ULT), nor a stack:
  // a record starts unbound and takes a stack only when it first runs.
  const auto& pool = glto::fctx::StackPool::global();
  auto body = [](void* p) {
    ga::set_self_local(p);  // dirty the slot on purpose
    static_cast<std::atomic<int>*>(p)->fetch_add(1);
  };
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> x{0};
    const bool pinned = round % 2 != 0;
    const auto hits = pool.cache_hits();
    const auto mapped = pool.total_mapped();
    auto* u = pinned ? ga::ult_create_on(0, body, &x) : ga::ult_create(body, &x);
    if (pinned) {
      // Pinned to this primary ULT's own xstream, which has not yielded:
      // the unit cannot have run yet, so any stack acquire here (a hit on
      // the stack the previous pinned round released into this cache, or
      // a fresh mapping) would be a stack bound before first dispatch.
      EXPECT_EQ(pool.cache_hits(), hits) << "round " << round;
      EXPECT_EQ(pool.total_mapped(), mapped) << "round " << round;
    }
    ga::join(u);
    ASSERT_EQ(x.load(), 1) << "round " << round;
  }
}

TEST(AbtTasklet, YieldingTaskletsAreSafeOnPrimary) {
  // Regression: a tasklet runs on the scheduler's stack; on the primary
  // xstream tls' "current unit" used to still point at the suspended main
  // ULT, so yield() inside a tasklet suspended *main* from the scheduler
  // context and jumped through a dead fcontext (crash first exposed by
  // examples/glt_hello). Tasklet yield must be a no-op; the mixed
  // yielding-ULT + yielding-tasklet workload below is glt_hello's shape.
  AbtScope s(1);
  std::atomic<long long> sum{0};
  auto body = [](void* p) {
    static_cast<std::atomic<long long>*>(p)->fetch_add(1);
    ga::yield();  // ULT: fairness point; tasklet: must be a no-op
    static_cast<std::atomic<long long>*>(p)->fetch_add(1);
  };
  std::vector<ga::WorkUnit*> us;
  for (int i = 0; i < 100; ++i) us.push_back(ga::ult_create(body, &sum));
  for (int i = 0; i < 100; ++i) us.push_back(ga::tasklet_create(body, &sum));
  for (auto* u : us) ga::join(u);
  EXPECT_EQ(sum.load(), 400);
}

TEST(AbtTasklet, SelfLocalIsPerTasklet) {
  AbtScope s(1);
  // self_local inside a tasklet must bind to the tasklet itself, not to
  // the xstream's foreign-thread slot (or, worse, the suspended main).
  std::atomic<int> bad{0};
  auto body = [](void* p) {
    int token = 0;
    ga::set_self_local(&token);
    if (ga::self_local() != &token) {
      static_cast<std::atomic<int>*>(p)->fetch_add(1);
    }
  };
  auto* t0 = ga::tasklet_create(body, &bad);
  auto* t1 = ga::tasklet_create(body, &bad);
  ga::join(t0);
  ga::join(t1);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ga::self_local(), nullptr)
      << "tasklet-local writes must not leak into the foreign slot";
}
