// Unit + integration tests for the MassiveThreads-like runtime:
// work-first spawn, continuation stealing, stealable/pinned main.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "mth/mth.hpp"

namespace gm = glto::mth;

namespace {

struct MthScope {
  explicit MthScope(int n, bool pin_main = false) {
    gm::Config cfg;
    cfg.num_workers = n;
    cfg.bind_threads = false;
    cfg.pin_main = pin_main;
    gm::init(cfg);
  }
  ~MthScope() { gm::finalize(); }
};

}  // namespace

TEST(Mth, InitFinalize) {
  MthScope s(2);
  EXPECT_TRUE(gm::initialized());
  EXPECT_EQ(gm::num_workers(), 2);
  EXPECT_TRUE(gm::in_strand());
}

TEST(Mth, WorkFirstRunsChildImmediately) {
  MthScope s(1);
  // With one worker, the child MUST have executed by the time create()
  // returns on the parent continuation — that is work-first semantics.
  std::atomic<int> x{0};
  auto* c = gm::create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &x);
  EXPECT_EQ(x.load(), 1) << "child runs before the parent continuation";
  gm::join(c);
}

TEST(Mth, JoinReturnsAfterChildDone) {
  MthScope s(2);
  std::atomic<int> x{0};
  auto* c = gm::create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(42); }, &x);
  gm::join(c);
  EXPECT_EQ(x.load(), 42);
}

TEST(Mth, ManyStrandsAllExecute) {
  MthScope s(4);
  constexpr int kN = 500;
  std::atomic<int> count{0};
  std::vector<gm::Strand*> ss;
  ss.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    ss.push_back(gm::create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* c : ss) gm::join(c);
  EXPECT_EQ(count.load(), kN);
}

TEST(Mth, RecursiveSpawnTree) {
  MthScope s(3);
  // Binary spawn tree of depth 8: 2^9-1 strands, heavy continuation churn.
  struct Node {
    int depth;
    std::atomic<long long>* sum;
  };
  static gm::WorkFn rec = [](void* p) {
    auto n = *static_cast<Node*>(p);
    if (n.depth > 0) {
      Node l{n.depth - 1, n.sum};
      Node r{n.depth - 1, n.sum};
      auto* a = gm::create(rec, &l);
      auto* b = gm::create(rec, &r);
      gm::join(a);
      gm::join(b);
    }
    n.sum->fetch_add(1);
  };
  std::atomic<long long> sum{0};
  Node root{8, &sum};
  auto* c = gm::create(rec, &root);
  gm::join(c);
  EXPECT_EQ(sum.load(), (1LL << 9) - 1);
}

TEST(Mth, StealsHappenWithMultipleWorkers) {
  MthScope s(2);
  // Deterministic steal: the child occupies worker 0 until the main
  // continuation has been stolen and resumed by worker 1. create() can
  // therefore only return on the parent side after a steal happened.
  static std::atomic<bool> stop;
  stop.store(false);
  auto* c = gm::create(
      [](void*) {
        while (!stop.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      },
      nullptr);
  // We are the stolen continuation.
  EXPECT_GT(gm::stats().steals, 0u)
      << "random work stealing is on by default in mth";
  stop.store(true, std::memory_order_release);
  gm::join(c);
}

TEST(Mth, MainContinuationIsStealableByDefault) {
  MthScope s(2, /*pin_main=*/false);
  // §IV-G trait: after a spawn, main's continuation may be resumed by a
  // different worker. Same forcing construction as above.
  static std::atomic<bool> stop;
  stop.store(false);
  auto* c = gm::create(
      [](void*) {
        while (!stop.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      },
      nullptr);
  EXPECT_NE(gm::worker_rank(), 0)
      << "main must have been stolen off worker 0";
  EXPECT_GT(gm::stats().main_migrations, 0u);
  stop.store(true, std::memory_order_release);
  gm::join(c);
}

TEST(Mth, PinMainKeepsMainOnWorkerZero) {
  MthScope s(4, /*pin_main=*/true);
  std::atomic<int> sink{0};
  for (int i = 0; i < 100; ++i) {
    auto* c = gm::create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &sink);
    gm::join(c);
    EXPECT_EQ(gm::worker_rank(), 0) << "pinned main must stay on worker 0";
  }
  EXPECT_EQ(sink.load(), 100);
  EXPECT_EQ(gm::stats().main_migrations, 0u);
}

TEST(Mth, StrandsObserveMigration) {
  MthScope s(4);
  // Record the workers each strand ran on; with stealing enabled at least
  // one strand should finish on a worker other than 0 (where all spawns
  // originate).
  constexpr int kN = 64;
  static std::atomic<int> ranks_seen[kN];
  for (auto& r : ranks_seen) r.store(-1);
  struct Arg {
    int idx;
  };
  static Arg args[kN];
  std::vector<gm::Strand*> ss;
  for (int i = 0; i < kN; ++i) {
    args[i].idx = i;
    ss.push_back(gm::create(
        [](void* p) {
          // Burn a little time so thieves get a chance.
          volatile int x = 0;
          for (int k = 0; k < 2000; ++k) x = x + k;
          ranks_seen[static_cast<Arg*>(p)->idx].store(gm::worker_rank());
        },
        &args[i]));
  }
  std::set<int> distinct;
  for (int i = 0; i < kN; ++i) {
    gm::join(ss[static_cast<std::size_t>(i)]);
    distinct.insert(ranks_seen[i].load());
  }
  EXPECT_GE(distinct.size(), 1u);
  for (int r : distinct) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 4);
  }
}

TEST(Mth, YieldIsSafeWhenIdle) {
  MthScope s(1);
  for (int i = 0; i < 10; ++i) gm::yield();  // nothing to run: no-op
  SUCCEED();
}

TEST(Mth, YieldInterleavesStrands) {
  MthScope s(1);
  static std::vector<int> order;
  order.clear();
  struct Arg {
    int tag;
  };
  static Arg a0{0}, a1{1};
  auto body = [](void* p) {
    for (int i = 0; i < 3; ++i) {
      order.push_back(static_cast<Arg*>(p)->tag);
      gm::yield();
    }
  };
  auto* u0 = gm::create(body, &a0);
  auto* u1 = gm::create(body, &a1);
  gm::join(u0);
  gm::join(u1);
  ASSERT_EQ(order.size(), 6u);
  long long sum = 0;
  for (int t : order) sum += t;
  EXPECT_EQ(sum, 3) << "both strands must make progress";
}

TEST(Mth, IsDoneAndExecutedOn) {
  MthScope s(2);
  std::atomic<int> x{0};
  auto* c = gm::create(
      [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &x);
  // Work-first: by the time create returns, the child may or may not have
  // finished (could have been stolen mid-flight); join settles it.
  gm::join(c);
  EXPECT_EQ(x.load(), 1);
}

TEST(Mth, DeepJoinChain) {
  MthScope s(2);
  struct Node {
    int depth;
    std::atomic<int>* sum;
  };
  static gm::WorkFn rec = [](void* p) {
    auto n = *static_cast<Node*>(p);
    if (n.depth > 0) {
      Node next{n.depth - 1, n.sum};
      auto* c = gm::create(rec, &next);
      gm::join(c);
    }
    n.sum->fetch_add(1);
  };
  std::atomic<int> sum{0};
  Node root{100, &sum};
  auto* c = gm::create(rec, &root);
  gm::join(c);
  EXPECT_EQ(sum.load(), 101);
}

TEST(Mth, SharedPoolRunsAllStrands) {
  gm::Config cfg;
  cfg.num_workers = 3;
  cfg.bind_threads = false;
  cfg.shared_pool = true;  // §IV-F: one MPMC pool for all workers
  gm::init(cfg);
  std::atomic<int> count{0};
  std::vector<gm::Strand*> ss;
  for (int i = 0; i < 200; ++i) {
    ss.push_back(gm::create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
        &count));
  }
  for (auto* c : ss) gm::join(c);
  EXPECT_EQ(count.load(), 200);
  gm::finalize();
}

TEST(Mth, StrandRecordsAreRecycled) {
  MthScope s(1);
  // After a first batch seeds the freelist, later spawns reuse records and
  // stacks — observable through per-thread stack-cache hits.
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    std::vector<gm::Strand*> ss;
    for (int i = 0; i < 64; ++i) {
      ss.push_back(gm::create(
          [](void* p) { static_cast<std::atomic<int>*>(p)->fetch_add(1); },
          &count));
    }
    for (auto* c : ss) gm::join(c);
    ASSERT_EQ(count.load(), 64);
  }
  const auto st = gm::stats();
  EXPECT_EQ(st.strands_created, 3u * 64u);
  EXPECT_GT(st.stack_cache_hits, 0u)
      << "recycled strands must reuse released stacks";
}

TEST(Mth, ReinitAfterFinalize) {
  {
    MthScope s(2);
    std::atomic<int> x{0};
    auto* c = gm::create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->store(1); }, &x);
    gm::join(c);
  }
  {
    MthScope s(3);
    EXPECT_EQ(gm::num_workers(), 3);
    std::atomic<int> x{0};
    auto* c = gm::create(
        [](void* p) { static_cast<std::atomic<int>*>(p)->store(2); }, &x);
    gm::join(c);
    EXPECT_EQ(x.load(), 2);
  }
}
