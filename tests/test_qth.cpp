// Unit + integration tests for the Qthreads-like runtime and its FEB
// (full/empty bit) synchronization.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "qth/qth.hpp"

namespace gq = glto::qth;
using gq::aligned_t;

namespace {

struct QthScope {
  explicit QthScope(int n) {
    gq::Config cfg;
    cfg.num_shepherds = n;
    cfg.bind_threads = false;
    gq::init(cfg);
  }
  ~QthScope() { gq::finalize(); }
};

}  // namespace

TEST(Qth, InitFinalize) {
  QthScope s(2);
  EXPECT_TRUE(gq::initialized());
  EXPECT_EQ(gq::num_shepherds(), 2);
  EXPECT_EQ(gq::shep_rank(), 0);
  EXPECT_TRUE(gq::in_qthread());
}

TEST(Qth, ForkAndJoinViaRetFeb) {
  QthScope s(2);
  aligned_t ret = 0;
  gq::fork([](void*) -> aligned_t { return 99; }, nullptr, &ret);
  aligned_t got = 0;
  gq::readFF(&got, &ret);  // the canonical qthreads join
  EXPECT_EQ(got, 99u);
}

TEST(Qth, ForkManyAllComplete) {
  QthScope s(3);
  constexpr int kN = 400;
  std::atomic<int> count{0};
  std::vector<aligned_t> rets(kN, 0);
  for (int i = 0; i < kN; ++i) {
    gq::fork(
        [](void* p) -> aligned_t {
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
          return 1;
        },
        &count, &rets[static_cast<std::size_t>(i)]);
  }
  aligned_t sink = 0;
  for (int i = 0; i < kN; ++i) gq::readFF(&sink, &rets[static_cast<std::size_t>(i)]);
  EXPECT_EQ(count.load(), kN);
}

TEST(Qth, ForkToTargetsShepherd) {
  QthScope s(3);
  // Without stealing, a qthread forked to shepherd r must execute there.
  for (int r = 0; r < 3; ++r) {
    aligned_t ret = 0;
    gq::fork_to(
        r, [](void*) -> aligned_t { return static_cast<aligned_t>(gq::shep_rank()); },
        nullptr, &ret);
    aligned_t got = 1234;
    gq::readFF(&got, &ret);
    EXPECT_EQ(got, static_cast<aligned_t>(r));
  }
}

TEST(Qth, FebDefaultStateIsFull) {
  QthScope s(1);
  aligned_t word = 5;
  EXPECT_TRUE(gq::feb_is_full(&word));
  aligned_t out = 0;
  gq::readFF(&out, &word);  // must not block
  EXPECT_EQ(out, 5u);
}

TEST(Qth, EmptyThenFillRoundTrip) {
  QthScope s(1);
  aligned_t word = 0;
  gq::feb_empty(&word);
  EXPECT_FALSE(gq::feb_is_full(&word));
  gq::feb_fill(&word);
  EXPECT_TRUE(gq::feb_is_full(&word));
}

TEST(Qth, WriteFSetsValueAndFull) {
  QthScope s(1);
  aligned_t word = 0;
  gq::feb_empty(&word);
  gq::writeF(&word, 77);
  EXPECT_TRUE(gq::feb_is_full(&word));
  EXPECT_EQ(word, 77u);
}

TEST(Qth, ReadFEEmptiesTheWord) {
  QthScope s(1);
  aligned_t word = 13;
  aligned_t out = 0;
  gq::readFE(&out, &word);
  EXPECT_EQ(out, 13u);
  EXPECT_FALSE(gq::feb_is_full(&word));
}

TEST(Qth, WriteEFBlocksUntilEmptied) {
  QthScope s(2);
  // Producer writes into a full word: must block until consumer empties it.
  static aligned_t word;
  word = 1;  // full by default
  static std::atomic<int> stage;
  stage = 0;
  aligned_t ret = 0;
  gq::fork(
      [](void*) -> aligned_t {
        stage.store(1);
        gq::writeEF(&word, 42);  // blocks: word is full
        stage.store(2);
        return 0;
      },
      nullptr, &ret);
  // Wait until the producer is (very likely) blocked.
  while (stage.load() < 1) gq::yield();
  for (int i = 0; i < 50; ++i) gq::yield();
  EXPECT_EQ(stage.load(), 1) << "writeEF must not complete on a full word";
  aligned_t out = 0;
  gq::readFE(&out, &word);  // empties; wakes the producer
  EXPECT_EQ(out, 1u);
  aligned_t sink;
  gq::readFF(&sink, &ret);
  EXPECT_EQ(stage.load(), 2);
  EXPECT_EQ(word, 42u);
  EXPECT_TRUE(gq::feb_is_full(&word)) << "writeEF refills the word";
}

TEST(Qth, ProducerConsumerPipelineThroughFeb) {
  QthScope s(2);
  // Classic FEB pipeline: producer writeEF / consumer readFE alternate on
  // one word; FIFO fairness must make the sequence exact.
  static aligned_t slot;
  static std::atomic<long long> sum;
  slot = 0;
  sum = 0;
  gq::feb_empty(&slot);
  constexpr int kItems = 200;
  aligned_t pret = 0, cret = 0;
  gq::fork_to(
      0,
      [](void*) -> aligned_t {
        for (int i = 1; i <= kItems; ++i) gq::writeEF(&slot, static_cast<aligned_t>(i));
        return 0;
      },
      nullptr, &pret);
  gq::fork_to(
      1 % gq::num_shepherds(),
      [](void*) -> aligned_t {
        for (int i = 0; i < kItems; ++i) {
          aligned_t v = 0;
          gq::readFE(&v, &slot);
          sum.fetch_add(static_cast<long long>(v));
        }
        return 0;
      },
      nullptr, &cret);
  aligned_t sink;
  gq::readFF(&sink, &pret);
  gq::readFF(&sink, &cret);
  EXPECT_EQ(sum.load(), 1LL * kItems * (kItems + 1) / 2);
}

TEST(Qth, MultipleReadersWakeOnFill) {
  QthScope s(2);
  static aligned_t word;
  static std::atomic<int> done_readers;
  word = 0;
  done_readers = 0;
  gq::feb_empty(&word);
  constexpr int kReaders = 8;
  std::vector<aligned_t> rets(kReaders, 0);
  for (int i = 0; i < kReaders; ++i) {
    gq::fork(
        [](void*) -> aligned_t {
          aligned_t v = 0;
          gq::readFF(&v, &word);  // all block until fill
          done_readers.fetch_add(1);
          return v;
        },
        nullptr, &rets[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 50; ++i) gq::yield();
  EXPECT_EQ(done_readers.load(), 0) << "readers must block on empty word";
  gq::writeF(&word, 31);
  aligned_t sink;
  for (auto& r : rets) {
    gq::readFF(&sink, &r);
    EXPECT_EQ(sink, 31u);
  }
  EXPECT_EQ(done_readers.load(), kReaders);
}

TEST(Qth, NestedForkJoinFromQthread) {
  QthScope s(2);
  static std::atomic<int> total;
  total = 0;
  aligned_t ret = 0;
  gq::fork(
      [](void*) -> aligned_t {
        std::vector<aligned_t> rets(10, 0);
        for (int i = 0; i < 10; ++i) {
          gq::fork(
              [](void*) -> aligned_t {
                total.fetch_add(1);
                return 0;
              },
              nullptr, &rets[static_cast<std::size_t>(i)]);
        }
        aligned_t sink;
        for (auto& r : rets) gq::readFF(&sink, &r);
        return 0;
      },
      nullptr, &ret);
  aligned_t sink;
  gq::readFF(&sink, &ret);
  EXPECT_EQ(total.load(), 10);
}

TEST(Qth, YieldInterleavesOnOneShepherd) {
  QthScope s(1);
  static std::vector<int> order;
  order.clear();
  struct Arg {
    int tag;
  };
  static Arg a0{0}, a1{1};
  aligned_t r0 = 0, r1 = 0;
  auto body = [](void* p) -> aligned_t {
    for (int i = 0; i < 3; ++i) {
      order.push_back(static_cast<Arg*>(p)->tag);
      gq::yield();
    }
    return 0;
  };
  gq::fork_to(0, body, &a0, &r0);
  gq::fork_to(0, body, &a1, &r1);
  aligned_t sink;
  gq::readFF(&sink, &r0);
  gq::readFF(&sink, &r1);
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i % 2);
}

TEST(Qth, StatsCountFebTraffic) {
  QthScope s(1);
  const auto before = gq::stats();
  aligned_t ret = 0;
  gq::fork([](void*) -> aligned_t { return 0; }, nullptr, &ret);
  aligned_t sink;
  gq::readFF(&sink, &ret);
  const auto after = gq::stats();
  EXPECT_EQ(after.threads_created, before.threads_created + 1);
  EXPECT_GT(after.feb_ops, before.feb_ops)
      << "every fork/join must go through the word-lock table";
}

TEST(Qth, StealsRescueWorkFromBusyShepherd) {
  QthScope s(3);
  // Since the shared-core rebase a plain fork from a shepherd lands on the
  // caller's own deque (run-local). Main *is* shepherd 0's OS thread and
  // below it busy-waits without entering its scheduler, so the forked
  // qthread can only ever execute if an idle shepherd steals it — a
  // deterministic steal-under-contention check (the seed qth had no
  // stealing at all and this test would hang).
  static std::atomic<int> ran_on;
  ran_on.store(-1);
  aligned_t ret = 0;
  gq::fork(
      [](void*) -> aligned_t {
        ran_on.store(gq::shep_rank());
        return 0;
      },
      nullptr, &ret);
  while (ran_on.load() < 0) std::this_thread::yield();
  EXPECT_NE(ran_on.load(), 0) << "a thief shepherd must have run it";
  EXPECT_GT(gq::stats().steals, 0u);
  aligned_t sink = 0;
  gq::readFF(&sink, &ret);
}

TEST(Qth, SharedPoolRunsEverything) {
  gq::Config cfg;
  cfg.num_shepherds = 3;
  cfg.bind_threads = false;
  cfg.shared_pool = true;  // §IV-F: one MPMC pool for all shepherds
  gq::init(cfg);
  constexpr int kN = 200;
  static std::atomic<int> count;
  count = 0;
  std::vector<aligned_t> rets(kN, 0);
  for (int i = 0; i < kN; ++i) {
    gq::fork(
        [](void*) -> aligned_t {
          count.fetch_add(1);
          return 0;
        },
        nullptr, &rets[static_cast<std::size_t>(i)]);
  }
  aligned_t sink = 0;
  for (auto& r : rets) gq::readFF(&sink, &r);
  EXPECT_EQ(count.load(), kN);
  gq::finalize();
}

TEST(Qth, ThreadRecordsAreRecycled) {
  QthScope s(1);
  // Burn a first batch so the freelist has stock, then check that the
  // second batch allocates no fresh thread records (created counter grows,
  // reuse keeps the record set stable — observable via steady completion).
  constexpr int kBatch = 64;
  for (int round = 0; round < 3; ++round) {
    std::vector<aligned_t> rets(kBatch, 0);
    for (int i = 0; i < kBatch; ++i) {
      gq::fork([](void*) -> aligned_t { return 1; }, nullptr,
               &rets[static_cast<std::size_t>(i)]);
    }
    aligned_t sink = 0;
    for (auto& r : rets) gq::readFF(&sink, &r);
  }
  const auto st = gq::stats();
  EXPECT_EQ(st.threads_created, 3u * kBatch);
  EXPECT_GT(st.stack_cache_hits, 0u)
      << "recycled qthreads must reuse released stacks";
}

TEST(Qth, ReinitAfterFinalize) {
  {
    QthScope s(1);
    aligned_t ret = 0;
    gq::fork([](void*) -> aligned_t { return 1; }, nullptr, &ret);
    aligned_t sink;
    gq::readFF(&sink, &ret);
  }
  {
    QthScope s(2);
    EXPECT_EQ(gq::num_shepherds(), 2);
    aligned_t ret = 0;
    gq::fork([](void*) -> aligned_t { return 2; }, nullptr, &ret);
    aligned_t got = 0;
    gq::readFF(&got, &ret);
    EXPECT_EQ(got, 2u);
  }
}

TEST(Qth, ForkBeforeInitFailsTheInitCheck) {
  // fork() must check that the runtime exists before it touches it: a
  // fork from a foreign thread reads the round-robin cursor, so a missing
  // check turns a usage error into a segfault.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        aligned_t ret = 0;
        gq::fork([](void*) -> aligned_t { return 0; }, nullptr, &ret);
      },
      "qth::init has not been called");
}
