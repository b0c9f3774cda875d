// Unit + stress tests for the shared work-stealing scheduler core
// (sched::WsCore) that all three LWT backends dispatch through, and for the
// object pool (sched::Pool) their records recycle through.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sched/chaos.hpp"
#include "sched/pool.hpp"
#include "sched/ws_core.hpp"

namespace gs = glto::sched;

namespace {

gs::WsCoreConfig cfg(int n, bool shared = false) {
  gs::WsCoreConfig c;
  c.num_workers = n;
  c.shared_pool = shared;
  return c;
}

}  // namespace

// ----------------------------------------------------------------- routing

TEST(WsCore, OwnerSpawnIsLifoForOwnerAndStealableFifo) {
  gs::WsCore<int*> core(cfg(2));
  int items[3] = {0, 1, 2};
  for (int& i : items) core.submit(0, 0, /*pinned=*/false, &i);
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), &items[2]) << "owner pops newest";
  glto::common::FastRng rng(7);
  EXPECT_EQ(core.try_steal(1, rng), &items[0]) << "thief steals oldest";
  EXPECT_EQ(core.pop_local(0, &tick), &items[1]);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
}

TEST(WsCore, PinnedSubmissionsAreNeverStolen) {
  gs::WsCore<int*> core(cfg(2));
  int x = 0;
  core.submit(0, 1, /*pinned=*/true, &x);
  glto::common::FastRng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(core.try_steal(0, rng), nullptr)
        << "pinned unit sits in the target's owner-only fair queue";
  }
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), nullptr) << "wrong owner cannot pop it";
  EXPECT_EQ(core.pop_local(1, &tick), &x) << "target owner drains it";
}

TEST(WsCore, RemoteSubmissionLandsOnTargetNotCaller) {
  gs::WsCore<int*> core(cfg(3));
  int x = 0;
  core.submit(/*caller=*/0, /*target=*/2, /*pinned=*/false, &x);
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
  EXPECT_EQ(core.pop_local(2, &tick), &x);
  int y = 0;
  core.submit(/*caller=*/-1, /*target=*/1, /*pinned=*/false, &y);
  EXPECT_EQ(core.pop_local(1, &tick), &y) << "foreign-thread submit";
}

TEST(WsCore, FairQueueCannotStarveBehindSpawnStorm) {
  gs::WsCore<int*> core(cfg(1));
  int pinned_item = 0;
  core.submit(0, 0, /*pinned=*/true, &pinned_item);
  std::vector<int> storm(200, 0);
  unsigned tick = 0;
  bool fair_served = false;
  // Keep the deque non-empty while popping: the every-64th-tick fair-first
  // check must still serve the pinned unit.
  for (int round = 0; round < 128 && !fair_served; ++round) {
    for (int& s : storm) core.submit(0, 0, false, &s);
    for (std::size_t i = 0; i < storm.size() / 2; ++i) {
      if (core.pop_local(0, &tick) == &pinned_item) {
        fair_served = true;
        break;
      }
    }
  }
  EXPECT_TRUE(fair_served);
}

TEST(WsCore, SharedPoolServesEveryWorker) {
  gs::WsCore<int*> core(cfg(4, /*shared=*/true));
  EXPECT_FALSE(core.stealing_active()) << "one pool: nothing to steal from";
  std::vector<int> items(64, 0);
  for (int& i : items) core.submit(0, 0, false, &i);
  unsigned tick = 0;
  int got = 0;
  for (int rank = 0; rank < 4; ++rank) {
    for (int k = 0; k < 16; ++k) {
      EXPECT_NE(core.pop_local(rank, &tick), nullptr);
      ++got;
    }
  }
  EXPECT_EQ(got, 64);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
}

TEST(WsCore, MainSlotIsInvisibleToWorkersAndThieves) {
  gs::WsCore<int*> core(cfg(2));
  int main_item = 0;
  core.push_main(&main_item);
  unsigned tick = 0;
  glto::common::FastRng rng(5);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
  EXPECT_EQ(core.pop_local(1, &tick), nullptr);
  EXPECT_EQ(core.try_steal(1, rng), nullptr);
  EXPECT_EQ(core.pop_main(), &main_item) << "only the worker-0 loop pops it";
  EXPECT_EQ(core.pop_main(), nullptr);
}

TEST(WsCore, AcquireReturnsNullOnShutdownWhenDrained) {
  gs::WsCore<int*> core(cfg(1));
  int x = 0;
  core.submit(0, 0, false, &x);
  core.request_shutdown();
  gs::AcquireState st(42);
  EXPECT_EQ(core.acquire(0, st, /*with_main=*/true), &x)
      << "shutdown drains remaining work first";
  EXPECT_EQ(core.acquire(0, st, /*with_main=*/true), nullptr);
}

TEST(WsCore, MaybeWorkProbes) {
  gs::WsCore<int*> core(cfg(2));
  EXPECT_FALSE(core.maybe_work(0, true));
  int x = 0;
  core.submit(1, 1, false, &x);  // victim deque
  EXPECT_TRUE(core.maybe_work(0, false)) << "stealable work elsewhere";
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(1, &tick), &x);
  EXPECT_FALSE(core.maybe_work(0, false));
  int m = 0;
  core.push_main(&m);
  EXPECT_TRUE(core.maybe_work(0, true));
  EXPECT_FALSE(core.maybe_work(1, false)) << "main slot is worker-0-only";
  EXPECT_EQ(core.pop_main(), &m);
}

// ------------------------------------------------------------ steal stress

TEST(WsCore, StealUnderContentionConservesEveryItem) {
  // One owner spawns and pops on rank 0 while three thieves hammer
  // try_steal — the backends' exact hot-path shape. Every pushed item must
  // be consumed exactly once (lost CAS races must not lose or duplicate).
  gs::WsCore<std::intptr_t*> core(cfg(4));
  constexpr std::intptr_t kItems = 60000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::atomic<std::intptr_t> sum{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int r = 1; r < 4; ++r) {
    thieves.emplace_back([&, r] {
      glto::common::FastRng rng(static_cast<std::uint64_t>(r) * 77);
      while (!done.load(std::memory_order_acquire)) {
        if (auto* v = core.try_steal(r, rng)) {
          sum.fetch_add(*v, std::memory_order_relaxed);
        }
      }
      while (auto* v = core.try_steal(r, rng)) {
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }
  unsigned tick = 0;
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    core.submit(0, 0, false, &backing[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) {
      if (auto* v = core.pop_local(0, &tick)) {
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    }
  }
  while (auto* v = core.pop_local(0, &tick)) {
    sum.fetch_add(*v, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  // Thieves may have raced the owner for the last items; drain stragglers.
  glto::common::FastRng rng(1);
  while (auto* v = core.try_steal(1, rng)) {
    sum.fetch_add(*v, std::memory_order_relaxed);
  }
  while (auto* v = core.pop_local(0, &tick)) {
    sum.fetch_add(*v, std::memory_order_relaxed);
  }
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2);
}

TEST(WsCore, ThievesDrainEverythingWhenOwnerStops) {
  // Deterministic steal accounting: the owner only pushes, so every item
  // must leave through a steal — steals ends up exactly kItems and the
  // per-worker counters aggregate across thieves.
  gs::WsCore<std::intptr_t*> core(cfg(3));
  constexpr std::intptr_t kItems = 5000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    core.submit(0, 0, false, &backing[static_cast<std::size_t>(i)]);
  }
  std::atomic<std::intptr_t> sum{0};
  std::atomic<int> remaining{static_cast<int>(kItems)};
  std::vector<std::thread> thieves;
  for (int r = 1; r < 3; ++r) {
    thieves.emplace_back([&, r] {
      glto::common::FastRng rng(static_cast<std::uint64_t>(r) * 13 + 1);
      while (remaining.load(std::memory_order_acquire) > 0) {
        if (auto* v = core.try_steal(r, rng)) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          remaining.fetch_sub(1, std::memory_order_release);
        }
      }
    });
  }
  for (auto& t : thieves) t.join();
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2);
  const auto st = core.stats();
  EXPECT_EQ(st.steals, static_cast<std::uint64_t>(kItems))
      << "owner never popped: every item must have left through a steal";
}

TEST(WsCore, StolenPayloadPlainFieldsArePublished) {
  // Regression for the Chase–Lev publication protocol: push()/push_n()
  // must publish the pushed unit's *plain* (non-atomic) fields to thieves
  // via a release STORE on bottom_, not the Lê et al. release fence +
  // relaxed store. The fence form is equally correct C++ but invisible to
  // TSan (gcc's TSan does not model atomic_thread_fence), so every stolen
  // payload read below would report as a race — the TSan CI leg arms this
  // test against regressing to the fence form, and the value checks catch
  // genuine publication bugs on weakly-ordered targets.
  struct Unit {
    std::intptr_t a = 0;
    std::intptr_t b = 0;  // plain fields: only the deque orders them
  };
  gs::WsCore<Unit*> core(cfg(2));
  constexpr std::intptr_t kRounds = 20000;
  std::vector<Unit> backing(static_cast<std::size_t>(kRounds));
  std::atomic<bool> done{false};
  std::atomic<std::intptr_t> stolen_sum{0};
  std::atomic<std::intptr_t> stolen_count{0};
  std::thread thief([&] {
    glto::common::FastRng rng(7);
    for (;;) {
      if (Unit* u = core.try_steal(1, rng)) {
        // Ordered after the owner's plain writes solely by the steal's
        // acquire loads on the deque indices.
        EXPECT_EQ(u->b, u->a + 1);
        stolen_sum.fetch_add(u->a, std::memory_order_relaxed);
        stolen_count.fetch_add(1, std::memory_order_relaxed);
      } else if (done.load(std::memory_order_acquire)) {
        break;
      }
    }
  });
  unsigned tick = 0;
  std::intptr_t local_sum = 0;
  std::intptr_t local_count = 0;
  auto drain_local = [&](Unit* u) {
    EXPECT_EQ(u->b, u->a + 1);
    local_sum += u->a;
    ++local_count;
  };
  for (std::intptr_t i = 0; i < kRounds; ++i) {
    auto& u = backing[static_cast<std::size_t>(i)];
    u.a = i + 1;
    u.b = i + 2;
    if (i % 3 == 0) {
      Unit* ptr = &u;
      // Exercise the batch publication (push_n) alongside single pushes.
      core.submit_bulk(0, &ptr, 1, gs::BulkHint::local);
    } else {
      core.submit(0, 0, false, &u);
    }
    if (i % 5 == 0) {
      if (Unit* popped = core.pop_local(0, &tick)) drain_local(popped);
    }
  }
  while (Unit* popped = core.pop_local(0, &tick)) drain_local(popped);
  done.store(true, std::memory_order_release);
  thief.join();
  EXPECT_EQ(local_count + stolen_count.load(), kRounds);
  EXPECT_EQ(local_sum + stolen_sum.load(), kRounds * (kRounds + 1) / 2);
}

// ------------------------------------------------------------ wake protocol

TEST(WsCore, WakeOneTargetedWakeReachesParkedOwner) {
  // A consumer parks on its own parker; a pinned submit targeted at it
  // must claim its idle bit and unpark it — repeatedly, across many
  // park/push races. A lost wakeup would cost a full park timeout per
  // item; the bound below (well under kItems * kParkMaxUs) fails loudly
  // if wakes stop landing.
  gs::WsCore<std::intptr_t*> core(cfg(2));
  constexpr int kItems = 400;
  std::atomic<std::intptr_t> sum{0};
  std::thread consumer([&] {
    gs::AcquireState st(7);
    for (;;) {
      auto* v = core.acquire(1, st, /*with_main=*/false);
      if (v == nullptr) break;  // shutdown + drained
      // release: the producer's acquire load of `sum` must order this
      // read of *v before its backing.push_back() reallocation below.
      sum.fetch_add(*v, std::memory_order_release);
    }
  });
  std::vector<std::intptr_t> backing(kItems);
  std::intptr_t pushed_sum = 0;
  for (int i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    pushed_sum += i + 1;
    core.submit(/*caller=*/0, /*target=*/1, /*pinned=*/true,
                &backing[static_cast<std::size_t>(i)]);
    if (i % 16 == 0) {
      // Give the consumer time to drain and park again, exercising the
      // advertise → probe → park → claim → unpark cycle.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sum.load(std::memory_order_acquire) != pushed_sum) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "consumer stalled: lost wakeup or broken idle-mask protocol";
    std::this_thread::yield();
  }
  // Second phase: poke single items until a targeted unpark is observed.
  // Each poke waits for the consumer to *advertise* idleness first — on a
  // loaded host a blind fixed cadence can miss the park window every
  // time (the consumer gets descheduled pre-park and drains the item
  // without ever parking), so only a deposit landing on an advertised-
  // idle worker proves the claim/unpark path. The deadline trips only
  // when wakes can no longer land at all.
  std::intptr_t extra = 1000;
  backing.push_back(0);
  while (core.stats().wakes_issued == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    while (!core.idle_advertised(1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    backing.back() = ++extra;
    pushed_sum += extra;
    core.submit(0, 1, /*pinned=*/true, &backing.back());
    while (sum.load(std::memory_order_acquire) != pushed_sum &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  EXPECT_GT(core.stats().wakes_issued, 0u)
      << "parked consumer was never unparked";
  core.request_shutdown();
  consumer.join();
}

TEST(WsCore, WakeStatsStayConsistentUnderConcurrentPushParkRaces) {
  // Two consumers race a producer that alternates stealable and targeted
  // deposits. Conservation must hold and every counter must stay sane —
  // in particular spurious wakes (woken, probed, found nothing because
  // the sibling won the race) must be counted, never hang the loop.
  gs::WsCore<std::intptr_t*> core(cfg(3));
  constexpr std::intptr_t kItems = 20000;
  std::atomic<std::intptr_t> sum{0};
  std::vector<std::thread> consumers;
  for (int r = 1; r < 3; ++r) {
    consumers.emplace_back([&, r] {
      gs::AcquireState st(static_cast<std::uint64_t>(r) * 31);
      for (;;) {
        auto* v = core.acquire(r, st, /*with_main=*/false);
        if (v == nullptr) break;
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    if (i % 3 == 0) {
      core.submit(0, 1 + static_cast<int>(i % 2), /*pinned=*/true,
                  &backing[static_cast<std::size_t>(i)]);
    } else {
      core.submit(0, 0, /*pinned=*/false,
                  &backing[static_cast<std::size_t>(i)]);
    }
    if (i % 512 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // Unstolen items may still sit on rank 0's deque: drain them here.
  unsigned tick = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const std::intptr_t want = kItems * (kItems + 1) / 2;
  while (sum.load(std::memory_order_acquire) != want) {
    while (auto* v = core.pop_local(0, &tick)) {
      sum.fetch_add(*v, std::memory_order_relaxed);
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  core.request_shutdown();
  for (auto& t : consumers) t.join();
  const auto st = core.stats();
  EXPECT_LE(st.wakes_spurious, st.parks)
      << "a spurious wake is counted at most once per park";
}

TEST(WsCore, ParkedTimeNeverExceedsWallTime) {
  // parked_us must be time actually parked. One worker idles long enough
  // to grow its park timeout, then sparse deposits land mid-park, cutting
  // parks short: each deposit waits until the worker has started parking
  // again, then 700 µs, by which time its 200 and 400 µs parks have run
  // out and an 800 µs one is in progress. Counting the requested timeout
  // instead would credit that cut-short park in full and overshoot wall
  // time ~2×.
  gs::WsCore<std::intptr_t*> core(cfg(1));
  constexpr int kItems = 40;
  std::vector<std::intptr_t> backing(kItems, 1);
  std::atomic<int> taken{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(30);
  std::thread worker([&] {
    gs::AcquireState st(11);
    while (core.acquire(0, st, /*with_main=*/false) != nullptr) {
      taken.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (int i = 0; i < kItems; ++i) {
    // On a loaded host the worker may need several scheduler quanta to
    // get from its last item back to a park; wait for it.
    const std::uint64_t parks = core.stats().parks;
    while (i > 0 && core.stats().parks == parks) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::yield();
    }
    if (i > 0) std::this_thread::sleep_for(std::chrono::microseconds(700));
    core.submit(/*caller=*/-1, /*target=*/0, /*pinned=*/true,
                &backing[static_cast<std::size_t>(i)]);
  }
  while (taken.load(std::memory_order_relaxed) != kItems) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  core.request_shutdown();
  worker.join();
  const auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  const auto st = core.stats();
  EXPECT_GT(st.parks, 0u);
  EXPECT_LE(st.parked_us, static_cast<std::uint64_t>(elapsed_us))
      << st.parks << " parks over " << elapsed_us << " µs of wall time";
}

// ------------------------------------------------------------- bulk deposit

TEST(WsCore, SubmitBulkSpreadReachesEveryVictimOnce) {
  gs::WsCore<std::intptr_t*> core(cfg(4));
  constexpr std::intptr_t kItems = 64;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::vector<std::intptr_t*> items(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  core.submit_bulk(0, items.data(), items.size(), gs::BulkHint::spread);
  EXPECT_EQ(core.stats().bulk_deposits, 1u) << "one deposit for the batch";
  // Every worker owns a contiguous chunk; draining all four pools must
  // recover every item exactly once.
  std::intptr_t sum = 0;
  unsigned tick = 0;
  int victims_with_work = 0;
  for (int rank = 0; rank < 4; ++rank) {
    bool got = false;
    while (auto* v = core.pop_local(rank, &tick)) {
      sum += *v;
      got = true;
    }
    victims_with_work += got ? 1 : 0;
  }
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
  EXPECT_EQ(victims_with_work, 4)
      << "wake-one spreads a 64-unit batch across the whole team";
}

TEST(WsCore, SubmitBulkLocalIsStealableAndConserved) {
  gs::WsCore<std::intptr_t*> core(cfg(3));
  constexpr std::intptr_t kItems = 3000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::vector<std::intptr_t*> items(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  core.submit_bulk(0, items.data(), items.size(), gs::BulkHint::local);
  std::atomic<std::intptr_t> sum{0};
  std::atomic<int> remaining{static_cast<int>(kItems)};
  std::vector<std::thread> thieves;
  for (int r = 1; r < 3; ++r) {
    thieves.emplace_back([&, r] {
      glto::common::FastRng rng(static_cast<std::uint64_t>(r) * 17 + 3);
      while (remaining.load(std::memory_order_acquire) > 0) {
        if (auto* v = core.try_steal(r, rng)) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          remaining.fetch_sub(1, std::memory_order_release);
        }
      }
    });
  }
  unsigned tick = 0;
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (auto* v = core.pop_local(0, &tick)) {
      sum.fetch_add(*v, std::memory_order_relaxed);
      remaining.fetch_sub(1, std::memory_order_release);
    }
  }
  for (auto& t : thieves) t.join();
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2)
      << "a local bulk deposit must be fully visible to owner and thieves";
}

TEST(WsCore, ChaseLevPushNPublishesAcrossGrowth) {
  gs::ChaseLevDeque<std::intptr_t*> deque(8);  // forces several growths
  constexpr std::intptr_t kItems = 1000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::vector<std::intptr_t*> items(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  deque.push_n(items.data(), 100);
  // Interleave owner pops with a second batch: bottom/top bookkeeping must
  // stay coherent across the grow inside push_n.
  std::intptr_t sum = 0;
  std::intptr_t* out = nullptr;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(deque.pop(&out));
    sum += *out;
  }
  deque.push_n(items.data() + 100, static_cast<std::size_t>(kItems) - 100);
  while (deque.pop(&out)) sum += *out;
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
}

// -------------------------------------------------------------------- pool

namespace {

/// One record type per test: each Pool<T> is process-wide, so a shared
/// type would let one test's slabs feed another's counts.
template <int Tag>
struct Rec {
  std::uint64_t payload[8] = {};
};

/// Runs a test body under chaos plan @p cfg (default: off, so slab counts
/// hold under the chaos leg too), restoring the active plan afterwards.
class ChaosPlan {
 public:
  explicit ChaosPlan(const gs::ChaosConfig& cfg = {}) {
    gs::chaos_init_from_env();
    saved_ = gs::chaos_config();
    gs::chaos_set_for_testing(cfg);
  }
  ~ChaosPlan() { gs::chaos_set_for_testing(saved_); }
  ChaosPlan(const ChaosPlan&) = delete;
  ChaosPlan& operator=(const ChaosPlan&) = delete;

 private:
  gs::ChaosConfig saved_;
};

}  // namespace

TEST(Pool, RemoteFreesGoHomeSoTheProducerStopsCarving) {
  using P = gs::Pool<Rec<0>>;
  ChaosPlan off;
  constexpr int kBatch =  // more than one slab's worth
      static_cast<int>(gs::kPoolSlabBytes / sizeof(Rec<0>)) + 64;
  std::vector<Rec<0>*> batch(kBatch);
  std::atomic<int> turn{0};  // 0: producer fills, 1: consumer frees
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    P::free(P::alloc());  // the consumer holds a slot of its own
    for (;;) {
      while (turn.load(std::memory_order_acquire) != 1) {
        if (stop.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
      for (Rec<0>* r : batch) P::free(r);
      turn.store(0, std::memory_order_release);
    }
  });
  std::size_t carved_after_warmup = 0;
  for (int round = 0; round < 50; ++round) {
    if (round == 2) carved_after_warmup = P::slabs_carved();
    for (Rec<0>*& r : batch) {
      r = P::alloc();
      r->payload[0] = static_cast<std::uint64_t>(round);
    }
    turn.store(1, std::memory_order_release);
    while (turn.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_GE(carved_after_warmup, 2u);
  EXPECT_EQ(P::slabs_carved(), carved_after_warmup)
      << "blocks freed on the consumer must return to the producer";
}

TEST(Pool, FreesFromMoreThreadsThanRemoteListsAllGoHome) {
  using P = gs::Pool<Rec<4>>;
  ChaosPlan off;
  constexpr int kFreers = 6;  // more threads than a slot has remote lists
  constexpr int kBatch =
      static_cast<int>(gs::kPoolSlabBytes / sizeof(Rec<4>)) + 64;
  std::vector<Rec<4>*> batch(kBatch);
  std::size_t carved_after_warmup = 0;
  for (int round = 0; round < 5; ++round) {
    if (round == 2) carved_after_warmup = P::slabs_carved();
    for (Rec<4>*& r : batch) r = P::alloc();
    for (int t = 0; t < kFreers; ++t) {  // one at a time, never at once
      std::thread([&batch, t] {
        for (int i = t; i < kBatch; i += kFreers) P::free(batch[i]);
      }).join();
    }
  }
  EXPECT_EQ(P::slabs_carved(), carved_after_warmup)
      << "the owner must drain every remote list before it carves";
}

TEST(Pool, ThreadsStartedOneAfterAnotherReuseOneSlab) {
  using P = gs::Pool<Rec<1>>;
  ChaosPlan off;
  const std::size_t before = P::slabs_carved();
  for (int i = 0; i < 100; ++i) {  // one at a time, never at once
    std::thread([] {
      Rec<1>* a = P::alloc();
      Rec<1>* b = P::alloc();
      P::free(a);
      P::free(b);
    }).join();
  }
  EXPECT_LE(P::slabs_carved() - before, 1u)
      << "an exiting thread's slot, lists and slab go to the next thread";
}

TEST(Pool, ChaosAllocFaultCarvesAFreshBlock) {
  using P = gs::Pool<Rec<2>>;
  Rec<2>* a = nullptr;
  {
    ChaosPlan off;
    a = P::alloc();
    a->payload[0] = 7;
    P::free(a);
    EXPECT_EQ(P::alloc(), a) << "the owner reuses its freed block";
    EXPECT_EQ(a->payload[0], 0u) << "a recycled block is constructed anew";
    P::free(a);
  }
  gs::ChaosConfig always;
  always.enabled = true;
  always.alloc_p = 1.0;
  ChaosPlan faults(always);
  const std::size_t carved = P::slabs_carved();
  Rec<2>* b = P::alloc();
  EXPECT_NE(b, a) << "an alloc fault skips the recycled block";
  EXPECT_EQ(P::slabs_carved(), carved) << "carved from the current slab";
  P::free(b);
}

#if defined(GLTO_POOL_ASAN)
TEST(PoolDeathTest, WriteToFreedBlockIsReported) {
  using P = gs::Pool<Rec<3>>;
  Rec<3>* r = P::alloc();
  P::free(r);
  EXPECT_DEATH(
      { static_cast<volatile std::uint64_t*>(r->payload)[4] = 1; },
      "use-after-poison");
}
#endif
