// ULT-native synchronization conformance, parameterized over the three
// backends (abt, qth, mth — every test runs 3×).
//
// The contract under test (src/sched/sync.hpp): a waiter on any sched::
// primitive truly suspends — its continuation parks on the primitive's
// wait list and the signaller re-deposits it through the core's
// targeted-wake path — and no wakeup is ever lost regardless of how the
// set/wait (or unlock/lock, notify/wait, send/recv) race resolves. After
// glt::init the gtest main thread is the primary ULT, so waits issued from
// a test body suspend like any ULT's; the parker fallback for contexts
// that cannot suspend is driven by a plain std::thread
// (PlainOsThreadSetsWaitsAndJoins). The suite is chaos-compatible by
// design (no gated-task handshakes), so the chaos CI leg runs it under
// ambient $GLTO_CHAOS as-is.
//
// Host is often 1 core: no test asserts timing, parallel overlap, or
// steal counts — only results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "apps/qpserver.hpp"
#include "common/time.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/sync.hpp"
#include "sched/ult_engine.hpp"

namespace gg = glto::glt;
namespace o = glto::omp;
namespace s = glto::sched;

namespace {
// Work sizes referenced from captureless ULT bodies (local classes cannot
// carry static members).
constexpr int kCondItems = 400;
constexpr int kPerProducer = 150;
constexpr int kBarrierRounds = 50;
constexpr int kBarrierParties = 3;
constexpr int kTimedRaceRounds = 60;
}  // namespace

class SyncBackend : public ::testing::TestWithParam<gg::Impl> {
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

TEST_P(SyncBackend, MutexMutualExclusion) {
  // A non-atomic counter stays exact only if the lock excludes: any torn
  // increment loses updates.
  struct Ctx {
    gg::mutex m;
    long counter = 0;
  } ctx;
  constexpr int kUlts = 24;
  constexpr int kIncs = 200;
  std::vector<gg::Ult*> us;
  us.reserve(kUlts);
  for (int i = 0; i < kUlts; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          for (int k = 0; k < kIncs; ++k) {
            c->m.lock();
            ++c->counter;
            if ((k & 15) == 0) gg::yield();  // widen the critical section
            c->m.unlock();
          }
        },
        &ctx));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(ctx.counter, static_cast<long>(kUlts) * kIncs);
}

TEST_P(SyncBackend, MutexFifoHandoffNoBarging) {
  // Waiters that demonstrably parked (suspensions counter advanced) must
  // acquire in arrival order: unlock hands the lock to the head waiter
  // directly, it is never reopened for barging.
  struct Ctx {
    gg::mutex m;
    std::atomic<int> next_id{0};
    std::vector<int> order;  // guarded by m
  } ctx;
  constexpr int kWaiters = 6;
  ctx.m.lock();  // foreign main holds; all waiters must queue
  std::vector<gg::Ult*> us;
  us.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    const std::uint64_t parked_before = s::suspensions();
    us.push_back(gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          const int id = c->next_id.fetch_add(1);  // claim before blocking
          c->m.lock();
          c->order.push_back(id);
          c->m.unlock();
        },
        &ctx));
    // Drive the scheduler until this waiter has actually parked on the
    // mutex, so enqueue order is the creation order. (mth runs the child
    // work-first, so it usually parked before ult_create returned.)
    while (s::suspensions() == parked_before) gg::yield();
  }
  ctx.m.unlock();  // head waiter receives the lock; chain drains FIFO
  for (auto* u : us) gg::ult_join(u);
  ASSERT_EQ(ctx.order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) EXPECT_EQ(ctx.order[i], i) << "i=" << i;
}

TEST_P(SyncBackend, EventNoLostWakeupRounds) {
  // set() and wait() race freely round after round; whichever side wins,
  // the waiter must always come back. A lost wakeup hangs the join.
  struct Ctx {
    gg::event ev;
    std::atomic<int> done{0};
  } ctx;
  constexpr int kRounds = 100;
  for (int r = 0; r < kRounds; ++r) {
    auto* u = gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          c->ev.wait();
          c->done.fetch_add(1);
        },
        &ctx);
    if ((r & 1) != 0) gg::yield();  // alternate which side reaches the race first
    ctx.ev.set();
    gg::ult_join(u);
    EXPECT_EQ(ctx.done.load(), r + 1);
    ctx.ev.reset();
  }
}

TEST_P(SyncBackend, EventWaitFromForeignThread) {
  // After glt::init the gtest main thread is the primary ULT: wait()
  // suspends it while another ULT signals. (The parker fallback of a real
  // foreign thread is PlainOsThreadSetsWaitsAndJoins.)
  gg::event ev;
  auto* u = gg::ult_create(
      [](void* p) { static_cast<gg::event*>(p)->set(); }, &ev);
  ev.wait();
  EXPECT_TRUE(ev.is_set());
  gg::ult_join(u);
}

TEST_P(SyncBackend, PlainOsThreadSetsWaitsAndJoins) {
  // A std::thread the runtime never adopted (rank -1) against a live
  // backend. It sets an Event a ULT is parked on (the backend resumes a
  // unit from a foreign thread), waits on an Event a ULT sets (the parker
  // fallback: it cannot suspend), and joins a ULT main created (the
  // foreign join path). It creates no ULTs: mth::create needs a strand.
  // Main yields meanwhile, since a unit woken from rank -1 may be queued
  // on main's own rank. The suspension counter orders the steps, so each
  // wait really blocks before its signal is sent.
  struct Ctx {
    gg::event parked;    // a ULT waits, the foreign thread sets
    gg::event from_ult;  // the foreign thread waits, a ULT sets
    std::atomic<bool> foreign_done{false};
    int foreign_rank = 0;
  } ctx;
  const std::uint64_t s0 = s::suspensions();
  auto* waiter = gg::ult_create(
      [](void* p) { static_cast<Ctx*>(p)->parked.wait(); }, &ctx);
  while (s::suspensions() < s0 + 1) gg::yield();  // waiter parked
  std::thread foreign([&ctx, waiter] {
    ctx.foreign_rank = gg::thread_num();
    ctx.from_ult.wait();
    ctx.parked.set();
    gg::ult_join(waiter);
    ctx.foreign_done.store(true, std::memory_order_release);
  });
  while (s::suspensions() < s0 + 2) gg::yield();  // foreign thread parked
  auto* setter = gg::ult_create(
      [](void* p) { static_cast<Ctx*>(p)->from_ult.set(); }, &ctx);
  while (!ctx.foreign_done.load(std::memory_order_acquire)) gg::yield();
  foreign.join();
  gg::ult_join(setter);
  EXPECT_EQ(ctx.foreign_rank, -1);
  EXPECT_TRUE(ctx.parked.is_set());
  EXPECT_TRUE(ctx.from_ult.is_set());
}

TEST_P(SyncBackend, EventStackGateDestroyOnObserve) {
  // The ReadyGate pattern: the Event lives on the waiter's stack and dies
  // the instant the waiter observes it set. Both sanctioned observations
  // — wait() and an is_set_locked() poll — serialize past the setter's
  // last access to the Event, so the racing set() never touches a dead
  // frame (the ASan job instruments ULT stacks and trips on regression).
  struct Ctx {
    std::atomic<gg::event*> ev{nullptr};
    std::atomic<bool> use_poll{false};
  } ctx;
  constexpr int kRounds = 200;
  for (int r = 0; r < kRounds; ++r) {
    ctx.use_poll.store((r & 1) != 0);
    auto* waiter = gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          gg::event gate;  // dies with this frame
          c->ev.store(&gate, std::memory_order_release);
          if (c->use_poll.load(std::memory_order_relaxed)) {
            while (!gate.is_set_locked()) gg::yield();
          } else {
            gate.wait();
          }
        },
        &ctx);
    gg::event* gate;
    while ((gate = ctx.ev.load(std::memory_order_acquire)) == nullptr)
      gg::yield();
    gate->set();  // foreign-thread setter racing the waiter's frame death
    gg::ult_join(waiter);
    ctx.ev.store(nullptr);
  }
}

TEST_P(SyncBackend, CondvarPredicateLoops) {
  // Classic bounded-buffer handoff through mutex+condvar. Both sides use
  // spurious-safe while-predicate loops; notify_one with one producer and
  // one consumer must never deadlock.
  struct Ctx {
    gg::mutex m;
    gg::cond cv;
    int value = -1;     // -1 = empty slot
    long sum = 0;
  } ctx;
  auto* producer = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        for (int i = 0; i < kCondItems; ++i) {
          c->m.lock();
          while (c->value != -1) c->cv.wait(c->m);
          c->value = i;
          c->cv.notify_one();
          c->m.unlock();
        }
      },
      &ctx);
  auto* consumer = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        for (int i = 0; i < kCondItems; ++i) {
          c->m.lock();
          while (c->value == -1) c->cv.wait(c->m);
          c->sum += c->value;
          c->value = -1;
          c->cv.notify_one();
          c->m.unlock();
        }
      },
      &ctx);
  gg::ult_join(producer);
  gg::ult_join(consumer);
  EXPECT_EQ(ctx.sum, static_cast<long>(kCondItems) * (kCondItems - 1) / 2);
}

TEST_P(SyncBackend, CondvarNotifyAllReleasesEveryWaiter) {
  struct Ctx {
    gg::mutex m;
    gg::cond cv;
    bool open = false;
    std::atomic<int> released{0};
  } ctx;
  constexpr int kWaiters = 8;
  std::vector<gg::Ult*> us;
  us.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          c->m.lock();
          while (!c->open) c->cv.wait(c->m);
          c->m.unlock();
          c->released.fetch_add(1);
        },
        &ctx));
  }
  ctx.m.lock();
  ctx.open = true;
  ctx.cv.notify_all();
  ctx.m.unlock();
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(ctx.released.load(), kWaiters);
}

TEST_P(SyncBackend, ChannelTransfersEveryItemMpmc) {
  // 3 producers × 3 consumers over a capacity-4 channel: every item sent
  // once, received once; backpressure suspends producers at the bound.
  struct Ctx {
    gg::channel<int> ch{4};
    std::atomic<long> sum{0};
    std::atomic<int> received{0};
  } ctx;
  constexpr int kProd = 3, kCons = 3;
  std::vector<gg::Ult*> us;
  for (int p = 0; p < kProd; ++p) {
    us.push_back(gg::ult_create(
        [](void* q) {
          auto* c = static_cast<Ctx*>(q);
          for (int i = 0; i < kPerProducer; ++i)
            ASSERT_TRUE(c->ch.send(i));
        },
        &ctx));
  }
  for (int k = 0; k < kCons; ++k) {
    us.push_back(gg::ult_create(
        [](void* q) {
          auto* c = static_cast<Ctx*>(q);
          int v = 0;
          while (c->ch.recv(v)) {
            c->sum.fetch_add(v);
            c->received.fetch_add(1);
          }
        },
        &ctx));
  }
  // Close once all sends finished: producers are the first kProd handles.
  for (int p = 0; p < kProd; ++p) gg::ult_join(us[static_cast<std::size_t>(p)]);
  ctx.ch.close();
  for (std::size_t i = kProd; i < us.size(); ++i) gg::ult_join(us[i]);
  EXPECT_EQ(ctx.received.load(), kProd * kPerProducer);
  EXPECT_EQ(ctx.sum.load(),
            static_cast<long>(kProd) * kPerProducer *
                (kPerProducer - 1) / 2);
}

TEST_P(SyncBackend, ChannelCloseSemantics) {
  // After close(): send refuses, recv drains what is buffered then
  // reports closed. try_* agree.
  gg::channel<int> ch{8};
  EXPECT_TRUE(ch.send(1));
  EXPECT_TRUE(ch.send(2));
  ch.close();
  EXPECT_TRUE(ch.closed());
  EXPECT_FALSE(ch.send(3)) << "send after close must fail";
  EXPECT_FALSE(ch.try_send(3));
  int v = 0;
  EXPECT_TRUE(ch.recv(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ch.try_recv(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ch.recv(v)) << "drained + closed: recv must not block";
  EXPECT_FALSE(ch.try_recv(v));
}

TEST_P(SyncBackend, ChannelCloseWakesBlockedReceivers) {
  // Receivers blocked on an empty channel must all come back with false
  // when the producer closes without sending.
  struct Ctx {
    gg::channel<int> ch{2};
    std::atomic<int> woke_empty{0};
  } ctx;
  constexpr int kRecv = 4;
  std::vector<gg::Ult*> us;
  for (int i = 0; i < kRecv; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          int v = 0;
          if (!c->ch.recv(v)) c->woke_empty.fetch_add(1);
        },
        &ctx));
  }
  ctx.ch.close();
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(ctx.woke_empty.load(), kRecv);
}

TEST_P(SyncBackend, CompletionLatchCountsToZero) {
  struct Ctx {
    gg::latch l;
    std::atomic<int> ran{0};
  } ctx;
  constexpr int kN = 16;
  ctx.l.add(kN);
  EXPECT_FALSE(ctx.l.try_wait());
  std::vector<gg::Ult*> us;
  for (int i = 0; i < kN; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          c->ran.fetch_add(1);
          c->l.count_down();
        },
        &ctx));
  }
  ctx.l.wait();  // foreign main blocks until all counted down
  EXPECT_EQ(ctx.ran.load(), kN);
  EXPECT_TRUE(ctx.l.try_wait());
  for (auto* u : us) gg::ult_join(u);
}

TEST_P(SyncBackend, LatchOwnerFreesItRightAfterTheWait) {
  // A count_down that leaves the count above zero is one atomic RMW; the
  // one that reaches zero does so under the lock, and its unlock is its
  // last access to the latch. So the owner may free the latch the moment
  // a wait (or try_wait) sees zero, as GLTO does with the child latch in
  // a finishing task's frame. Detached units on every worker race the
  // free; ASan (scripts/san_ctest.sh asan) reports any late access.
  constexpr int kRounds = 3000;
  constexpr int kUnits = 8;
  for (int r = 0; r < kRounds; ++r) {
    auto* l = new gg::latch;
    l->add(kUnits);
    for (int i = 0; i < kUnits; ++i) {
      gg::ult_create_detached(
          i % gg::num_threads(),
          [](void* p) { static_cast<gg::latch*>(p)->count_down(); }, l);
    }
    if (r % 2 == 0) {
      l->wait();
    } else {
      while (!l->try_wait()) gg::yield();
    }
    EXPECT_EQ(l->pending(), 0);
    delete l;
  }
}

TEST_P(SyncBackend, BarrierSerialReturnOncePerRound) {
  // arrive_and_wait returns true for exactly one party per round (the
  // "serial member"), and no party can enter round r+1 before every party
  // left round r.
  struct Ctx {
    gg::barrier b;
    std::atomic<int> serial_returns{0};
    std::atomic<int> arrivals{0};
  } ctx;
  ctx.b.init(kBarrierParties);
  std::vector<gg::Ult*> us;
  for (int i = 0; i < kBarrierParties; ++i) {
    us.push_back(gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          for (int r = 0; r < kBarrierRounds; ++r) {
            c->arrivals.fetch_add(1);
            if (c->b.arrive_and_wait()) c->serial_returns.fetch_add(1);
            // Everyone from round r must have arrived by the time anyone
            // proceeds past it.
            EXPECT_GE(c->arrivals.load(), (r + 1) * kBarrierParties);
          }
        },
        &ctx));
  }
  for (auto* u : us) gg::ult_join(u);
  EXPECT_EQ(ctx.serial_returns.load(), kBarrierRounds);
}

// ---- timed primitives (PR-10 deadline layer) -----------------------------

TEST_P(SyncBackend, EventWaitUntilTimeoutNeverStrandsLaterSet) {
  // set() races a short-deadline wait_until round after round. Whichever
  // side wins, the timed-out node must be fully unlinked (a stranded node
  // would make the set() touch a dead stack frame — ASan trips), and a
  // set that lands after the timeout must still satisfy the next waiter.
  struct Ctx {
    gg::event ev;
    std::atomic<int> wakes{0};
    std::atomic<int> timeouts{0};
  } ctx;
  for (int r = 0; r < kTimedRaceRounds; ++r) {
    auto* racer = gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          if (c->ev.wait_until(glto::common::now_ns() + 20'000)) {
            c->wakes.fetch_add(1);
          } else {
            c->timeouts.fetch_add(1);
          }
        },
        &ctx);
    if ((r & 1) != 0) gg::yield();  // vary which side reaches the race first
    ctx.ev.set();
    gg::ult_join(racer);
    // The set is never stranded: an untimed waiter must pass immediately.
    auto* late = gg::ult_create(
        [](void* p) { static_cast<Ctx*>(p)->ev.wait(); }, &ctx);
    gg::ult_join(late);
    ctx.ev.reset();
  }
  EXPECT_EQ(ctx.wakes.load() + ctx.timeouts.load(), kTimedRaceRounds);
}

TEST_P(SyncBackend, MutexTryLockUntilTimeoutAndHandoffRace) {
  struct Ctx {
    gg::mutex m;
    std::atomic<int> acquired{0};
    std::atomic<int> timed_out{0};
  } ctx;
  // Uncontended: even an already-expired deadline acquires via the fast
  // path — the deadline bounds waiting, not the attempt itself.
  ASSERT_TRUE(ctx.m.try_lock_until(glto::common::now_ns()));
  ctx.m.unlock();
  for (int r = 0; r < kTimedRaceRounds; ++r) {
    ctx.m.lock();  // force the timed waiter to park
    auto* u = gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          if (c->m.try_lock_until(glto::common::now_ns() + 30'000)) {
            c->acquired.fetch_add(1);
            c->m.unlock();
          } else {
            c->timed_out.fetch_add(1);
          }
        },
        &ctx);
    if ((r & 1) != 0) gg::yield();
    ctx.m.unlock();  // may hand ownership to the waiter mid-timeout
    gg::ult_join(u);
    // Whatever the race outcome, ownership was never dropped on the
    // floor: the mutex must still cycle.
    ctx.m.lock();
    ctx.m.unlock();
  }
  EXPECT_EQ(ctx.acquired.load() + ctx.timed_out.load(), kTimedRaceRounds);
}

TEST_P(SyncBackend, CondvarWaitUntilTimesOutAndReacquiresMutex) {
  struct Ctx {
    gg::mutex m;
    gg::cond cv;
    bool ready = false;  // guarded by m
    std::atomic<bool> timed_out{false};
    std::atomic<bool> notified{false};
  } ctx;
  auto* t = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->m.lock();
        while (!c->ready) {
          if (!c->cv.wait_until(c->m, glto::common::now_ns() + 2'000'000)) {
            // Timed out with the mutex reacquired: mutating guarded state
            // here is legal, which is the whole point of the contract.
            c->timed_out.store(true);
            break;
          }
        }
        c->m.unlock();
      },
      &ctx);
  gg::ult_join(t);
  EXPECT_TRUE(ctx.timed_out.load());
  ctx.cv.notify_one();  // no waiters: harmless

  // Signaled case: long deadline, the notify lands first. Drive the
  // scheduler until the waiter has actually entered its timed park (the
  // counter advances) so the notify finds it waiting on every backend.
  const std::uint64_t parked_before = s::timed_waits();
  auto* u = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->m.lock();
        while (!c->ready) {
          if (c->cv.wait_until(c->m, glto::common::now_ns() +
                                         10'000'000'000LL)) {
            c->notified.store(true);
          }
        }
        c->m.unlock();
      },
      &ctx);
  while (s::timed_waits() == parked_before) gg::yield();
  ctx.m.lock();
  ctx.ready = true;
  ctx.cv.notify_one();
  ctx.m.unlock();
  gg::ult_join(u);
  EXPECT_TRUE(ctx.notified.load());
}

TEST_P(SyncBackend, LatchWaitUntilTimeoutThenCompletion) {
  gg::latch l;
  l.add(1);
  EXPECT_FALSE(l.wait_until(glto::common::now_ns() + 1'000'000));
  EXPECT_FALSE(l.try_wait()) << "a timeout leaves the latch untouched";
  auto* u = gg::ult_create(
      [](void* p) { static_cast<gg::latch*>(p)->count_down(); }, &l);
  EXPECT_TRUE(l.wait_until(glto::common::now_ns() + 10'000'000'000LL));
  EXPECT_TRUE(l.try_wait());
  gg::ult_join(u);
  EXPECT_TRUE(l.wait_until(glto::common::now_ns()))
      << "zero count satisfies even an expired deadline";
}

// ---- one park path: timed waits suspend through the engine ---------------

TEST_P(SyncBackend, TimedUltWaitSuspends) {
  // A timed wait on a ULT is a park with a deadline: the waiter suspends
  // once and the engine's timer resumes it — no yield-polling while the
  // deadline runs out.
  gg::event ev;
  const std::uint64_t s0 = s::suspensions();
  const std::uint64_t y0 = s::ult::counters().yields;
  const std::int64_t deadline = glto::common::now_ns() + 5'000'000;
  EXPECT_FALSE(ev.wait_until(deadline));
  EXPECT_GE(glto::common::now_ns(), deadline);
  EXPECT_EQ(s::suspensions() - s0, 1u);
  EXPECT_EQ(s::ult::counters().yields - y0, 0u);
}

TEST_P(SyncBackend, PlainOsThreadTimedWaitTimesOutOrIsSignaled) {
  // The Parker path: a thread the runtime never adopted cannot suspend,
  // so it parks its own Parker until the signal or the deadline.
  struct Ctx {
    gg::event ev;
    bool timed_out_ok = false;
    bool signaled_ok = false;
  } ctx;
  std::thread timeout([&ctx] {
    const std::int64_t deadline = glto::common::now_ns() + 2'000'000;
    ctx.timed_out_ok =
        !ctx.ev.wait_until(deadline) && glto::common::now_ns() >= deadline;
  });
  timeout.join();
  EXPECT_TRUE(ctx.timed_out_ok);
  const std::uint64_t t0 = s::timed_waits();
  std::thread signaled([&ctx] {
    ctx.signaled_ok =
        ctx.ev.wait_until(glto::common::now_ns() + 10'000'000'000LL);
  });
  while (s::timed_waits() < t0 + 1) gg::yield();  // the thread is parked
  ctx.ev.set();
  signaled.join();
  EXPECT_TRUE(ctx.signaled_ok);
}

TEST_P(SyncBackend, TimedWaitRacesSignalAcrossWorkers) {
  // The waiter's timer fires on its own worker while a signaller on
  // another worker pops the node. Either side may win, but the node is
  // never left linked (ASan/TSan trip on a stranded node), the outcome is
  // reported exactly once, and a later set is never lost. (mth has no
  // placement: there work-first and stealing decide where each runs.)
  struct Ctx {
    gg::event ev;
    std::int64_t wait_ns = 0;
    std::atomic<int> wakes{0};
    std::atomic<int> timeouts{0};
  } ctx;
  for (int r = 0; r < kTimedRaceRounds; ++r) {
    ctx.wait_ns = 5'000 + 10'000 * (r % 4);  // vary who reaches the race first
    auto* waiter = gg::ult_create_to(
        1,
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          if (c->ev.wait_until(glto::common::now_ns() + c->wait_ns)) {
            c->wakes.fetch_add(1);
          } else {
            c->timeouts.fetch_add(1);
          }
        },
        &ctx);
    auto* signaller = gg::ult_create_to(
        2, [](void* p) { static_cast<Ctx*>(p)->ev.set(); }, &ctx);
    gg::ult_join(waiter);
    gg::ult_join(signaller);
    ctx.ev.wait();  // the set is never stranded
    ctx.ev.reset();
  }
  EXPECT_EQ(ctx.wakes.load() + ctx.timeouts.load(), kTimedRaceRounds);
}

class SyncOneWorker : public ::testing::TestWithParam<gg::Impl> {
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

TEST_P(SyncOneWorker, BackoffRunsOtherUnitsUntilItsDeadline) {
  // backoff_until on a ULT suspends: its only worker runs another unit to
  // completion meanwhile, and the backoff still lasts until its deadline.
  struct Ctx {
    gg::event go;
    std::atomic<bool> ran{false};
  } ctx;
  auto* other = gg::ult_create(
      [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->go.wait();
        c->ran.store(true);
      },
      &ctx);
  ctx.go.set();  // `other` is runnable, but main holds the only worker
  EXPECT_FALSE(ctx.ran.load());
  const std::int64_t deadline = glto::common::now_ns() + 5'000'000;
  s::backoff_until(deadline);
  EXPECT_GE(glto::common::now_ns(), deadline);
  EXPECT_TRUE(ctx.ran.load());
  EXPECT_TRUE(gg::ult_is_done(other));
  gg::ult_join(other);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SyncOneWorker,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

TEST_P(SyncBackend, ChannelSendRecvUntilBasicsAndFullTimeout) {
  gg::channel<int> ch{2};
  const std::int64_t far = glto::common::now_ns() + 10'000'000'000LL;
  EXPECT_TRUE(ch.send_until(1, far));
  EXPECT_TRUE(ch.send_until(2, far));
  EXPECT_EQ(ch.size(), 2u);
  // Full: a short-deadline send gives up without disturbing the buffer.
  EXPECT_FALSE(ch.send_until(3, glto::common::now_ns() + 500'000));
  EXPECT_EQ(ch.size(), 2u);
  int v = 0;
  EXPECT_TRUE(ch.recv_until(v, far));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ch.recv_until(v, far));
  EXPECT_EQ(v, 2);
  // Empty: a short-deadline recv times out, consuming nothing.
  EXPECT_FALSE(ch.recv_until(v, glto::common::now_ns() + 500'000));
  EXPECT_EQ(ch.size(), 0u);
}

TEST_P(SyncBackend, ChannelCloseDrainsThenFailsTimed) {
  // Regression pin for the close contract: try_recv and recv_until drain
  // buffered items after close() before reporting failure, exactly like
  // the documented recv drain-then-fail behaviour.
  gg::channel<int> ch{4};
  EXPECT_TRUE(ch.send(10));
  EXPECT_TRUE(ch.send(11));
  EXPECT_TRUE(ch.send(12));
  ch.close();
  EXPECT_FALSE(ch.send_until(13, glto::common::now_ns() + 1'000'000))
      << "send after close must fail, deadline or not";
  int v = 0;
  EXPECT_TRUE(ch.try_recv(v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(ch.recv_until(v, glto::common::now_ns() + 1'000'000));
  EXPECT_EQ(v, 11);
  EXPECT_TRUE(ch.recv_until(v, glto::common::now_ns()))
      << "an expired deadline still drains buffered items";
  EXPECT_EQ(v, 12);
  EXPECT_FALSE(ch.recv_until(v, glto::common::now_ns() + 1'000'000));
  EXPECT_FALSE(ch.try_recv(v));
}

TEST_P(SyncBackend, ChannelTimedRecvNeverLosesConcurrentItem) {
  // A recv_until whose deadline races a concurrent send must resolve
  // exactly-once: either the receiver got the item, or the timeout left
  // it in the channel for the next receiver. Deadlines cycle from
  // already-expired to a few multiples of the park quantum to sweep the
  // race window.
  struct Ctx {
    gg::channel<int> ch{1};
    std::atomic<std::int64_t> deadline_ns{0};
    std::atomic<bool> got{false};
  } ctx;
  for (int r = 0; r < kTimedRaceRounds; ++r) {
    ctx.deadline_ns.store(glto::common::now_ns() + (r % 4) * 30'000);
    ctx.got.store(false);
    auto* u = gg::ult_create(
        [](void* p) {
          auto* c = static_cast<Ctx*>(p);
          int v = -1;
          if (c->ch.recv_until(v, c->deadline_ns.load())) c->got.store(true);
        },
        &ctx);
    if ((r & 1) != 0) gg::yield();
    ASSERT_TRUE(ctx.ch.send(r));  // races the receiver's timeout
    gg::ult_join(u);
    int v = -1;
    if (ctx.got.load()) {
      EXPECT_FALSE(ctx.ch.try_recv(v)) << "round " << r << ": received twice";
    } else {
      ASSERT_TRUE(ctx.ch.try_recv(v))
          << "round " << r << ": timed-out recv lost the item";
      EXPECT_EQ(v, r);
    }
  }
}

TEST_P(SyncBackend, QpServerOverloadAccountingConserves) {
  // Overload demo at 2× measured capacity with deadlines armed: every
  // offered request lands in exactly one terminal bucket, and p99 of the
  // *completed* requests stays within the deadline budget (histogram
  // percentile estimates overshoot by ≤12.5%). $GLTO_QPSERVER_SOAK=1
  // scales the run up for the CI soak leg.
  namespace qp = glto::apps::qpserver;
  const bool soak = std::getenv("GLTO_QPSERVER_SOAK") != nullptr;
  qp::Config cfg;
  cfg.requests = soak ? 300 : 120;
  cfg.concurrency = 4;
  cfg.queue_depth = 8;
  cfg.n = 16;
  cfg.tile = 8;
  cfg.rank = 2;
  cfg.max_iters = 12;
  const qp::Report base = qp::run(cfg);  // closed-loop capacity probe
  ASSERT_EQ(base.completed, static_cast<std::uint64_t>(cfg.requests));
  ASSERT_EQ(base.shed + base.deadline_missed, 0u)
      << "no deadline: nothing may shed or expire";
  const double cap_rps = base.goodput_rps > 1.0 ? base.goodput_rps : 1.0;

  qp::Config over = cfg;
  over.requests = soak ? 600 : 160;
  over.arrival_rps = 2.0 * cap_rps;
  over.deadline_ms = 50;
  over.retries = 2;
  over.backoff_us = 100;
  over.degrade = true;
  const qp::Report rep = qp::run(over);
  EXPECT_EQ(rep.offered, static_cast<std::uint64_t>(over.requests));
  EXPECT_EQ(rep.completed + rep.shed + rep.deadline_missed, rep.offered)
      << "terminal accounting must conserve: completed=" << rep.completed
      << " shed=" << rep.shed << " missed=" << rep.deadline_missed;
  if (rep.completed > 0) {
    EXPECT_LE(rep.p99_us,
              static_cast<std::uint64_t>(over.deadline_ms) * 1000 * 9 / 8 + 1)
        << "completed requests must fit the deadline budget";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SyncBackend,
                         ::testing::Values(gg::Impl::abt, gg::Impl::qth,
                                           gg::Impl::mth),
                         [](const ::testing::TestParamInfo<gg::Impl>& info) {
                           return gg::impl_name(info.param);
                         });

// ---- timed-wait regression at the omp facade -----------------------------

TEST(SyncTimed, FutureWaitForTimeoutKeepsHandleValid) {
  // The timeout contract the redesign must preserve: wait_for returning
  // timeout does NOT invalidate the handle — a later wait()/get() on the
  // same future still works once the task completes.
  o::SelectOptions opts;
  opts.num_threads = 2;
  opts.bind_threads = false;
  o::select(o::RuntimeKind::glto_abt, opts);
  {
    std::atomic<bool> release{false};
    int witnessed = 0;
    o::parallel(2, [&](int tid, int) {
      if (tid != 0) return;
      auto fut = o::task_ret([&] {
        while (!release.load(std::memory_order_acquire)) o::taskyield();
        return 41 + 1;
      });
      EXPECT_EQ(fut.wait_for(std::chrono::microseconds(500)),
                o::FutureStatus::timeout);
      release.store(true, std::memory_order_release);
      fut.wait();  // handle survived the timeout; Event path completes it
      witnessed = fut.get();
    });
    EXPECT_EQ(witnessed, 42);
  }
  o::shutdown();
}

// ---- qpserver smoke ------------------------------------------------------

TEST(QpServer, SmokeCompletesEveryRequest) {
  gg::Config gcfg;
  gcfg.impl = gg::Impl::abt;
  gcfg.num_threads = 2;
  gcfg.bind_threads = false;
  gg::init(gcfg);
  glto::apps::qpserver::Config cfg;
  cfg.requests = 64;
  cfg.concurrency = 4;
  cfg.queue_depth = 8;
  cfg.n = 16;
  cfg.tile = 8;
  cfg.rank = 2;
  auto rep = glto::apps::qpserver::run(cfg);
  EXPECT_EQ(rep.completed, 64u);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_LE(rep.p50_us, rep.max_us);
  EXPECT_LE(rep.p95_us, rep.max_us) << "percentiles are clamped to max";
  gg::finalize();
}
