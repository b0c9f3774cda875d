// Runtime hardening surface across all five runtimes: timed waits
// (future::wait_for, taskwait_for, taskgroup_with_deadline), taskgroup
// cancellation (facade + kmpc shim), the stall watchdog's abort path, and
// a deterministic-seed chaos soak that injects spawn/alloc/delay faults
// while asserting exact completion counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "omp/kmp_abi.hpp"
#include "omp/omp.hpp"
#include "sched/chaos.hpp"
#include "sched/sync.hpp"
#include "sched/watchdog.hpp"

namespace o = glto::omp;

namespace {

using std::chrono::milliseconds;

/// Bounded producer-side handshake: waits for @p flag WITHOUT helping run
/// tasks. The waiter here gates the very task it waits on (the task blocks
/// until the waiter releases it), so a help-first pthread runtime must not
/// pick that task up inline via taskyield — the waiter would end up
/// executing the blocked body itself and deadlock. yield_hint() makes
/// cooperative progress on every runtime (GLTO: ULT yield; pthread:
/// polite relax) without task pickup. False on timeout; never hangs.
bool await_flag(const std::atomic<bool>& flag, int ms = 10000) {
  const auto start = std::chrono::steady_clock::now();
  while (!flag.load(std::memory_order_acquire)) {
    o::runtime().yield_hint();
    if (std::chrono::steady_clock::now() - start > milliseconds(ms)) {
      return false;
    }
  }
  return true;
}

/// Runs @p body in a single/producer region (the usual task-producer
/// shape; the trailing taskwait joins any stragglers).
void producer(const std::function<void()>& body) {
  o::parallel([&](int, int) {
    o::single([&] {
      body();
      o::taskwait();
    });
  });
}

/// Turns chaos off again even when an assertion fails mid-test.
struct ChaosOffGuard {
  ~ChaosOffGuard() { glto::sched::chaos_set_for_testing({}); }
};

/// Gated-task tests cannot run under AMBIENT chaos ($GLTO_CHAOS): an
/// injected spawn failure executes the task INLINE on the spawning
/// thread (the documented degradation), so a body that blocks on a flag
/// its producer sets only later becomes a self-deadlock, and in-flight/
/// deferred distinctions the assertions rely on disappear. The chaos CI
/// leg still runs every non-gated test; the semantics these cover are
/// exercised by the non-chaos legs.
#define GLTO_SKIP_GATED_UNDER_CHAOS()                                     \
  do {                                                                    \
    if (glto::sched::chaos_enabled()) {                                   \
      GTEST_SKIP() << "gated-task handshake is incompatible with chaos "  \
                      "inline-spawn degradation";                         \
    }                                                                     \
  } while (0)

}  // namespace

class Hardening : public ::testing::TestWithParam<o::RuntimeKind> {
 protected:
  void SetUp() override {
    o::SelectOptions opts;
    opts.num_threads = 4;
    opts.bind_threads = false;
    opts.active_wait = false;
    o::select(GetParam(), opts);
  }
  void TearDown() override { o::shutdown(); }
};

// ---- timed waits ---------------------------------------------------------

TEST_P(Hardening, WaitForTimesOutOnRunningTaskThenJoins) {
  GLTO_SKIP_GATED_UNDER_CHAOS();
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  producer([&] {
    auto fut = o::task_ret([&]() -> int {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) o::taskyield();
      return 42;
    });
    // Handshake before the timed wait: once the body runs on a worker,
    // the deadline bounds pure waiting — the help-first pthread runtimes
    // cannot pick the blocked task up inline from an empty queue.
    ASSERT_TRUE(await_flag(started));
    EXPECT_EQ(fut.wait_for(milliseconds(30)), o::FutureStatus::timeout)
        << "a blocked task must surface as a timeout, not a hang";
    // The handle stays valid after a timeout; the join still works.
    release.store(true, std::memory_order_release);
    EXPECT_EQ(fut.wait_for(milliseconds(10000)), o::FutureStatus::ready);
    EXPECT_EQ(fut.get(), 42);
  });
}

TEST_P(Hardening, WaitForOnCompletedTaskIsReady) {
  producer([&] {
    auto fut = o::task_ret([] { return 7; });
    fut.wait();
    EXPECT_EQ(fut.wait_for(milliseconds(0)), o::FutureStatus::ready);
    EXPECT_EQ(fut.get(), 7);
  });
}

TEST_P(Hardening, TaskwaitForTimesOutAndLaterJoins) {
  GLTO_SKIP_GATED_UNDER_CHAOS();
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> child_done{false};
  producer([&] {
    o::task([&] {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) o::taskyield();
      child_done.store(true, std::memory_order_release);
    });
    ASSERT_TRUE(await_flag(started));
    EXPECT_FALSE(o::taskwait_for(milliseconds(30)))
        << "a blocked child must expire the deadline, not hang taskwait";
    EXPECT_FALSE(child_done.load(std::memory_order_acquire));
    release.store(true, std::memory_order_release);
    EXPECT_TRUE(o::taskwait_for(milliseconds(10000)));
    EXPECT_TRUE(child_done.load(std::memory_order_acquire));
  });
}

TEST_P(Hardening, TaskwaitForWithNoChildrenReturnsImmediately) {
  producer([&] { EXPECT_TRUE(o::taskwait_for(milliseconds(0))); });
}

// GLTO's timed taskwait is the child latch's park with a deadline: each
// call registers one timed wait, and a timeout is counted only when the
// deadline wins. (A wait that polls children and sleeps through listless
// backoff parks registers neither.)
class GltoTimedWait : public Hardening {};

TEST_P(GltoTimedWait, TimedTaskwaitParksOnce) {
  GLTO_SKIP_GATED_UNDER_CHAOS();
  namespace s = glto::sched;
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  producer([&] {
    o::task([&] {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) o::taskyield();
    });
    ASSERT_TRUE(await_flag(started));
    const std::uint64_t w0 = s::timed_waits();
    const std::uint64_t t0 = s::timed_wait_timeouts();
    EXPECT_FALSE(o::taskwait_for(milliseconds(30)));
    EXPECT_EQ(s::timed_waits() - w0, 1u);
    EXPECT_EQ(s::timed_wait_timeouts() - t0, 1u);

    // A second child releases the first once the waiter's registration
    // shows in the counter, i.e. while the waiter is parked (or after a
    // bounded wait, so a wait that never registers fails, not hangs).
    const std::uint64_t w1 = s::timed_waits();
    const std::uint64_t t1 = s::timed_wait_timeouts();
    o::task([&release, w1] {
      const auto give_up =
          std::chrono::steady_clock::now() + milliseconds(2000);
      while (s::timed_waits() == w1 &&
             std::chrono::steady_clock::now() < give_up) {
        o::taskyield();
      }
      release.store(true, std::memory_order_release);
    });
    EXPECT_TRUE(o::taskwait_for(milliseconds(10000)));
    EXPECT_EQ(s::timed_waits() - w1, 1u);
    EXPECT_EQ(s::timed_wait_timeouts() - t1, 0u);
  });
}

// ---- cancellation --------------------------------------------------------

TEST_P(Hardening, CancelSkipsUnstartedMembersButJoinsInFlight) {
  GLTO_SKIP_GATED_UNDER_CHAOS();
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> bodies_run{0};
  std::atomic<bool> in_flight_finished{false};
  producer([&] {
    o::taskgroup([&] {
      o::task([&] {
        started.store(true, std::memory_order_release);
        bodies_run.fetch_add(1);
        while (!release.load(std::memory_order_acquire)) o::taskyield();
        in_flight_finished.store(true, std::memory_order_release);
      });
      ASSERT_TRUE(await_flag(started));
      EXPECT_FALSE(o::cancellation_point());
      EXPECT_TRUE(o::cancel()) << "an enclosing taskgroup exists";
      EXPECT_TRUE(o::cancellation_point());
      // Members created after the cancellation: never started → skipped.
      for (int i = 0; i < 64; ++i) {
        o::task([&] { bodies_run.fetch_add(1); });
      }
      release.store(true, std::memory_order_release);
    });
    // taskgroup_end joined everything: the in-flight body ran to
    // completion, the post-cancel members skipped their bodies.
    EXPECT_TRUE(in_flight_finished.load(std::memory_order_acquire));
    EXPECT_EQ(bodies_run.load(), 1);
  });
}

TEST_P(Hardening, CancelWithoutTaskgroupIsRefused) {
  producer([&] {
    EXPECT_FALSE(o::cancel());
    EXPECT_FALSE(o::cancellation_point());
  });
}

TEST_P(Hardening, TaskgroupWithDeadlineExpiresCancelsAndDrains) {
  // Under chaos the member could spawn-fail and run INLINE on the
  // producer, where cancellation can never arrive (the producer only
  // cancels after the body returns) — the poll loop would never exit.
  GLTO_SKIP_GATED_UNDER_CHAOS();
  std::atomic<bool> member_unwound{false};
  producer([&] {
    const bool in_time =
        o::taskgroup_with_deadline(milliseconds(30), [&] {
          o::task([&] {
            // Long-running member polling its cancellation point — the
            // documented unwind protocol for deadline expiry.
            while (!o::cancellation_point()) o::taskyield();
            member_unwound.store(true, std::memory_order_release);
          });
        });
    EXPECT_FALSE(in_time);
    EXPECT_TRUE(member_unwound.load(std::memory_order_acquire))
        << "the expired group still drains members to completion";
  });
}

TEST_P(Hardening, TaskgroupWithDeadlineCompletesInTime) {
  std::atomic<int> ran{0};
  producer([&] {
    const bool in_time =
        o::taskgroup_with_deadline(milliseconds(10000), [&] {
          for (int i = 0; i < 16; ++i) {
            o::task([&] { ran.fetch_add(1); });
          }
        });
    EXPECT_TRUE(in_time);
    EXPECT_EQ(ran.load(), 16);
  });
}

TEST_P(Hardening, KmpcCancelTaskgroupAcrossShim) {
  std::atomic<int> bodies_run{0};
  producer([&] {
    glto_kmpc_taskgroup();
    EXPECT_EQ(glto_kmpc_cancellationpoint(4), 0);
    EXPECT_EQ(glto_kmpc_cancel(1), 0) << "parallel cancellation unsupported";
    EXPECT_NE(glto_kmpc_cancel(4), 0);
    EXPECT_NE(glto_kmpc_cancellationpoint(4), 0);
    o::task([&] { bodies_run.fetch_add(1); });
    glto_kmpc_end_taskgroup();
    EXPECT_EQ(bodies_run.load(), 0) << "post-cancel member must be skipped";
  });
}

// ---- chaos soak ----------------------------------------------------------

TEST_P(Hardening, ChaosSoakCompletesEveryTaskExactlyOnce) {
  namespace s = glto::sched;
  ChaosOffGuard off;
  s::ChaosConfig cfg;
  cfg.enabled = true;
  cfg.spawn_p = 0.05;
  cfg.alloc_p = 0.10;
  cfg.delay_p = 0.02;
  cfg.seed = 42;  // deterministic per-thread fault streams
  s::chaos_set_for_testing(cfg);
  const std::uint64_t faults_before = s::chaos_faults_injected();

  constexpr int kTasks = 512;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  producer([&] {
    for (int i = 0; i < kTasks; ++i) {
      o::task([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    }
  });
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }

  // A dependence chain under chaos: spawn-failed releases degrade to
  // inline completion on the releasing thread — order must survive.
  constexpr int kChain = 64;
  int word = 0;
  std::vector<int> order;
  order.reserve(kChain);
  producer([&] {
    for (int i = 0; i < kChain; ++i) {
      o::TaskFlags f;
      f.depend.push_back(o::dep_inout(&word));
      o::task([&order, i] { order.push_back(i); }, f);
    }
  });
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChain));
  for (int i = 0; i < kChain; ++i) EXPECT_EQ(order[i], i);

  EXPECT_GT(s::chaos_faults_injected(), faults_before)
      << "the soak must actually inject faults at these probabilities";
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, Hardening,
    ::testing::Values(o::RuntimeKind::gnu, o::RuntimeKind::intel,
                      o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                      o::RuntimeKind::glto_mth),
    [](const ::testing::TestParamInfo<o::RuntimeKind>& info) {
      std::string n = o::kind_name(info.param);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

INSTANTIATE_TEST_SUITE_P(
    GltoRuntimes, GltoTimedWait,
    ::testing::Values(o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                      o::RuntimeKind::glto_mth),
    [](const ::testing::TestParamInfo<o::RuntimeKind>& info) {
      std::string n = o::kind_name(info.param);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

// ---- watchdog ------------------------------------------------------------

// Runtime-independent: a frozen progress gauge with a live waiter must
// abort with a WATCHDOG report instead of hanging forever.
TEST(Watchdog, QuiescentButUnfinishedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        glto::sched::watchdog_set_for_testing(50);
        glto::sched::watchdog_enter_wait();
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      },
      "WATCHDOG");
}

TEST(Watchdog, ProgressSuppressesTheAbort) {
  glto::sched::watchdog_set_for_testing(100);
  glto::sched::watchdog_enter_wait();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < until) {
    glto::sched::watchdog_note_progress();  // heartbeat: never quiescent
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  glto::sched::watchdog_exit_wait();
  glto::sched::watchdog_set_for_testing(0);  // disarm for later tests
}
