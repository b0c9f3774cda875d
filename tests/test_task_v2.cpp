// Task ABI v2: omp::TaskDesc placement (inline vs spill), value-returning
// omp::future<T> (results, exceptions, wait ordering), grain-controlled
// par_for/loop, and std::function callables on the spill path — swept
// across all five runtimes (gnu/intel pthreads and glto over abt/qth/mth;
// the CI backend-parity job re-runs the glto rows under each $GLT_IMPL).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/chaos.hpp"

namespace o = glto::omp;

class TaskV2 : public ::testing::TestWithParam<o::RuntimeKind> {
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

// ---- descriptor placement ---------------------------------------------------

TEST_P(TaskV2, SmallCaptureStaysInlineZeroAllocs) {
  std::atomic<int> ran{0};
  const auto before = o::task_stats();
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 0; i < 64; ++i) {
        o::task([&ran] { ran.fetch_add(1); });  // 8-byte capture
      }
      o::taskwait();
    });
  });
  const auto after = o::task_stats();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(after.task_inline - before.task_inline, 64u);
  EXPECT_EQ(after.task_alloc - before.task_alloc, 0u)
      << "captures <= inline capacity must not allocate";
}

TEST_P(TaskV2, OversizedCaptureSpillsAndStillRuns) {
  struct Big {
    std::int64_t vals[16];  // 128 bytes: > TaskDesc::kInlineBytes
  };
  Big big{};
  for (int i = 0; i < 16; ++i) big.vals[i] = i + 1;
  std::atomic<std::int64_t> sum{0};
  const auto before = o::task_stats();
  o::parallel([&](int, int) {
    o::single([&] {
      o::task([&sum, big] {
        std::int64_t s = 0;
        for (std::int64_t v : big.vals) s += v;
        sum.fetch_add(s);
      });
      o::taskwait();
    });
  });
  const auto after = o::task_stats();
  EXPECT_EQ(sum.load(), 16 * 17 / 2);
  EXPECT_GE(after.task_alloc - before.task_alloc, 1u)
      << "a 128-byte capture must spill";
}

TEST_P(TaskV2, NonTriviallyCopyableCaptureSpillsCorrectly) {
  // A std::string capture cannot be memcpy-moved; the descriptor must
  // spill it and run its destructor exactly once.
  std::string payload(100, 'x');
  std::atomic<std::size_t> seen{0};
  o::parallel([&](int, int) {
    o::single([&] {
      o::task([&seen, payload] { seen.store(payload.size()); });
      o::taskwait();
    });
  });
  EXPECT_EQ(seen.load(), 100u);
}

TEST_P(TaskV2, FirstprivateArgsAreDecayCopied) {
  std::atomic<std::int64_t> sum{0};
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 1; i <= 8; ++i) {
        // task(f, args...): i is captured by value at creation time.
        o::task([&sum](int v, int w) { sum.fetch_add(v * w); }, i, 2);
      }
      o::taskwait();
    });
  });
  EXPECT_EQ(sum.load(), 2 * 8 * 9 / 2);
}

TEST_P(TaskV2, StdFunctionCallableSpills) {
  std::atomic<int> ran{0};
  const auto before = o::task_stats();
  o::parallel([&](int, int) {
    o::single([&] {
      std::function<void()> fn = [&ran] { ran.fetch_add(1); };
      o::task(fn);
      o::TaskFlags flags;
      o::task(fn, flags);
      o::taskwait();
    });
  });
  const auto after = o::task_stats();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_GE(after.task_alloc - before.task_alloc, 2u)
      << "a std::function is not trivially copyable, so its payload spills";
}

// ---- omp::future<T> ---------------------------------------------------------

TEST_P(TaskV2, FutureReturnsValue) {
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([] { return 6 * 7; });
      EXPECT_TRUE(f.valid());
      EXPECT_EQ(f.get(), 42);
      EXPECT_FALSE(f.valid()) << "get() consumes the handle";
    });
  });
}

TEST_P(TaskV2, FutureReturnsStringBuiltFromArgs) {
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret(
          [](const std::string& a, int n) {
            std::string out;
            for (int i = 0; i < n; ++i) out += a;
            return out;
          },
          std::string("ab"), 3);
      EXPECT_EQ(f.get(), "ababab");
    });
  });
}

TEST_P(TaskV2, FutureVoidCompletes) {
  std::atomic<int> ran{0};
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([&ran] { ran.fetch_add(1); });
      f.wait();
      EXPECT_TRUE(f.is_done());
      f.get();  // void get: rethrows or returns nothing
      EXPECT_EQ(ran.load(), 1);
    });
  });
}

TEST_P(TaskV2, FutureTransportsException) {
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([]() -> int {
        throw std::runtime_error("task failed");
      });
      EXPECT_THROW((void)f.get(), std::runtime_error);
    });
  });
}

TEST_P(TaskV2, FutureWaitAfterCompletionIsImmediate) {
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([] { return 1; });
      o::taskwait();  // task certainly finished
      EXPECT_TRUE(f.is_done());
      f.wait();  // must not deadlock / spin
      EXPECT_EQ(f.get(), 1);
    });
  });
}

TEST_P(TaskV2, FutureWaitBeforeCompletionBlocksUntilDone) {
  if (glto::sched::chaos_enabled()) {
    // An injected spawn failure would run the gated body INLINE on the
    // producer before the gate-opening task exists — a self-deadlock by
    // construction, not a runtime defect.
    GTEST_SKIP() << "gated-task handshake is incompatible with chaos "
                    "inline-spawn degradation";
  }
  std::atomic<bool> gate{false};
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([&gate] {
        while (!gate.load(std::memory_order_acquire)) {
          // Runs on another member (or interleaved by yields).
        }
        return 7;
      });
      // Open the gate from a second task so single-member teams make
      // progress through wait()'s taskyield loop.
      o::task([&gate] { gate.store(true, std::memory_order_release); });
      EXPECT_EQ(f.get(), 7);
      o::taskwait();
    });
  });
}

TEST_P(TaskV2, FutureSpilledPayloadRoundTrips) {
  struct Big {
    double d[12];  // forces the descriptor payload to spill
  };
  Big big{};
  big.d[11] = 3.5;
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([big] { return big.d[11] * 2; });
      EXPECT_DOUBLE_EQ(f.get(), 7.0);
    });
  });
}

TEST_P(TaskV2, FutureGetOnConsumedHandleThrows) {
  o::parallel([&](int, int) {
    o::single([&] {
      auto f = o::task_ret([] { return 5; });
      EXPECT_EQ(f.get(), 5);
      EXPECT_THROW((void)f.get(), std::logic_error) << "consumed handle";
      o::future<int> moved_from = o::task_ret([] { return 6; });
      o::future<int> moved_to = std::move(moved_from);
      EXPECT_THROW((void)moved_from.get(), std::logic_error);
      EXPECT_EQ(moved_to.get(), 6);
    });
  });
}

TEST_P(TaskV2, ManyFuturesComplete) {
  o::parallel([&](int, int) {
    o::single([&] {
      std::vector<o::future<int>> fs;
      fs.reserve(32);
      for (int i = 0; i < 32; ++i) {
        fs.push_back(o::task_ret([i] { return i * i; }));
      }
      for (int i = 0; i < 32; ++i) EXPECT_EQ(fs[i].get(), i * i);
    });
  });
}

// ---- grain-controlled loops -------------------------------------------------

TEST_P(TaskV2, ParForIndexBodyCoversRange) {
  constexpr std::int64_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  o::par_for(0, kN, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(TaskV2, ParForGrainBoundsChunkSize) {
  constexpr std::int64_t kN = 100;
  std::atomic<std::int64_t> covered{0};
  std::atomic<bool> ok{true};
  o::par_for(0, kN, {o::Schedule::Dynamic, 4, 0},
             [&](std::int64_t b, std::int64_t e) {
               if (e - b > 4) ok.store(false);
               covered.fetch_add(e - b);
             });
  EXPECT_TRUE(ok.load()) << "grain caps every dynamic dispatch";
  EXPECT_EQ(covered.load(), kN);
}

TEST_P(TaskV2, ParForCutoffRunsSerial) {
  constexpr std::int64_t kN = 64;
  const auto counters_before = o::runtime().counters();
  std::atomic<std::int64_t> sum{0};
  o::par_for(0, kN, {o::Schedule::Static, 0, kN},  // cutoff == trip count
             [&](std::int64_t i) { sum.fetch_add(i); });
  const auto counters_after = o::runtime().counters();
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
  // Below the cutoff no team is forked: no new ULTs (glto) and no worker
  // thread engagements (pthread runtimes).
  EXPECT_EQ(counters_after.ults_created, counters_before.ults_created);
  EXPECT_EQ(
      counters_after.os_threads_created + counters_after.os_threads_reused,
      counters_before.os_threads_created + counters_before.os_threads_reused);
}

// ---- bulk spawn (task_bulk / taskloop) --------------------------------------

TEST_P(TaskV2, TaskBulkRunsEveryDescriptorOnce) {
  constexpr int kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  o::parallel([&](int, int) {
    o::single([&] {
      std::vector<o::TaskDesc> descs;
      descs.reserve(kN);
      for (int i = 0; i < kN; ++i) {
        auto* h = &hits[static_cast<std::size_t>(i)];
        descs.push_back(o::TaskDesc::make([h] { h->fetch_add(1); }));
      }
      o::task_bulk(descs.data(), descs.size());
      o::taskwait();
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(TaskV2, TaskloopGrainSweepMatchesParFor) {
  // taskloop is the task-shaped twin of par_for's grain chunking: the
  // chunks arrive as ONE bulk spawn. Sweep grains (incl. non-dividing and
  // over-sized) and check coverage parity with the work-shared loop.
  constexpr std::int64_t kN = 200;
  for (std::int64_t grain : {std::int64_t{1}, std::int64_t{3},
                             std::int64_t{16}, std::int64_t{512}}) {
    std::vector<std::atomic<int>> tl_hits(kN);
    std::atomic<std::int64_t> max_chunk{0};
    o::parallel([&](int, int) {
      o::single([&] {
        o::taskloop(0, kN, grain, [&](std::int64_t b, std::int64_t e) {
          std::int64_t cur = max_chunk.load();
          while (e - b > cur && !max_chunk.compare_exchange_weak(cur, e - b)) {
          }
          for (std::int64_t i = b; i < e; ++i) {
            tl_hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
      });
    });
    std::vector<std::atomic<int>> pf_hits(kN);
    o::par_for(0, kN, {o::Schedule::Dynamic, grain, 0}, [&](std::int64_t i) {
      pf_hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(tl_hits[static_cast<std::size_t>(i)].load(), 1)
          << "taskloop grain=" << grain << " missed index " << i;
      EXPECT_EQ(pf_hits[static_cast<std::size_t>(i)].load(), 1);
    }
    EXPECT_LE(max_chunk.load(), std::max<std::int64_t>(grain, 1))
        << "taskloop chunks never exceed the grain";
  }
}

TEST_P(TaskV2, TaskloopFromRootContextCompletes) {
  std::atomic<std::int64_t> sum{0};
  o::taskloop(0, 64, 8, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST_P(TaskV2, LoopInsideParallelGuidedCoversRange) {
  constexpr std::int64_t kN = 150;
  std::vector<std::atomic<int>> hits(kN);
  o::parallel([&](int, int) {
    o::loop(0, kN, {o::Schedule::Guided, 2, 0},
            [&](std::int64_t b, std::int64_t e) {
              for (std::int64_t i = b; i < e; ++i) {
                hits[static_cast<std::size_t>(i)].fetch_add(1);
              }
            });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, TaskV2,
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

// ---- bulk-deposit accounting (GLTO over the shared scheduling core) ---------

class TaskBulkGlto : public ::testing::TestWithParam<o::RuntimeKind> {
 protected:
  void SetUp() override {
    if (glto::sched::chaos_enabled()) {
      // Under $GLTO_CHAOS the bulk fast path deliberately degrades to
      // per-task spawns (every unit must pass the spawn-fail hook), so
      // the one-deposit invariant these tests assert does not hold by
      // design. Completion correctness under chaos is covered elsewhere.
      GTEST_SKIP() << "bulk-deposit accounting is bypassed under chaos";
    }
    o::SelectOptions opts;
    opts.num_threads = 4;
    opts.bind_threads = false;
    o::select(GetParam(), opts);
  }
  // TearDown still runs after a SetUp skip — only shut down what exists.
  void TearDown() override {
    if (o::selected()) o::shutdown();
  }
};

TEST_P(TaskBulkGlto, TaskloopGrainChunksArriveAsOneBulkDeposit) {
  // The batch-spawn proof: a producer taskloop's grain chunks must cross
  // the scheduler as ONE submit_bulk (one queue publication per victim
  // GLT_thread + one targeted wake per victim), not as per-chunk submits.
  std::atomic<std::int64_t> sum{0};
  auto run = [&] {
    o::parallel([&](int, int) {
      o::single([&] {
        o::taskloop(0, 256, 4, [&](std::int64_t i) { sum.fetch_add(i); });
      });
    });
  };
  run();  // warm the record freelists
  sum.store(0);
  const auto before = glto::glt::stats();
  run();
  const auto after = glto::glt::stats();
  EXPECT_EQ(sum.load(), 256 * 255 / 2);
  EXPECT_EQ(after.bulk_deposits - before.bulk_deposits, 1u)
      << "64 grain chunks must cross the core as exactly one bulk deposit";
}

TEST_P(TaskBulkGlto, SectionsBlocksArriveAsOneBulkDeposit) {
  std::vector<std::atomic<int>> hits(12);
  struct Bump {
    std::atomic<int>* h;
    void operator()() const { h->fetch_add(1); }
  };
  std::vector<Bump> blocks;
  blocks.reserve(hits.size());
  for (auto& h : hits) blocks.push_back(Bump{&h});
  std::vector<o::Section> secs;
  secs.reserve(blocks.size());
  for (auto& blk : blocks) secs.push_back(o::section_of(blk));
  auto run = [&] {
    o::parallel([&](int, int) { o::sections(secs.data(), secs.size()); });
  };
  run();
  const auto before = glto::glt::stats();
  run();
  const auto after = glto::glt::stats();
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
  EXPECT_EQ(after.bulk_deposits - before.bulk_deposits, 1u)
      << "sections blocks must cross the core as one bulk deposit";
}

INSTANTIATE_TEST_SUITE_P(
    GltoRuntimes, TaskBulkGlto,
    ::testing::Values(o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                      o::RuntimeKind::glto_mth),
    [](const ::testing::TestParamInfo<o::RuntimeKind>& info) {
      std::string n = o::kind_name(info.param);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

// ---- glt::ult_is_done (the completion-order join probe) ---------------------

namespace {
std::atomic<int> g_glt_ran{0};
void bump(void*) { g_glt_ran.fetch_add(1, std::memory_order_relaxed); }
}  // namespace

TEST(GltIsDone, ProbeTurnsTrueAndJoinReclaims) {
  glto::glt::Config cfg;
  cfg.num_threads = 2;
  cfg.bind_threads = false;
  glto::glt::init(cfg);
  std::vector<glto::glt::Ult*> us;
  for (int i = 0; i < 64; ++i) {
    us.push_back(glto::glt::ult_create(bump, nullptr));
  }
  // Completion-order reclaim: poll, joining whatever finished first.
  std::size_t remaining = us.size();
  while (remaining > 0) {
    bool progressed = false;
    for (auto& u : us) {
      if (u != nullptr && glto::glt::ult_is_done(u)) {
        glto::glt::ult_join(u);
        u = nullptr;
        --remaining;
        progressed = true;
      }
    }
    if (!progressed) glto::glt::yield();
  }
  EXPECT_EQ(g_glt_ran.load(), 64);
  glto::glt::finalize();
}
