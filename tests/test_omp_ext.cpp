// Extended OpenMP surface: locks, nest locks, sections, taskgroup,
// auto/runtime schedules, and the kmpc-style compiler ABI — across all
// five runtimes.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/env.hpp"
#include "omp/kmp_abi.hpp"
#include "omp/omp.hpp"

namespace o = glto::omp;

class OmpExt : public ::testing::TestWithParam<o::RuntimeKind> {
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

TEST_P(OmpExt, LockProvidesMutualExclusion) {
  o::Lock lock;
  long long counter = 0;
  o::parallel([&](int, int) {
    for (int i = 0; i < 1000; ++i) {
      lock.set();
      counter += 1;
      lock.unset();
    }
  });
  EXPECT_EQ(counter, 4000);
}

TEST_P(OmpExt, LockTestDoesNotBlock) {
  o::Lock lock;
  EXPECT_TRUE(lock.test());
  EXPECT_FALSE(lock.test()) << "already held";
  lock.unset();
  EXPECT_TRUE(lock.test());
  lock.unset();
}

TEST_P(OmpExt, NestLockReentersForOwner) {
  o::NestLock lock;
  lock.set();
  lock.set();  // same task: must not deadlock
  EXPECT_EQ(lock.depth(), 2);
  lock.unset();
  EXPECT_EQ(lock.depth(), 1);
  lock.unset();
  EXPECT_EQ(lock.depth(), 0);
}

TEST_P(OmpExt, NestLockExcludesOtherTasks) {
  o::NestLock lock;
  long long counter = 0;
  o::parallel([&](int, int) {
    for (int i = 0; i < 300; ++i) {
      lock.set();
      lock.set();  // nested acquire inside the critical section
      counter += 1;
      lock.unset();
      lock.unset();
    }
  });
  EXPECT_EQ(counter, 4 * 300);
}

TEST_P(OmpExt, NestLockTestFailsForNonOwner) {
  o::NestLock lock;
  lock.set();
  std::atomic<int> other_got_it{0};
  o::parallel(2, [&](int tid, int) {
    if (tid == 1 && lock.test()) other_got_it.fetch_add(1);
  });
  EXPECT_EQ(other_got_it.load(), 0)
      << "a different task must not test-acquire a held nest lock";
  lock.unset();
}

namespace {
/// A stable section callable for the span-style o::sections overload.
struct Bump {
  std::atomic<int>* hit = nullptr;
  void operator()() const { hit->fetch_add(1); }
};
}  // namespace

TEST_P(OmpExt, SectionsRunEachBlockOnce) {
  // Variadic form: each argument is one section block.
  std::atomic<int> a{0}, b{0}, c{0};
  o::parallel([&](int, int) {
    o::sections([&] { a.fetch_add(1); }, [&] { b.fetch_add(2); },
                [&] { c.fetch_add(3); });
  });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
  EXPECT_EQ(c.load(), 3);
}

TEST_P(OmpExt, SectionsSpanFormDistributesAcrossMembers) {
  // More sections than members, via the Section-span overload (dynamic
  // block counts); all must complete regardless of balance.
  std::vector<std::atomic<int>> hits(17);
  std::vector<Bump> blocks;
  for (auto& h : hits) blocks.push_back(Bump{&h});
  std::vector<o::Section> secs;
  for (auto& blk : blocks) secs.push_back(o::section_of(blk));
  o::parallel([&](int, int) { o::sections(secs.data(), secs.size()); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(OmpExt, TaskgroupWaitsForItsTasks) {
  std::atomic<int> done{0};
  o::parallel([&](int, int) {
    o::single([&] {
      o::taskgroup([&] {
        for (int i = 0; i < 32; ++i) o::task([&] { done.fetch_add(1); });
      });
      EXPECT_EQ(done.load(), 32) << "taskgroup end is a wait point";
    });
  });
}

TEST_P(OmpExt, AutoScheduleCoversRange) {
  constexpr std::int64_t kN = 300;
  std::vector<std::atomic<int>> hits(kN);
  o::parallel([&](int, int) {
    o::loop(0, kN, {o::Schedule::Auto, 0},
                [&](std::int64_t b, std::int64_t e) {
                  for (std::int64_t i = b; i < e; ++i) {
                    hits[static_cast<std::size_t>(i)].fetch_add(1);
                  }
                });
  });
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, OmpExt,
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

TEST(OmpSchedule, RuntimeScheduleReadsEnv) {
  glto::common::env_set("OMP_SCHEDULE", "dynamic,4");
  o::SelectOptions opts;
  opts.num_threads = 3;
  opts.bind_threads = false;
  o::select(o::RuntimeKind::glto_abt, opts);
  constexpr std::int64_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  o::parallel([&](int, int) {
    o::loop(0, kN, {o::Schedule::Runtime, 0},
                [&](std::int64_t b, std::int64_t e) {
                  EXPECT_LE(e - b, 4) << "OMP_SCHEDULE chunk respected";
                  for (std::int64_t i = b; i < e; ++i) {
                    hits[static_cast<std::size_t>(i)].fetch_add(1);
                  }
                });
  });
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  o::shutdown();
  glto::common::env_set("OMP_SCHEDULE", nullptr);
}

// ---- kmpc-style compiler ABI ------------------------------------------------

class KmpAbi : public ::testing::TestWithParam<o::RuntimeKind> {
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

namespace {

struct ForkFrame {
  std::atomic<int> members{0};
  std::atomic<long long> sum{0};
};

void microtask_count(std::int32_t gtid, std::int32_t tid, void* shared) {
  auto* f = static_cast<ForkFrame*>(shared);
  EXPECT_EQ(gtid, tid);
  EXPECT_EQ(glto_kmpc_global_thread_num(), gtid);
  f->members.fetch_add(1);
}

void microtask_static_for(std::int32_t, std::int32_t, void* shared) {
  auto* f = static_cast<ForkFrame*>(shared);
  std::int64_t lo = 0, hi = 0, stride = 0;
  // Sum 0..99 via the static-init protocol (inclusive bounds + stride).
  if (glto_kmpc_for_static_init(0, 99, 10, &lo, &hi, &stride)) {
    for (std::int64_t base = lo; base <= 99; base += stride) {
      const std::int64_t end = base + (hi - lo) <= 99 ? base + (hi - lo) : 99;
      for (std::int64_t i = base; i <= end; ++i) {
        f->sum.fetch_add(i);
      }
    }
  }
  glto_kmpc_barrier();
}

void microtask_dispatch(std::int32_t, std::int32_t, void* shared) {
  auto* f = static_cast<ForkFrame*>(shared);
  glto_kmpc_dispatch_init(0, 99, 7);
  std::int64_t lo = 0, hi = 0;
  while (glto_kmpc_dispatch_next(&lo, &hi)) {
    for (std::int64_t i = lo; i <= hi; ++i) f->sum.fetch_add(i);
  }
}

void microtask_single_task(std::int32_t, std::int32_t, void* shared) {
  auto* f = static_cast<ForkFrame*>(shared);
  if (glto_kmpc_single()) {
    for (int i = 0; i < 20; ++i) {
      glto_kmpc_omp_task(
          [](void* p) {
            static_cast<ForkFrame*>(p)->sum.fetch_add(1);
          },
          f);
    }
    glto_kmpc_omp_taskwait();
    glto_kmpc_end_single();
  }
  glto_kmpc_barrier();
}

void microtask_single_task_bulk(std::int32_t, std::int32_t, void* shared) {
  auto* f = static_cast<ForkFrame*>(shared);
  if (glto_kmpc_single()) {
    // 150 > the shim's internal wave: exercises multi-wave bulk spawn.
    void* args[150];
    for (auto& a : args) a = f;
    glto_kmpc_omp_task_bulk(
        [](void* p) { static_cast<ForkFrame*>(p)->sum.fetch_add(1); }, args,
        150);
    glto_kmpc_omp_taskwait();
    glto_kmpc_end_single();
  }
  glto_kmpc_barrier();
}

}  // namespace

TEST_P(KmpAbi, ForkCallRunsTeam) {
  ForkFrame f;
  glto_kmpc_fork_call(microtask_count, &f);
  EXPECT_EQ(f.members.load(), 4);
}

TEST_P(KmpAbi, ForkCallWithExplicitSize) {
  ForkFrame f;
  glto_kmpc_fork_call_nt(2, microtask_count, &f);
  EXPECT_EQ(f.members.load(), 2);
}

TEST_P(KmpAbi, StaticForInitCoversRange) {
  ForkFrame f;
  glto_kmpc_fork_call(microtask_static_for, &f);
  EXPECT_EQ(f.sum.load(), 99LL * 100 / 2);
}

TEST_P(KmpAbi, DynamicDispatchCoversRange) {
  ForkFrame f;
  glto_kmpc_fork_call(microtask_dispatch, &f);
  EXPECT_EQ(f.sum.load(), 99LL * 100 / 2);
}

TEST_P(KmpAbi, SingleAndTasks) {
  ForkFrame f;
  glto_kmpc_fork_call(microtask_single_task, &f);
  EXPECT_EQ(f.sum.load(), 20);
}

TEST_P(KmpAbi, BulkTaskSpawnRunsEveryTask) {
  ForkFrame f;
  glto_kmpc_fork_call(microtask_single_task_bulk, &f);
  EXPECT_EQ(f.sum.load(), 150);
}

TEST_P(KmpAbi, AtomicAdds) {
  double d = 0.0;
  std::int64_t i = 0;
  glto_kmpc_fork_call(
      [](std::int32_t, std::int32_t, void*) {}, nullptr);
  o::parallel([&](int, int) {
    for (int k = 0; k < 100; ++k) {
      glto_kmpc_atomic_add_f64(&d, 0.5);
      glto_kmpc_atomic_add_i64(&i, 2);
    }
  });
  EXPECT_DOUBLE_EQ(d, 4 * 100 * 0.5);
  EXPECT_EQ(i, 4 * 100 * 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, KmpAbi,
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
