#include "qth/qth.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/debug.hpp"
#include "common/spin.hpp"
#include "sched/ult_engine.hpp"

namespace glto::qth {

namespace {

namespace ult = sched::ult;
using Record = ult::Record;

enum class FebOp : std::uint8_t { ReadFF, ReadFE, WriteEF };

/// A qthread parked on a FEB word.
struct Waiter {
  Record* th;
  FebOp op;
  aligned_t* dst;  // ReadFF / ReadFE destination
  aligned_t val;   // WriteEF value
};

/// Per-word full/empty state. A word with no table entry is *full* with no
/// waiters (Qthreads' default: all memory starts full).
struct FebEntry {
  bool full = true;
  std::deque<Waiter> waiters;
};

struct FebBucket {
  common::SpinLock lock;
  std::unordered_map<std::uintptr_t, FebEntry> words;
};

constexpr std::size_t kFebBuckets = 64;

/// The qthreads-only state on top of the engine.
struct State {
  FebBucket feb[kFebBuckets];
  std::atomic<std::uint64_t> rr_next{0};
  std::atomic<std::uint64_t> feb_ops{0};
  std::atomic<std::uint64_t> feb_blocks{0};
};

State* g_st = nullptr;

/// A qthread's function travels in the record's WorkFn slot; the cast
/// through void(*)() is the portable function-pointer round trip.
ult::WorkFn erase(QthFn fn) {
  return reinterpret_cast<ult::WorkFn>(reinterpret_cast<void (*)()>(fn));
}

/// Runs the qthread and fills its return word (the record's aux), which is
/// how a qthread's completion is joined.
void qthread_body(Record* r) {
  const auto fn = reinterpret_cast<QthFn>(reinterpret_cast<void (*)()>(r->fn));
  const aligned_t result = fn(r->arg);
  if (r->aux != nullptr) writeF(static_cast<aligned_t*>(r->aux), result);
}

/// Qthreads are auto-freed at Done: joins go through the return word.
constexpr ult::Personality kQth{"qth", qthread_body, /*auto_free=*/true,
                                /*work_first=*/false};

FebBucket& bucket_for(const aligned_t* addr) {
  const auto p = reinterpret_cast<std::uintptr_t>(addr);
  // Mix the address so neighbouring words spread across buckets.
  return g_st->feb[(p >> 3) * 0x9e3779b97f4a7c15ULL >> 58 & (kFebBuckets - 1)];
}

/// Satisfies as many waiters as the word's state allows, FIFO-fair.
/// Must be called with the bucket lock held; readied threads are collected
/// into @p wake and pushed after the lock is dropped.
void drain_waiters(FebEntry& e, aligned_t* addr, std::vector<Record*>& wake) {
  while (!e.waiters.empty()) {
    Waiter& w = e.waiters.front();
    bool satisfied = false;
    switch (w.op) {
      case FebOp::ReadFF:
        if (e.full) {
          if (w.dst != nullptr) *w.dst = *addr;
          satisfied = true;
        }
        break;
      case FebOp::ReadFE:
        if (e.full) {
          if (w.dst != nullptr) *w.dst = *addr;
          e.full = false;
          satisfied = true;
        }
        break;
      case FebOp::WriteEF:
        if (!e.full) {
          *addr = w.val;
          e.full = true;
          satisfied = true;
        }
        break;
    }
    if (!satisfied) break;  // FIFO fairness: do not overtake a blocked head
    wake.push_back(w.th);
    e.waiters.pop_front();
  }
}

/// Attempts a FEB operation immediately. Returns true when it completed;
/// false when the caller must block. Never blocks itself.
bool feb_try(FebOp op, aligned_t* addr, aligned_t* dst, aligned_t val) {
  FebBucket& b = bucket_for(addr);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Record*> wake;
  bool done = false;
  {
    common::SpinGuard g(b.lock);
    auto it = b.words.find(reinterpret_cast<std::uintptr_t>(addr));
    const bool full = it == b.words.end() ? true : it->second.full;
    switch (op) {
      case FebOp::ReadFF:
        if (full) {
          if (dst != nullptr) *dst = *addr;
          done = true;
        }
        break;
      case FebOp::ReadFE:
        if (full) {
          if (dst != nullptr) *dst = *addr;
          auto& e = it == b.words.end()
                        ? b.words[reinterpret_cast<std::uintptr_t>(addr)]
                        : it->second;
          e.full = false;
          // Emptying may unblock a pending writeEF (and transitively more).
          drain_waiters(e, addr, wake);
          done = true;
        }
        break;
      case FebOp::WriteEF:
        if (!full) {
          *addr = val;
          it->second.full = true;
          drain_waiters(it->second, addr, wake);
          done = true;
        }
        break;
    }
  }
  for (Record* th : wake) ult::resume(th);
  return done;
}

/// Registers @p th as a waiter — used by the scheduler after the thread's
/// context is fully saved. Re-checks the condition under the lock; returns
/// true if the op completed instead (thread must be re-readied).
bool feb_register_or_complete(Record* th, FebOp op, aligned_t* addr,
                              aligned_t* dst, aligned_t val) {
  FebBucket& b = bucket_for(addr);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Record*> wake;
  bool completed = false;
  {
    common::SpinGuard g(b.lock);
    auto& e = b.words[reinterpret_cast<std::uintptr_t>(addr)];
    switch (op) {
      case FebOp::ReadFF:
        if (e.full) {
          if (dst != nullptr) *dst = *addr;
          completed = true;
        }
        break;
      case FebOp::ReadFE:
        if (e.full) {
          if (dst != nullptr) *dst = *addr;
          e.full = false;
          drain_waiters(e, addr, wake);
          completed = true;
        }
        break;
      case FebOp::WriteEF:
        if (!e.full) {
          *addr = val;
          e.full = true;
          drain_waiters(e, addr, wake);
          completed = true;
        }
        break;
    }
    if (!completed) {
      e.waiters.push_back(Waiter{th, op, dst, val});
      g_st->feb_blocks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (Record* t : wake) ult::resume(t);
  return completed;
}

void set_feb_state(aligned_t* addr, bool full) {
  FebBucket& b = bucket_for(addr);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Record*> wake;
  {
    common::SpinGuard g(b.lock);
    auto& e = b.words[reinterpret_cast<std::uintptr_t>(addr)];
    e.full = full;
    drain_waiters(e, addr, wake);
    if (e.full && e.waiters.empty()) {
      // Full with nobody waiting == default state; reclaim the entry.
      b.words.erase(reinterpret_cast<std::uintptr_t>(addr));
    }
  }
  for (Record* t : wake) ult::resume(t);
}

/// A FEB op a qthread is about to park on (lives on its stack).
struct FebWait {
  FebOp op;
  aligned_t* addr;
  aligned_t* dst;
  aligned_t val;
};

/// Park callback: registers the parked qthread as a waiter, or performs
/// the op if the word changed meanwhile (then the engine re-readies it).
bool feb_park_cb(void* arg, Record* r) {
  const FebWait& w = *static_cast<const FebWait*>(arg);
  return !feb_register_or_complete(r, w.op, w.addr, w.dst, w.val);
}

}  // namespace

void init(const Config& cfg) {
  GLTO_CHECK_MSG(!initialized(), "qth::init called twice");
  g_st = new State();
  // The caller's context becomes schedulable on its first blocking op,
  // pinned to shepherd 0.
  ult::init(kQth, cfg.num_shepherds, cfg.shared_pool, cfg.bind_threads,
            /*pin_main=*/true);
}

void finalize() {
  GLTO_CHECK_MSG(initialized(), "qth::finalize without init");
  ult::finalize();
  delete g_st;
  g_st = nullptr;
}

bool initialized() { return ult::running(kQth); }

int num_shepherds() { return initialized() ? ult::num_workers() : 0; }

int shep_rank() { return ult::self_rank(); }

bool in_qthread() { return ult::in_ult(); }

bool maybe_work() { return ult::maybe_work(); }

namespace {

/// A reset, unbound record: no stack until a shepherd first runs it.
/// @p shep < 0: the caller's shepherd (shepherd 0 on a foreign thread).
Record* new_thread(int shep, bool pinned, QthFn fn, void* arg,
                   aligned_t* ret) {
  Record* th = ult::alloc(erase(fn), arg, shep, pinned);
  th->aux = ret;
  return th;
}

void fork_impl(int shep, bool pinned, QthFn fn, void* arg, aligned_t* ret) {
  GLTO_CHECK_MSG(initialized(), "qth::init has not been called");
  GLTO_CHECK(shep >= 0 && shep < ult::num_workers());
  if (ret != nullptr) feb_empty(ret);
  ult::submit(new_thread(shep, pinned, fn, arg, ret));
}

}  // namespace

void fork_to(int shep, QthFn fn, void* arg, aligned_t* ret) {
  fork_impl(shep, /*pinned=*/true, fn, arg, ret);
}

void fork_bulk(QthFn fn, void* const* args, aligned_t* const* rets, int n,
               bool spread) {
  GLTO_CHECK_MSG(initialized(), "qth::init has not been called");
  if (n <= 0) return;
  // Batch sized for the stack: deposits beyond it publish in waves, each
  // with its own per-victim wakes — still one wake per victim per wave.
  constexpr int kWave = 256;
  Record* wave[kWave];
  int done = 0;
  while (done < n) {
    const int take = std::min(kWave, n - done);
    for (int i = 0; i < take; ++i) {
      aligned_t* ret = rets != nullptr ? rets[done + i] : nullptr;
      if (ret != nullptr) feb_empty(ret);
      wave[i] = new_thread(/*shep=*/-1, /*pinned=*/false, fn, args[done + i],
                           ret);
    }
    ult::submit_bulk(wave, take,
                     spread ? sched::BulkHint::spread : sched::BulkHint::local);
    done += take;
  }
}

void fork(QthFn fn, void* arg, aligned_t* ret) {
  GLTO_CHECK_MSG(initialized(), "qth::init has not been called");
  // A fork from a shepherd is run-local — it lands on the caller's deque
  // where idle shepherds steal it. Foreign threads have no deque, so
  // their forks scatter round-robin.
  if (const int self = shep_rank(); self >= 0) {
    fork_impl(self, /*pinned=*/false, fn, arg, ret);
    return;
  }
  const auto next = g_st->rr_next.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::uint64_t>(ult::num_workers());
  fork_impl(static_cast<int>(next % n), /*pinned=*/false, fn, arg, ret);
}

void yield() { ult::yield(); }

void feb_empty(aligned_t* addr) { set_feb_state(addr, false); }

void feb_fill(aligned_t* addr) { set_feb_state(addr, true); }

bool feb_is_full(aligned_t* addr) {
  FebBucket& b = bucket_for(addr);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  common::SpinGuard g(b.lock);
  auto it = b.words.find(reinterpret_cast<std::uintptr_t>(addr));
  return it == b.words.end() ? true : it->second.full;
}

namespace {

void feb_op_blocking(FebOp op, aligned_t* addr, aligned_t* dst, aligned_t val) {
  if (feb_try(op, addr, dst, val)) return;
  if (!in_qthread()) {
    // Foreign OS thread: spin politely until the fast path succeeds.
    common::spin_until([&] { return feb_try(op, addr, dst, val); });
    return;
  }
  FebWait w{op, addr, dst, val};
  ult::park(feb_park_cb, &w);
  // feb_park_cb performed or registered the op; when we resume it has been
  // satisfied by drain_waiters — nothing left to do.
}

}  // namespace

void readFF(aligned_t* dst, aligned_t* src) {
  feb_op_blocking(FebOp::ReadFF, src, dst, 0);
}

void readFE(aligned_t* dst, aligned_t* src) {
  feb_op_blocking(FebOp::ReadFE, src, dst, 0);
}

void writeEF(aligned_t* dst, aligned_t val) {
  feb_op_blocking(FebOp::WriteEF, dst, nullptr, val);
}

void writeF(aligned_t* dst, aligned_t val) {
  FebBucket& b = bucket_for(dst);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  std::vector<Record*> wake;
  {
    common::SpinGuard g(b.lock);
    auto& e = b.words[reinterpret_cast<std::uintptr_t>(dst)];
    *dst = val;
    e.full = true;
    drain_waiters(e, dst, wake);
    if (e.waiters.empty()) {
      b.words.erase(reinterpret_cast<std::uintptr_t>(dst));
    }
  }
  for (Record* t : wake) ult::resume(t);
}

void* self_local() { return ult::self_local(); }

void set_self_local(void* p) { ult::set_self_local(p); }

Stats stats() {
  Stats s;
  if (initialized()) {
    s.threads_created = ult::counters().created;
    s.feb_ops = g_st->feb_ops.load(std::memory_order_relaxed);
    s.feb_blocks = g_st->feb_blocks.load(std::memory_order_relaxed);
    ult::fill_stats(s);
  }
  return s;
}

struct Sinc {
  std::atomic<std::uint64_t> remaining{0};
  aligned_t done_word = 0;  // FEB-empty until the last submission
};

Sinc* sinc_create(std::uint64_t expect) {
  auto* s = new Sinc();
  s->remaining.store(expect, std::memory_order_relaxed);
  if (expect > 0) {
    feb_empty(&s->done_word);
  } else {
    s->done_word = 1;  // trivially complete (word full by default)
  }
  return s;
}

void sinc_submit(Sinc* s) {
  GLTO_CHECK_MSG(s->remaining.load(std::memory_order_relaxed) > 0,
                 "sinc_submit beyond the expected count");
  if (s->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    writeF(&s->done_word, 1);  // last submitter signals through the FEB
  }
}

void sinc_wait(Sinc* s) {
  aligned_t sink = 0;
  readFF(&sink, &s->done_word);
}

void sinc_destroy(Sinc* s) { delete s; }

}  // namespace glto::qth
