#include "qth/qth.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/cacheline.hpp"
#include "common/debug.hpp"
#include "common/spin.hpp"
#include "common/thread_safety.hpp"
#include "sched/ult_engine.hpp"

namespace glto::qth {

namespace {

namespace ult = sched::ult;
using Record = ult::Record;

enum class FebOp : std::uint8_t { ReadFF, ReadFE, WriteEF, WriteF, Fill, Empty };

/// One FEB op on a word. A qthread that parks on it queues this very
/// object, on its stack, as an intrusive FIFO link.
struct FebWait {
  FebOp op;
  aligned_t* addr;
  aligned_t* dst;  // ReadFF / ReadFE destination
  aligned_t val;   // WriteEF / WriteF value
  Record* th = nullptr;
  FebWait* next = nullptr;
};

/// Full/empty state of a word that is empty or has waiters. Every other
/// word has no entry and is *full* (Qthreads' default: all memory starts
/// full), so an op that leaves its word full with no waiters frees it.
struct FebEntry {
  const aligned_t* addr;
  bool full;
  FebWait* head;  // waiters, FIFO
  FebWait* tail;
  FebEntry* next;  // the bucket's live chain, or its free chain
};

struct alignas(common::kCacheLine) FebBucket {
  common::SpinLock lock;
  FebEntry* words GLTO_GUARDED_BY(lock) = nullptr;
  /// Recycled entries: no heap after warm-up.
  FebEntry* free GLTO_GUARDED_BY(lock) = nullptr;

  /// The link that holds @p addr's entry, or the chain's null tail link.
  FebEntry** find(const aligned_t* addr) GLTO_REQUIRES(lock) {
    FebEntry** at = &words;
    while (*at != nullptr && (*at)->addr != addr) at = &(*at)->next;
    return at;
  }
  ~FebBucket() {
    for (FebEntry* chain : {words, free}) {
      while (chain != nullptr) delete std::exchange(chain, chain->next);
    }
  }
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

/// Body of a native qthread: runs its QthFn and fills its return word (the
/// record's aux), which is how a native qthread's completion is joined.
void qthread_body(Record* r) {
  const auto fn = reinterpret_cast<QthFn>(reinterpret_cast<void (*)()>(r->fn));
  const aligned_t result = fn(r->arg);
  if (r->aux != nullptr) writeF(static_cast<aligned_t*>(r->aux), result);
}

constexpr ult::Personality kQth{"qth", /*work_first=*/false};

FebBucket& bucket_for(const aligned_t* addr) {
  const auto p = reinterpret_cast<std::uintptr_t>(addr);
  // Mix the address so neighbouring words spread across buckets.
  return g_st->feb[(p >> 3) * 0x9e3779b97f4a7c15ULL >> 58 & (kFebBuckets - 1)];
}

/// Applies @p w to a word whose state is @p full, if that state allows it.
bool apply(const FebWait& w, bool& full) {
  switch (w.op) {
    case FebOp::ReadFF:
    case FebOp::ReadFE:
      if (!full) return false;
      if (w.dst != nullptr) *w.dst = *w.addr;
      full = w.op == FebOp::ReadFF;
      return true;
    case FebOp::WriteEF:
      if (full) return false;
      [[fallthrough]];
    case FebOp::WriteF:
      *w.addr = w.val;
      [[fallthrough]];
    case FebOp::Fill:
      full = true;
      return true;
    case FebOp::Empty:
      full = false;
      return true;
  }
  return false;
}

/// Satisfies waiters FIFO from the head, stopping at the first that must
/// keep waiting (no overtaking), and returns the satisfied prefix as a
/// chain for the caller to resume once the bucket lock drops.
FebWait* drain(FebEntry& e) {
  FebWait* last = nullptr;
  for (FebWait* w = e.head; w != nullptr && apply(*w, e.full); w = w->next) {
    last = w;
  }
  if (last == nullptr) return nullptr;
  FebWait* ready = e.head;
  e.head = last->next;
  if (e.head == nullptr) e.tail = nullptr;
  last->next = nullptr;
  return ready;
}

/// Performs @p w on its word under the bucket lock. If the word's state
/// does not allow it, @p parker (the qthread parking on @p w, or nullptr
/// for a plain attempt) is queued as a waiter; returns whether the op
/// completed. Waiters it satisfied are resumed after the lock drops.
bool feb_do(FebWait& w, Record* parker) {
  FebBucket& b = bucket_for(w.addr);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  FebWait* ready = nullptr;
  bool done = false;
  {
    common::SpinGuard g(b.lock);
    FebEntry** at = b.find(w.addr);
    FebEntry* e = *at;
    bool full = e == nullptr || e->full;
    done = apply(w, full);
    if (!done && parker == nullptr) return false;
    if (e == nullptr) {
      if (done && full) return true;  // full, no waiters: no entry
      e = b.free;
      if (e != nullptr) {
        b.free = e->next;
      } else {
        e = new FebEntry;
      }
      *e = FebEntry{w.addr, true, nullptr, nullptr, nullptr};
      *at = e;
    }
    e->full = full;
    if (done) {
      ready = drain(*e);
    } else {
      w.th = parker;
      w.next = nullptr;
      (e->tail != nullptr ? e->tail->next : e->head) = &w;
      e->tail = &w;
      g_st->feb_blocks.fetch_add(1, std::memory_order_relaxed);
    }
    if (e->full && e->head == nullptr) {
      *at = e->next;
      e->next = b.free;
      b.free = e;
    }
  }
  while (ready != nullptr) {
    // Read the link first: once resumed, a waiter's FebWait may be gone.
    Record* th = ready->th;
    ready = ready->next;
    ult::resume(th);
  }
  return done;
}

/// Non-blocking op (writeF, feb_fill, feb_empty): always completes.
void feb_set(FebOp op, aligned_t* addr, aligned_t val) {
  FebWait w{op, addr, nullptr, val};
  (void)feb_do(w, nullptr);
}

/// Park callback: queues the parked qthread on its word, or performs the
/// op if the word changed meanwhile (then the engine re-readies it).
bool feb_park_cb(void* arg, Record* r) {
  return !feb_do(*static_cast<FebWait*>(arg), r);
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

/// A reset, unbound native qthread: no stack until a shepherd first runs
/// it; auto-freed at Done, joined through its return word.
/// @p shep < 0: the caller's shepherd (shepherd 0 on a foreign thread).
Record* new_thread(int shep, bool pinned, QthFn fn, void* arg,
                   aligned_t* ret) {
  if (ret != nullptr) feb_empty(ret);
  Record* th = ult::alloc(erase(fn), arg, shep, pinned);
  th->aux = ret;
  th->body = qthread_body;
  th->auto_free = true;
  return th;
}

void fork_impl(int shep, bool pinned, QthFn fn, void* arg, aligned_t* ret) {
  GLTO_CHECK_MSG(initialized(), "qth::init has not been called");
  GLTO_CHECK(shep >= 0 && shep < ult::num_workers());
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
      wave[i] = new_thread(/*shep=*/-1, /*pinned=*/false, fn, args[done + i],
                           rets != nullptr ? rets[done + i] : nullptr);
    }
    ult::submit_bulk(wave, take,
                     spread ? sched::BulkHint::spread : sched::BulkHint::local);
    done += take;
  }
}

int fork_shepherd() {
  // A fork from a shepherd is run-local — it lands on the caller's deque
  // where idle shepherds steal it. Foreign threads have no deque, so
  // their forks scatter round-robin.
  if (const int self = shep_rank(); self >= 0) return self;
  const auto next = g_st->rr_next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(next % static_cast<std::uint64_t>(ult::num_workers()));
}

void fork(QthFn fn, void* arg, aligned_t* ret) {
  GLTO_CHECK_MSG(initialized(), "qth::init has not been called");
  fork_impl(fork_shepherd(), /*pinned=*/false, fn, arg, ret);
}

void yield() { ult::yield(); }

void feb_empty(aligned_t* addr) { feb_set(FebOp::Empty, addr, 0); }

void feb_fill(aligned_t* addr) { feb_set(FebOp::Fill, addr, 0); }

bool feb_is_full(aligned_t* addr) {
  FebBucket& b = bucket_for(addr);
  g_st->feb_ops.fetch_add(1, std::memory_order_relaxed);
  common::SpinGuard g(b.lock);
  const FebEntry* e = *b.find(addr);
  return e == nullptr || e->full;
}

namespace {

void feb_op_blocking(FebOp op, aligned_t* addr, aligned_t* dst, aligned_t val) {
  FebWait w{op, addr, dst, val};
  if (feb_do(w, nullptr)) return;
  if (!in_qthread()) {
    // Foreign OS thread: spin politely until the op succeeds.
    common::spin_until([&] { return feb_do(w, nullptr); });
    return;
  }
  ult::park(feb_park_cb, &w);
  // feb_park_cb performed or queued the op; when we resume a waker has
  // satisfied it — nothing left to do.
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

void writeF(aligned_t* dst, aligned_t val) { feb_set(FebOp::WriteF, dst, val); }

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
