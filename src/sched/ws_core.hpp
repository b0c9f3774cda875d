// Shared work-stealing scheduler core for the three LWT backends.
//
// PR 1 built this machinery inside the abt backend: per-worker Chase–Lev
// deques with randomized stealing, an owner-only "fair" FIFO side queue
// for pinned/remote/yielded units, a single shared MPMC pool for the
// §IV-F GLT_SHARED_QUEUES study, adaptive idle parking, and steal/park
// counters. This header hoists all of it into one reusable engine so qth
// shepherds and mth workers dispatch through the identical fast path —
// restoring the cross-backend comparison the paper's Figs. 4–9 are about
// (one GLT API, three runtimes, no penalty). The shared pool is the only
// alternative configuration.
//
// Queue discipline per worker:
//  * `deque`  — unpinned units pushed by the owner; LIFO bottom for the
//    owner (cache-warm, work-first), FIFO top for thieves.
//  * `fair`   — pinned, remote-submitted, and yielded units; MPMC push,
//    popped FIFO by the owner only, checked first every 64th pop so it
//    cannot starve behind a spawn storm. Pinned units are never stolen —
//    the exact-placement contract glt::ult_create_to documents.
// A separate *main slot* holds the primary context: only the worker-0
// loop pops it, so a thief can never resume main and tear the runtime
// down from a foreign OS thread (the §IV-G pin-the-main hazard).
//
// Wakeups (the fan-out-dispatch PR): each worker parks on its own
// common::Parker and advertises idleness in an atomic idle-mask before its
// final pre-park probe, so a producer deposit either sees the idle bit
// (and issues one targeted unpark) or the worker's probe sees the deposit
// — no lost wakeups, and no O(team) futex broadcast per push. Every
// deposit wakes at most one parked worker: the deposit's owner for
// owner-only stores (fair/main), any parked thief for stealable deque
// pushes. request_shutdown() broadcasts to every worker.
//
// submit_bulk deposits a whole batch with one publication per victim and
// one targeted wake per victim: `spread` fans contiguous chunks across
// workers (the producer pattern — the caller's chunk rides its own deque,
// remote chunks go to the victims' fair FIFOs), `local` publishes the
// whole batch on the caller's deque with one release fence
// (ChaseLevDeque::push_n) and wakes idle thieves to rebalance.
//
// The core stores opaque handles (T is a pointer type); running, context
// switching, and lifetime stay in the backend. Null (T{}) means "none".
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/parker.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sched/chase_lev.hpp"
#include "sched/overflow_queue.hpp"
#include "sched/trace.hpp"
#include "sched/watchdog.hpp"

namespace glto::sched {

struct WsCoreConfig {
  int num_workers = 1;
  bool shared_pool = false;  ///< one pool for all workers (§IV-F ablation)
};

/// Per-worker queue sizes: the Chase–Lev deque's initial array (it grows
/// on demand) and the fair FIFO's ring (it spills to an overflow list).
inline constexpr std::size_t kDequeCapacity = 256;
inline constexpr std::size_t kFairCapacity = 1024;

struct WsCoreStats {
  std::uint64_t steals = 0;          ///< units taken from another worker
  std::uint64_t failed_steals = 0;   ///< empty / lost-race steal attempts
  std::uint64_t parks = 0;           ///< idle parks (adaptive 200µs–2ms)
  std::uint64_t parked_us = 0;       ///< total time actually parked, µs
  std::uint64_t wakes_issued = 0;    ///< targeted unparks sent to workers
  std::uint64_t wakes_spurious = 0;  ///< parks woken but found no work
  std::uint64_t bulk_deposits = 0;   ///< submit_bulk batches published
};

/// Adaptive idle parking: the first park is short (work often arrives
/// within the old fixed 200 µs), each consecutive fruitless park doubles
/// up to a 2 ms cap — a steal probe runs between parks, so a long park can
/// never strand runnable work for more than one wake latency. A park cut
/// short by an unpark does NOT double the backoff: the wake was a real
/// signal that work was near (another worker merely beat us to it), and
/// punishing it would make racing consumers drift toward the 2 ms cap.
inline constexpr std::int64_t kParkMinUs = 200;
inline constexpr std::int64_t kParkMaxUs = 2000;

/// Per-loop acquire state: pop-fairness tick, idle backoff, main-slot
/// alternation, the steal-victim RNG, and the loop's earliest timer
/// deadline. One per scheduler loop, owned by the loop (stack or TLS) —
/// never shared between OS threads.
struct AcquireState {
  explicit AcquireState(std::uint64_t seed) : rng(common::mix64(seed)) {}
  /// The loop's earliest parked-unit deadline (common::now_ns clock):
  /// acquire never parks past it and returns T{} once it has passed.
  std::int64_t deadline_ns = common::kNoDeadline;
  unsigned tick = 0;
  int idle = 0;
  std::int64_t park_us = kParkMinUs;
  bool main_turn = false;
  bool advertised = false;    ///< idle-mask bit currently set by this loop
  bool wake_pending = false;  ///< last park was cut short by an unpark
  common::FastRng rng;
};

/// Distribution hint for WsCore::submit_bulk.
enum class BulkHint : std::uint8_t {
  spread,  ///< fan chunks out across workers (producer pattern)
  local,   ///< publish on the caller's deque; woken thieves rebalance
};

template <typename T>
class WsCore {
  static_assert(std::is_pointer_v<T>, "WsCore stores opaque handles");

 public:
  explicit WsCore(const WsCoreConfig& cfg)
      : n_(cfg.num_workers > 0 ? cfg.num_workers : 1),
        shared_(cfg.shared_pool),
        idle_words_(static_cast<std::size_t>((n_ + 63) / 64)),
        sync_(new WorkerSync[static_cast<std::size_t>(n_)]),
        counters_(static_cast<std::size_t>(n_)) {
    for (auto& w : idle_words_) w.store(0, std::memory_order_relaxed);
    const int pool_count = shared_ ? 1 : n_;
    pools_.reserve(static_cast<std::size_t>(pool_count));
    for (int i = 0; i < pool_count; ++i) {
      pools_.push_back(std::make_unique<Pool>());
    }
  }

  WsCore(const WsCore&) = delete;
  WsCore& operator=(const WsCore&) = delete;

  [[nodiscard]] int num_workers() const { return n_; }
  [[nodiscard]] bool shared_pool() const { return shared_; }
  [[nodiscard]] bool stealing_active() const { return !shared_ && n_ > 1; }

  // ------------------------------------------------------------- routing

  /// Creation-time placement. Hot path — an unpinned spawn by the target's
  /// own worker — lands LIFO on the caller's lock-free deque where idle
  /// workers steal from the top. Exact placement (@p pinned) and foreign
  /// submissions (@p caller_rank != @p target_rank, incl. foreign threads
  /// with caller_rank < 0) go through the target's owner-only fair FIFO,
  /// so pinned units can never be stolen.
  void submit(int caller_rank, int target_rank, bool pinned, T item) {
    if (shared_) {
      pools_[0]->fair.push(item);
      wake_any(caller_rank);
    } else if (pinned || caller_rank != target_rank) {
      pool_for(target_rank).fair.push(item);
      wake_owner_store(caller_rank, target_rank);
    } else {
      pool_for(caller_rank).deque.push(item);
      wake_thief(caller_rank);
    }
  }

  /// Re-readies a suspended unit. @p fifo routes through the fair FIFO
  /// (yields — the unit must not immediately preempt deque work);
  /// otherwise a woken unpinned unit lands LIFO on the waker's own deque
  /// (cache-warm, stealable). Callers resolve @p caller_rank *after* any
  /// suspension point (it may have changed OS threads).
  void ready(int caller_rank, int home_rank, bool pinned, bool fifo,
             T item) {
    if (shared_) {
      pools_[0]->fair.push(item);
      wake_any(caller_rank);
    } else if (pinned) {
      pool_for(home_rank).fair.push(item);
      wake_owner_store(caller_rank, home_rank);
    } else if (caller_rank >= 0 && !fifo) {
      pool_for(caller_rank).deque.push(item);
      wake_thief(caller_rank);
    } else {
      const int rank = caller_rank >= 0 ? caller_rank : home_rank;
      pool_for(rank).fair.push(item);
      wake_owner_store(caller_rank, rank);
    }
  }

  /// Queues the primary (main) context. Only pop_main — called by the
  /// worker-0 loop — ever returns it, even under a shared pool: a worker
  /// that resumed main would let finalize tear the runtime down from a
  /// foreign OS thread while the real main thread still runs on its stack.
  /// Only worker 0 can consume the slot, so the wake targets it.
  void push_main(T item) {
    main_.push(item);
    publish_fence();
    if (idle_claim(0)) unpark(0);
  }

  /// Deposits @p n units in one call: one queue publication per victim and
  /// one targeted wake per victim, instead of n push+wake round-trips.
  /// `spread` fans contiguous chunks across workers — the caller's chunk
  /// rides its own deque (stealable), remote victims receive theirs
  /// through the owner-only fair FIFO (the producer-pattern placement the
  /// round-robin ult_create_to path used, minus the per-unit wakes).
  /// `local` publishes everything on the caller's deque with a single
  /// releasing bottom advance and wakes idle thieves to pull the batch
  /// apart. Victim count: min(team, n).
  void submit_bulk(int caller_rank, const T* items, std::size_t n,
                   BulkHint hint) {
    if (n == 0) return;
    bulk_deposits_.fetch_add(1, std::memory_order_relaxed);
    trace_emit(TraceKind::bulk_deposit, static_cast<std::uint64_t>(n),
               static_cast<std::uint32_t>(hint == BulkHint::local ? 1 : 0));
    if (shared_) {
      pools_[0]->fair.push_n(items, n);
      wake_bulk_any(caller_rank, n);
      return;
    }
    if (hint == BulkHint::local && caller_rank >= 0) {
      pool_for(caller_rank).deque.push_n(items, n);
      if (stealing_active()) wake_bulk_any(caller_rank, n);
      return;
    }
    // spread: k victims, contiguous ⌈n/k⌉-unit chunks. Every victim that
    // received a chunk gets its own targeted wake — a fair-FIFO chunk is
    // owner-only, so an unwoken victim would strand it for a park period.
    const std::size_t k = bulk_victims(n);
    const std::size_t chunk = (n + k - 1) / k;
    const int start = caller_rank >= 0 ? caller_rank : 0;
    bool woke_any_needed = false;
    std::size_t i = 0;
    for (std::size_t j = 0; j < k && i < n; ++j) {
      const int victim = static_cast<int>(
          (static_cast<std::size_t>(start) + j) % static_cast<std::size_t>(n_));
      const std::size_t take = std::min(chunk, n - i);
      if (victim == caller_rank) {
        pool_for(victim).deque.push_n(items + i, take);
        woke_any_needed = true;  // stealable: wake a thief below
      } else {
        pool_for(victim).fair.push_n(items + i, take);
        publish_fence();
        if (idle_claim(victim)) unpark(victim);
      }
      i += take;
    }
    if (woke_any_needed && stealing_active()) wake_thief(caller_rank);
  }

  // --------------------------------------------------------- consumption

  /// Owner-side pop from @p rank's pool. Work-first: the deque bottom
  /// (newest, cache-warm) goes first; the fair queue is checked first
  /// every 64th pop so pinned/yielded units cannot starve behind a spawn
  /// storm. Returns T{} when empty.
  T pop_local(int rank, unsigned* tick) {
    Pool& pool = pool_for(rank);
    const bool fair_first = (++*tick & 63u) == 0;
    if (fair_first) {
      if (auto v = pool.fair.pop()) return *v;
    }
    if (!shared_) {
      T item{};
      if (pool.deque.pop(&item)) return item;
    }
    if (!fair_first) {
      if (auto v = pool.fair.pop()) return *v;
    }
    return T{};
  }

  /// Pops the main slot. Call only from the worker-0 loop.
  T pop_main() {
    if (auto v = main_.pop()) return *v;
    return T{};
  }

  /// One randomized sweep over the other workers' deques. Victims are
  /// probed with relaxed loads first (empty_approx) so an idle fleet does
  /// not hammer seq_cst steal operations — and so failed_steals measures
  /// real contention (a victim that *looked* non-empty but yielded
  /// nothing), not idle-loop spinning.
  T try_steal(int rank, common::FastRng& rng) {
    if (!stealing_active()) return T{};
    Counters& c = counters_[static_cast<std::size_t>(rank)];
    const int start =
        static_cast<int>(rng.next() % static_cast<unsigned>(n_));
    for (int k = 0; k < n_; ++k) {
      const int victim = start + k < n_ ? start + k : start + k - n_;
      if (victim == rank) continue;
      auto& deque = pools_[static_cast<std::size_t>(victim)]->deque;
      if (deque.empty_approx()) continue;
      T item{};
      if (deque.steal(&item)) {
        c.steals.fetch_add(1, std::memory_order_relaxed);
        trace_emit(TraceKind::steal_success,
                   static_cast<std::uint64_t>(victim));
        return item;
      }
      c.failed_steals.fetch_add(1, std::memory_order_relaxed);
      trace_emit(TraceKind::steal_attempt,
                 static_cast<std::uint64_t>(victim));
    }
    return T{};
  }

  /// Non-blocking acquire: local pop, then (optionally) the main slot,
  /// then one steal sweep. No idling — for schedulers that fall back to a
  /// base context when nothing is runnable (mth's leave()).
  T try_next(int rank, unsigned* tick, common::FastRng& rng,
             bool with_main) {
    if (with_main) {
      if (T item = pop_main()) return item;
    }
    if (T item = pop_local(rank, tick)) return item;
    return try_steal(rank, rng);
  }

  /// Blocking acquire for worker loops: drains @p rank's pool, steals when
  /// idle, parks briefly (spin → yield → advertise-idle → adaptive park)
  /// when there is nothing to steal. Returns T{} when a full pop + steal
  /// probe found nothing and either shutdown was requested or
  /// st.deadline_ns has passed (the loop then fires its due timers and
  /// calls again); no park outlasts st.deadline_ns. @p with_main on
  /// the worker-0 loop alternates fairly between the main slot and the
  /// regular pool: strict priority either way starves someone (main-first
  /// starves yielded-to pool work; pool-first starves main when a
  /// co-located unit busy-waits for main at a barrier).
  ///
  /// Wake protocol: the idle-mask bit is set (seq_cst) BEFORE the final
  /// pre-park probe, so a producer's deposit either observes the bit and
  /// targets this worker's parker, or the probe observes the deposit —
  /// the push/park race can no longer cost a full park timeout. A park
  /// cut short by an unpark that then finds nothing counts as a spurious
  /// wake and does not grow the backoff; only a timed-out park doubles it.
  T acquire(int rank, AcquireState& st, bool with_main) {
    Counters& c = counters_[static_cast<std::size_t>(rank)];
    for (;;) {
      T item{};
      if (with_main && st.main_turn) {
        item = pop_main();
        if (!item) item = pop_local(rank, &st.tick);
      } else {
        item = pop_local(rank, &st.tick);
        if (!item && with_main) item = pop_main();
      }
      st.main_turn = !st.main_turn;
      if (!item) item = try_steal(rank, st.rng);
      if (item) {
        if (st.advertised) {
          idle_clear(rank);
          st.advertised = false;
        }
        st.wake_pending = false;
        st.idle = 0;
        st.park_us = kParkMinUs;
        c.acquired.fetch_add(1, std::memory_order_relaxed);
        watchdog_note_progress();
        return item;
      }
      if (st.wake_pending) {
        // Unparked, probed everything, found nothing: the deposit that
        // woke us was claimed by someone else.
        st.wake_pending = false;
        c.wakes_spurious.fetch_add(1, std::memory_order_relaxed);
      }
      const bool timed = st.deadline_ns != common::kNoDeadline;
      const std::int64_t now = timed ? common::now_ns() : 0;
      if (shutdown_.load(std::memory_order_acquire) ||
          (timed && now >= st.deadline_ns)) {
        if (st.advertised) {
          idle_clear(rank);
          st.advertised = false;
        }
        return T{};
      }
      if (++st.idle < 64) {
        common::cpu_relax();
      } else if (st.idle < 96) {
        std::this_thread::yield();
      } else if (!st.advertised) {
        // Advertise idleness, then loop for one more full probe: a
        // deposit racing this transition is caught either by the
        // producer's mask read or by the re-probe.
        idle_set(rank);
        st.advertised = true;
      } else {
        // A park clamped to the deadline ends on time, not fruitlessly:
        // it does not grow the backoff.
        const std::int64_t left_us =
            timed ? (st.deadline_ns - now + 999) / 1000
                  : st.park_us;
        const bool clamped = left_us < st.park_us;
        const std::int64_t park_us = clamped ? left_us : st.park_us;
        c.parks.fetch_add(1, std::memory_order_relaxed);
        trace_emit(TraceKind::park, static_cast<std::uint64_t>(rank),
                   static_cast<std::uint32_t>(park_us));
        const std::int64_t parked_at = common::now_ns();
        const bool woken = sync_[static_cast<std::size_t>(rank)]
                               .parker.park_for_us(park_us);
        // Time actually parked (a wake cuts the timeout short), truncated
        // so the per-worker sum never exceeds wall time.
        c.parked_us.fetch_add(
            static_cast<std::uint64_t>((common::now_ns() - parked_at) / 1000),
            std::memory_order_relaxed);
        idle_clear(rank);  // idempotent: the waker may have claimed it
        st.advertised = false;
        trace_emit(TraceKind::unpark, static_cast<std::uint64_t>(rank),
                   woken ? 1u : 0u);
        if (woken) {
          st.wake_pending = true;
        } else if (!clamped) {
          st.park_us = std::min<std::int64_t>(st.park_us * 2, kParkMaxUs);
        }
      }
    }
  }

  // ------------------------------------------------------------- control

  void request_shutdown() {
    shutdown_.store(true, std::memory_order_release);
    // Broadcast past the idle mask: a worker between its mask clear and
    // its next park still holds a permit and exits within one timeout.
    broadcast_unpark();
  }

  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Racy "is there anything I could run?" probe for yield heuristics
  /// (with nothing else runnable, yielding is a no-op).
  [[nodiscard]] bool maybe_work(int rank, bool with_main) const {
    if (with_main && main_.size_approx() > 0) return true;
    const Pool& own = pool_for(rank);
    if (own.fair.size_approx() > 0 || !own.deque.empty_approx()) return true;
    if (!stealing_active()) return false;
    for (int v = 0; v < n_; ++v) {
      if (v == rank) continue;
      if (!pools_[static_cast<std::size_t>(v)]->deque.empty_approx()) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] WsCoreStats stats() const {
    WsCoreStats s;
    for (const Counters& c : counters_) {
      s.steals += c.steals.load(std::memory_order_relaxed);
      s.failed_steals += c.failed_steals.load(std::memory_order_relaxed);
      s.parks += c.parks.load(std::memory_order_relaxed);
      s.parked_us += c.parked_us.load(std::memory_order_relaxed);
      s.wakes_spurious += c.wakes_spurious.load(std::memory_order_relaxed);
    }
    s.wakes_issued = wakes_issued_.load(std::memory_order_relaxed);
    s.bulk_deposits = bulk_deposits_.load(std::memory_order_relaxed);
    return s;
  }

  /// Whether @p rank currently advertises itself in the idle mask (set
  /// just before its final pre-park probe, cleared when it wakes with
  /// work). Racy by nature — for diagnostics and tests that want to poke
  /// a *provably parked* worker, not for scheduling decisions.
  [[nodiscard]] bool idle_advertised(int rank) const {
    const auto bit = std::uint64_t{1} << (static_cast<unsigned>(rank) % 64);
    return (idle_words_[static_cast<std::size_t>(rank) / 64].load(
                std::memory_order_acquire) &
            bit) != 0;
  }

  /// Stall-watchdog state dump: idle mask, per-worker queue depths and
  /// park/wake counters — everything needed to distinguish a lost wake
  /// (work queued, worker advertised idle) from a true dependence stall
  /// (all queues empty, waiters elsewhere). Racy relaxed reads only: the
  /// runtime is presumed wedged, and this must not block on its locks.
  void dump_state(const char* tag) const {
    std::fprintf(stderr, "glto: WATCHDOG: core[%s] workers=%d%s "
                         "shutdown=%d\n",
                 tag, n_, shared_ ? " shared" : "",
                 shutdown_.load(std::memory_order_relaxed) ? 1 : 0);
    std::fprintf(stderr, "glto: WATCHDOG:   idle mask:");
    for (std::size_t w = 0; w < idle_words_.size(); ++w) {
      std::fprintf(stderr, " %016llx",
                   static_cast<unsigned long long>(
                       idle_words_[w].load(std::memory_order_relaxed)));
    }
    std::fprintf(stderr, "  main slot: %zu\n", main_.size_approx());
    for (int r = 0; r < n_; ++r) {
      const Pool& p = pool_for(r);
      const Counters& c = counters_[static_cast<std::size_t>(r)];
      const std::int64_t dq = p.deque.size_approx();
      std::fprintf(
          stderr,
          "glto: WATCHDOG:   w%-3d deque=%lld fair=%zu "
          "acquired=%llu steals=%llu parks=%llu spurious=%llu "
          "parked_waiters=%d\n",
          r, static_cast<long long>(dq < 0 ? 0 : dq), p.fair.size_approx(),
          static_cast<unsigned long long>(
              c.acquired.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              c.steals.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              c.parks.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              c.wakes_spurious.load(std::memory_order_relaxed)),
          sync_[static_cast<std::size_t>(r)].parker.waiters());
      if (shared_) break;  // one pool serves every rank; counters differ,
                           // but the queue line would just repeat
    }
    std::fprintf(stderr, "glto: WATCHDOG:   wakes_issued=%llu "
                         "bulk_deposits=%llu\n",
                 static_cast<unsigned long long>(
                     wakes_issued_.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(
                     bulk_deposits_.load(std::memory_order_relaxed)));
  }

 private:
  struct Pool {
    ChaseLevDeque<T> deque{kDequeCapacity};
    OverflowQueue<T> fair{kFairCapacity};
  };

  /// Per-worker counters, owner-written; one cache line each so the hot
  /// loop never bounces a shared stats line.
  struct alignas(common::kCacheLine) Counters {
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> parked_us{0};
    std::atomic<std::uint64_t> wakes_spurious{0};
    std::atomic<std::uint64_t> acquired{0};  ///< units successfully acquired
  };

  /// Per-worker parker, cache-line-isolated: unparking worker A never
  /// bounces the line worker B's park state lives on.
  struct alignas(common::kCacheLine) WorkerSync {
    common::Parker parker;
  };

  Pool& pool_for(int rank) {
    return *pools_[shared_ ? 0 : static_cast<std::size_t>(rank)];
  }
  const Pool& pool_for(int rank) const {
    return *pools_[shared_ ? 0 : static_cast<std::size_t>(rank)];
  }

  // ------------------------------------------------------ idle-mask wakes

  /// Orders this thread's queue publication before its idle-mask read —
  /// the producer half of the Dekker pattern the consumer's seq_cst
  /// idle_set forms. Without it, store→load reordering lets both sides
  /// miss each other and the deposit waits out a full park timeout (the
  /// pre-PR-5 multi-ms stalls).
  static void publish_fence() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void idle_set(int rank) {
    idle_words_[static_cast<std::size_t>(rank) / 64].fetch_or(
        std::uint64_t{1} << (static_cast<std::size_t>(rank) % 64),
        std::memory_order_seq_cst);
  }

  void idle_clear(int rank) {
    idle_words_[static_cast<std::size_t>(rank) / 64].fetch_and(
        ~(std::uint64_t{1} << (static_cast<std::size_t>(rank) % 64)),
        std::memory_order_acq_rel);
  }

  /// Atomically claims @p rank's idle bit; true when this caller cleared
  /// it (and therefore owns the wake).
  bool idle_claim(int rank) {
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<std::size_t>(rank) % 64);
    return (idle_words_[static_cast<std::size_t>(rank) / 64].fetch_and(
                ~bit, std::memory_order_acq_rel) &
            bit) != 0;
  }

  /// Claims any idle worker's bit (≠ @p exclude); returns its rank or -1.
  int claim_any_idle(int exclude) {
    for (std::size_t w = 0; w < idle_words_.size(); ++w) {
      std::uint64_t cur = idle_words_[w].load(std::memory_order_relaxed);
      while (cur != 0) {
        const int bit = __builtin_ctzll(cur);
        const int rank = static_cast<int>(w) * 64 + bit;
        const std::uint64_t mask = std::uint64_t{1} << bit;
        if (rank == exclude) {
          cur &= ~mask;
          continue;
        }
        if (idle_words_[w].compare_exchange_weak(
                cur, cur & ~mask, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          return rank;
        }
        // cur reloaded by the failed CAS; rescan this word.
      }
    }
    return -1;
  }

  void unpark(int rank) {
    wakes_issued_.fetch_add(1, std::memory_order_relaxed);
    trace_emit(TraceKind::wake, static_cast<std::uint64_t>(rank));
    sync_[static_cast<std::size_t>(rank)].parker.unpark();
  }

  /// Wake for a deposit into @p store_rank's owner-only fair store: only
  /// that owner can run the item, so the wake is always targeted — unless
  /// the owner IS the caller (awake by definition), in which case no wake
  /// is needed. Never reached under a shared pool (callers route those
  /// deposits through wake_any).
  void wake_owner_store(int caller_rank, int store_rank) {
    if (store_rank == caller_rank) return;
    publish_fence();
    if (idle_claim(store_rank)) unpark(store_rank);
  }

  /// Wake for a stealable deposit on @p caller_rank's own deque: the
  /// caller is awake, so engage one parked thief (if any).
  void wake_thief(int caller_rank) {
    if (!stealing_active()) return;
    publish_fence();
    const int v = claim_any_idle(caller_rank);
    if (v >= 0) unpark(v);
  }

  /// Wake for a deposit any worker can consume (shared pool).
  void wake_any(int caller_rank) {
    if (n_ == 1 && caller_rank >= 0) return;
    publish_fence();
    const int v = claim_any_idle(caller_rank);
    if (v >= 0) unpark(v);
  }

  /// Bulk variant of wake_any: engage up to bulk_victims(n) workers.
  void wake_bulk_any(int caller_rank, std::size_t n) {
    publish_fence();
    const std::size_t quota = bulk_victims(n);
    for (std::size_t i = 0; i < quota; ++i) {
      const int v = claim_any_idle(caller_rank);
      if (v < 0) break;
      unpark(v);
    }
  }

  /// Victim/wake quota for an n-unit bulk deposit.
  [[nodiscard]] std::size_t bulk_victims(std::size_t n) const {
    return std::min(static_cast<std::size_t>(n_), n);
  }

  /// Unconditional broadcast (shutdown): permits reach even workers
  /// currently between a mask clear and their next park.
  void broadcast_unpark() {
    for (int r = 0; r < n_; ++r) {
      sync_[static_cast<std::size_t>(r)].parker.unpark();
    }
  }

  const int n_;
  const bool shared_;
  std::vector<std::unique_ptr<Pool>> pools_;
  OverflowQueue<T> main_{64};
  /// One idle bit per worker, set (seq_cst) before the final pre-park
  /// probe and claimed (CAS) by wakers — see acquire().
  std::vector<std::atomic<std::uint64_t>> idle_words_;
  std::unique_ptr<WorkerSync[]> sync_;
  std::vector<Counters> counters_;
  alignas(common::kCacheLine) std::atomic<std::uint64_t> wakes_issued_{0};
  std::atomic<std::uint64_t> bulk_deposits_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace glto::sched
