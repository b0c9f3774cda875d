#include "apps/qpserver.hpp"

#include <atomic>
#include <memory>
#include <vector>

#include "apps/bqp.hpp"
#include "common/debug.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "glt/glt.hpp"
#include "sched/metrics.hpp"
#include "sched/qos.hpp"
#include "sched/sync.hpp"

namespace glto::apps::qpserver {

namespace {

/// One queued solve request. Trivially copyable by design — the channel
/// ships descriptors, the problem data is shared read-only.
struct Request {
  std::int64_t enqueue_ns = 0;   ///< first arrival (latency + deadline base)
  std::int64_t deadline_ns = 0;  ///< absolute budget; 0 = no deadline
  std::uint32_t id = 0;
  std::uint32_t attempt = 0;     ///< admission attempts already consumed
};

struct ServerCtx {
  sched::Channel<Request>* chan = nullptr;
  const bqp::Problem* problem = nullptr;
  sched::LatencyHistogram* hist = nullptr;
  const Config* cfg = nullptr;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> deadline_missed{0};
  std::atomic<std::uint64_t> retried{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> not_converged{0};
  /// Smoothed solve time feeding the admission estimate. Updated with
  /// racy relaxed load/store — a lossy heuristic, not a sync channel.
  std::atomic<std::uint64_t> ewma_service_ns{0};
  std::atomic<bool> degrade_on{false};
};

/// Lowered IPM cap for degrade mode: quarter budget, floor of 4 — enough
/// to hand back a usable (if loose) iterate.
int degraded_cap(const Config& cfg) {
  return cfg.max_iters / 4 > 4 ? cfg.max_iters / 4 : 4;
}

/// Hysteresis on the queue depth: degrade above 3/4 capacity, recover
/// below 1/4. Workers call this often; both loads are racy snapshots.
void update_degrade(ServerCtx* ctx) {
  if (!ctx->cfg->degrade) return;
  const std::size_t depth = ctx->chan->size();
  const std::size_t cap = ctx->chan->capacity();
  if (depth * 4 >= cap * 3) {
    ctx->degrade_on.store(true, std::memory_order_relaxed);
  } else if (depth * 4 <= cap) {
    ctx->degrade_on.store(false, std::memory_order_relaxed);
  }
}

/// Worker ULT: blocks on the channel (true suspension — the GLT_thread
/// runs other work meanwhile), solves, stamps the latency. Exits when the
/// channel is closed and drained. Every dequeued request lands in exactly
/// one terminal bucket: completed, or deadline_missed (expired while
/// queued, abandoned in-flight, or finished late).
void worker_main(void* argp) {
  auto* ctx = static_cast<ServerCtx*>(argp);
  const Config& cfg = *ctx->cfg;
  Request req;
  while (ctx->chan->recv(req)) {
    std::int64_t now = common::now_ns();
    if (req.deadline_ns != 0 && now >= req.deadline_ns) {
      // Expired while queued: don't burn solver time on a dead request.
      ctx->deadline_missed.fetch_add(1, std::memory_order_relaxed);
      sched::qos_note_deadline_miss(req.id, sched::QosMissPhase::queued);
      update_degrade(ctx);
      continue;
    }
    const bool degraded =
        cfg.degrade && ctx->degrade_on.load(std::memory_order_relaxed);
    if (degraded) {
      ctx->degraded.fetch_add(1, std::memory_order_relaxed);
      sched::qos_note_degraded();
    }
    sched::QosContext qos;
    qos.deadline_ns = req.deadline_ns;
    qos.attempt = req.attempt;
    const std::int64_t solve_start = now;
    const bqp::Result r =
        bqp::solve(*ctx->problem, bqp::Mode::sequential,
                   degraded ? degraded_cap(cfg) : cfg.max_iters,
                   /*tol=*/1e-10, &qos);
    now = common::now_ns();
    if (!r.deadline_abandoned) {
      const std::uint64_t service =
          now > solve_start ? static_cast<std::uint64_t>(now - solve_start)
                            : 1;
      const std::uint64_t prev =
          ctx->ewma_service_ns.load(std::memory_order_relaxed);
      ctx->ewma_service_ns.store(
          prev == 0 ? service : (7 * prev + service) / 8,
          std::memory_order_relaxed);
    }
    if (r.deadline_abandoned) {
      ctx->deadline_missed.fetch_add(1, std::memory_order_relaxed);
      sched::qos_note_deadline_miss(req.id, sched::QosMissPhase::in_flight);
    } else if (req.deadline_ns != 0 && now > req.deadline_ns) {
      ctx->deadline_missed.fetch_add(1, std::memory_order_relaxed);
      sched::qos_note_deadline_miss(req.id, sched::QosMissPhase::late);
    } else {
      if (!r.converged) {
        ctx->not_converged.fetch_add(1, std::memory_order_relaxed);
      }
      ctx->hist->record(now > req.enqueue_ns
                            ? static_cast<std::uint64_t>(now - req.enqueue_ns)
                            : 0);
      ctx->completed.fetch_add(1, std::memory_order_relaxed);
      sched::qos_note_completed();
    }
    update_degrade(ctx);
  }
}

/// Admission control for one request. True once the request is queued (a
/// worker then owns its terminal accounting); false when it was shed —
/// counted here, exactly once, after the retry budget is spent. Without a
/// deadline this degrades to the original blocking send (backpressure is
/// the only admission control, nothing is ever shed).
bool admit(ServerCtx* ctx, Request req) {
  const Config& cfg = *ctx->cfg;
  common::SplitRng rng = common::SplitRng(cfg.seed).split(req.id);
  for (;;) {
    const std::int64_t now = common::now_ns();
    bool attempt_ok = true;
    if (req.deadline_ns != 0) {
      if (now >= req.deadline_ns) {
        attempt_ok = false;
      } else {
        // Estimated queue wait from the live backlog and the smoothed
        // solve time: if the wait alone eats the remaining budget, shed
        // now instead of queueing a request that can only expire.
        const std::uint64_t est_wait_ns =
            ctx->chan->size() *
            ctx->ewma_service_ns.load(std::memory_order_relaxed) /
            static_cast<std::uint64_t>(cfg.concurrency);
        attempt_ok =
            now + static_cast<std::int64_t>(est_wait_ns) < req.deadline_ns;
      }
    }
    if (attempt_ok) {
      bool sent;
      if (req.deadline_ns != 0) {
        // This attempt may only block for its slice of the remaining
        // budget, leaving room for the retries still available.
        const int attempts_left = cfg.retries - static_cast<int>(req.attempt);
        const std::int64_t slice = (req.deadline_ns - now) / (attempts_left + 1);
        sent = ctx->chan->send_until(req, now + (slice > 0 ? slice : 1));
      } else {
        sent = ctx->chan->send(req);
      }
      if (sent) return true;
      GLTO_CHECK_MSG(!ctx->chan->closed(),
                     "qpserver channel closed while producing");
    }
    if (req.deadline_ns == 0 || static_cast<int>(req.attempt) >= cfg.retries ||
        common::now_ns() >= req.deadline_ns) {
      ctx->shed.fetch_add(1, std::memory_order_relaxed);
      sched::qos_note_shed(req.id, req.attempt + 1);
      return false;
    }
    ++req.attempt;
    ctx->retried.fetch_add(1, std::memory_order_relaxed);
    sched::qos_note_retried();
    // Deterministic jittered backoff: (seed, id, attempt) fixes the
    // jitter, so a rerun sheds and retries identically. Clamped to the
    // deadline — an exhausted budget resolves to shed on the next pass.
    const std::int64_t step_us =
        static_cast<std::int64_t>(cfg.backoff_us) * req.attempt;
    const std::int64_t jitter_us = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(cfg.backoff_us) + 1));
    const std::int64_t wake_ns = common::now_ns() + (step_us + jitter_us) * 1000;
    sched::backoff_until(wake_ns < req.deadline_ns ? wake_ns : req.deadline_ns);
  }
}

/// Per-request client ULT for the paced open-loop mode: runs admission
/// (including retry backoff) off the producer's critical path so the
/// offered arrival rate is not distorted by a congested queue.
struct ClientArg {
  ServerCtx* ctx = nullptr;
  Request req;
  glt::latch* done = nullptr;
};

void client_main(void* argp) {
  auto* a = static_cast<ClientArg*>(argp);
  admit(a->ctx, a->req);
  a->done->count_down();  // last touch: the producer may free *a after it
}

std::int64_t knob(const char* name, std::int64_t dflt) {
  return common::env_i64(name, dflt);
}

}  // namespace

Config config_from_env() {
  Config c;
  c.requests = static_cast<int>(knob("GLTO_QPSERVER_REQUESTS", c.requests));
  c.concurrency =
      static_cast<int>(knob("GLTO_QPSERVER_CONCURRENCY", c.concurrency));
  c.queue_depth = static_cast<int>(knob("GLTO_QPSERVER_QUEUE", c.queue_depth));
  c.n = static_cast<int>(knob("GLTO_QPSERVER_N", c.n));
  c.tile = static_cast<int>(knob("GLTO_QPSERVER_TILE", c.tile));
  c.rank = static_cast<int>(knob("GLTO_QPSERVER_RANK", c.rank));
  c.max_iters = static_cast<int>(knob("GLTO_QPSERVER_ITERS", c.max_iters));
  c.seed = static_cast<std::uint64_t>(knob("GLTO_QPSERVER_SEED",
                                           static_cast<std::int64_t>(c.seed)));
  c.deadline_ms =
      static_cast<int>(knob("GLTO_QPSERVER_DEADLINE_MS", c.deadline_ms));
  c.retries = static_cast<int>(knob("GLTO_QPSERVER_RETRIES", c.retries));
  c.backoff_us =
      static_cast<int>(knob("GLTO_QPSERVER_BACKOFF_US", c.backoff_us));
  c.degrade = common::env_bool("GLTO_QPSERVER_DEGRADE", c.degrade);
  return c;
}

Report run(const Config& cfg) {
  GLTO_CHECK_MSG(glt::initialized(), "qpserver::run requires glt::init");
  GLTO_CHECK(cfg.requests > 0 && cfg.concurrency > 0 && cfg.queue_depth > 0);
  GLTO_CHECK(cfg.deadline_ms >= 0 && cfg.retries >= 0 && cfg.backoff_us >= 0);

  const bqp::Problem problem =
      bqp::make_problem(cfg.n, cfg.tile, cfg.rank, cfg.seed);
  sched::Channel<Request> chan(static_cast<std::size_t>(cfg.queue_depth));
  auto hist = std::make_unique<sched::LatencyHistogram>();

  ServerCtx ctx;
  ctx.chan = &chan;
  ctx.problem = &problem;
  ctx.hist = hist.get();
  ctx.cfg = &cfg;

  common::Timer timer;
  std::vector<glt::Ult*> workers;
  workers.reserve(static_cast<std::size_t>(cfg.concurrency));
  for (int i = 0; i < cfg.concurrency; ++i) {
    workers.push_back(glt::ult_create(worker_main, &ctx));
  }

  const std::int64_t budget_ns =
      static_cast<std::int64_t>(cfg.deadline_ms) * 1'000'000;

  if (cfg.arrival_rps > 0.0) {
    // Open loop: arrivals are paced at the offered rate regardless of
    // server state; each request gets a detached client ULT so admission
    // retries never hold the pacing loop back, and a client's record is
    // recycled as soon as it finishes. ClientArgs keep stable addresses
    // until every client has counted `done` down.
    std::vector<ClientArg> args(static_cast<std::size_t>(cfg.requests));
    glt::latch done(cfg.requests);
    const double gap_ns = 1e9 / cfg.arrival_rps;
    double next_ns = static_cast<double>(common::now_ns());
    for (int i = 0; i < cfg.requests; ++i) {
      if (common::now_ns() < static_cast<std::int64_t>(next_ns)) {
        sched::backoff_until(static_cast<std::int64_t>(next_ns));
      }
      const std::int64_t arrive = common::now_ns();
      Request req;
      req.enqueue_ns = arrive;
      req.deadline_ns = budget_ns > 0 ? arrive + budget_ns : 0;
      req.id = static_cast<std::uint32_t>(i);
      args[static_cast<std::size_t>(i)] = ClientArg{&ctx, req, &done};
      glt::ult_create_detached(-1, client_main,
                               &args[static_cast<std::size_t>(i)]);
      next_ns += gap_ns;
    }
    done.wait();
  } else {
    // Closed loop: the producer itself runs admission; with no deadline
    // this is the original behaviour — channel backpressure suspends the
    // producer and nothing is ever shed.
    for (int i = 0; i < cfg.requests; ++i) {
      const std::int64_t arrive = common::now_ns();
      Request req;
      req.enqueue_ns = arrive;
      req.deadline_ns = budget_ns > 0 ? arrive + budget_ns : 0;
      req.id = static_cast<std::uint32_t>(i);
      admit(&ctx, req);
    }
  }
  chan.close();
  for (glt::Ult* w : workers) glt::ult_join(w);

  Report rep;
  rep.offered = static_cast<std::uint64_t>(cfg.requests);
  rep.completed = ctx.completed.load(std::memory_order_relaxed);
  rep.shed = ctx.shed.load(std::memory_order_relaxed);
  rep.deadline_missed = ctx.deadline_missed.load(std::memory_order_relaxed);
  rep.retried = ctx.retried.load(std::memory_order_relaxed);
  rep.degraded = ctx.degraded.load(std::memory_order_relaxed);
  rep.not_converged = ctx.not_converged.load(std::memory_order_relaxed);
  rep.elapsed_s = timer.elapsed_sec();
  rep.throughput_rps =
      rep.elapsed_s > 0 ? static_cast<double>(rep.offered) / rep.elapsed_s
                        : 0.0;
  rep.goodput_rps =
      rep.elapsed_s > 0 ? static_cast<double>(rep.completed) / rep.elapsed_s
                        : 0.0;
  rep.p50_us = hist->percentile_ns(50) / 1000;
  rep.p95_us = hist->percentile_ns(95) / 1000;
  rep.p99_us = hist->percentile_ns(99) / 1000;
  rep.max_us = hist->max_ns() / 1000;
  GLTO_CHECK_MSG(rep.completed + rep.shed + rep.deadline_missed == rep.offered,
                 "qpserver: request accounting leak");
  return rep;
}

}  // namespace glto::apps::qpserver
