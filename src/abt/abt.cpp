#include "abt/abt.hpp"

#include "common/debug.hpp"
#include "sched/ult_engine.hpp"

namespace glto::abt {

namespace {

namespace ult = sched::ult;

constexpr ult::Personality kAbt{"abt", /*work_first=*/false};

ult::Record* rec(WorkUnit* wu) { return reinterpret_cast<ult::Record*>(wu); }
const ult::Record* rec(const WorkUnit* wu) {
  return reinterpret_cast<const ult::Record*>(wu);
}
WorkUnit* unit(ult::Record* r) { return reinterpret_cast<WorkUnit*>(r); }

/// @p rank < 0: the caller's xstream (xstream 0 on a foreign thread).
WorkUnit* create_unit(int rank, bool pinned, bool tasklet, WorkFn fn,
                      void* arg) {
  GLTO_CHECK_MSG(initialized(), "abt::init has not been called");
  return unit(ult::create(fn, arg, rank, pinned,
                          tasklet ? ult::Unit::tasklet : ult::Unit::ult));
}

}  // namespace

void init(const Config& cfg) {
  GLTO_CHECK_MSG(!initialized(), "abt::init called twice");
  // The caller becomes the primary ULT, pinned to xstream 0.
  ult::init(kAbt, cfg.num_xstreams, cfg.shared_pool, cfg.bind_threads,
            /*pin_main=*/true);
}

void finalize() {
  GLTO_CHECK_MSG(initialized(), "abt::finalize without init");
  ult::finalize();
}

bool initialized() { return ult::running(kAbt); }

int num_xstreams() { return initialized() ? ult::num_workers() : 0; }

int self_rank() { return ult::self_rank(); }

bool in_ult() { return ult::in_ult(); }

bool maybe_work() { return ult::maybe_work(); }

WorkUnit* ult_create(WorkFn fn, void* arg) {
  return create_unit(-1, /*pinned=*/false, /*tasklet=*/false, fn, arg);
}

WorkUnit* ult_create_on(int rank, WorkFn fn, void* arg) {
  GLTO_CHECK(rank >= 0);
  return create_unit(rank, /*pinned=*/true, /*tasklet=*/false, fn, arg);
}

void ult_create_bulk(WorkFn fn, void* const* args, int n, WorkUnit** out,
                     bool spread) {
  GLTO_CHECK_MSG(initialized(), "abt::init has not been called");
  if (n <= 0) return;
  auto** rs = reinterpret_cast<ult::Record**>(out);
  for (int i = 0; i < n; ++i) {
    rs[i] = ult::alloc(fn, args[i], /*home_rank=*/-1, /*pinned=*/false);
  }
  ult::submit_bulk(rs, n,
                   spread ? sched::BulkHint::spread : sched::BulkHint::local);
}

WorkUnit* tasklet_create(WorkFn fn, void* arg) {
  return create_unit(-1, /*pinned=*/false, /*tasklet=*/true, fn, arg);
}

WorkUnit* tasklet_create_on(int rank, WorkFn fn, void* arg) {
  GLTO_CHECK(rank >= 0);
  return create_unit(rank, /*pinned=*/true, /*tasklet=*/true, fn, arg);
}

void join(WorkUnit* wu) { ult::join(rec(wu)); }

void yield() { ult::yield(); }

bool is_done(const WorkUnit* wu) { return ult::is_done(rec(wu)); }

int executed_on(const WorkUnit* wu) { return ult::executed_on(rec(wu)); }

void* self_local() { return ult::self_local(); }

void set_self_local(void* p) { ult::set_self_local(p); }

Stats stats() {
  Stats s;
  if (initialized()) {
    const ult::Counters c = ult::counters();
    s.ults_created = c.created;
    s.tasklets_created = c.tasklets;
    s.yields = c.yields;
    ult::fill_stats(s);
  }
  return s;
}

}  // namespace glto::abt
