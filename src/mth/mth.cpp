#include "mth/mth.hpp"

#include "common/debug.hpp"
#include "sched/ult_engine.hpp"

namespace glto::mth {

namespace {

namespace ult = sched::ult;

/// Work-first: create() switches to the child, leave() hands off
/// strand-to-strand, and yields stay stealable — everything mth schedules
/// can be stolen.
constexpr ult::Personality kMth{"mth", /*work_first=*/true};

ult::Record* rec(Strand* s) { return reinterpret_cast<ult::Record*>(s); }
const ult::Record* rec(const Strand* s) {
  return reinterpret_cast<const ult::Record*>(s);
}

}  // namespace

void init(const Config& cfg) {
  GLTO_CHECK_MSG(!initialized(), "mth::init called twice");
  // The caller becomes the main strand; §IV-G pin_main keeps it on worker 0.
  ult::init(kMth, cfg.num_workers, cfg.shared_pool, cfg.bind_threads,
            cfg.pin_main);
}

void finalize() {
  GLTO_CHECK_MSG(initialized(), "mth::finalize without init");
  ult::finalize();
}

bool initialized() { return ult::running(kMth); }

int num_workers() { return initialized() ? ult::num_workers() : 0; }

int worker_rank() { return ult::self_rank(); }

bool in_strand() { return ult::in_ult(); }

bool maybe_work() { return ult::maybe_work(); }

Strand* create(WorkFn fn, void* arg) {
  GLTO_CHECK_MSG(initialized(), "mth::init has not been called");
  return reinterpret_cast<Strand*>(ult::spawn(fn, arg));
}

void create_bulk(WorkFn fn, void* const* args, int n, Strand** out) {
  GLTO_CHECK_MSG(initialized(), "mth::init has not been called");
  GLTO_CHECK_MSG(in_strand(), "mth::create_bulk outside a strand");
  if (n <= 0) return;
  auto** rs = reinterpret_cast<ult::Record**>(out);
  for (int i = 0; i < n; ++i) {
    rs[i] = ult::alloc(fn, args[i], /*home_rank=*/0, /*pinned=*/false);
  }
  ult::submit_bulk(rs, n, sched::BulkHint::local);
}

void join(Strand* s) { ult::join(rec(s)); }

void yield() { ult::yield(); }

bool is_done(const Strand* s) { return ult::is_done(rec(s)); }

int executed_on(const Strand* s) { return ult::executed_on(rec(s)); }

void* self_local() { return ult::self_local(); }

void set_self_local(void* p) { ult::set_self_local(p); }

Stats stats() {
  Stats s;
  if (initialized()) {
    const ult::Counters c = ult::counters();
    s.strands_created = c.created;
    s.main_migrations = c.main_migrations;
    ult::fill_stats(s);
  }
  return s;
}

}  // namespace glto::mth
