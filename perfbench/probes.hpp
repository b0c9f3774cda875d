// Layer probes: short loops over one layer's public API, run after the
// workload in the traced run only — never inside the end-to-end numbers.
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace perfbench {

/// Runs every probe (one span each under @p parent) on the selected
/// glto-abt runtime of @p threads GLT threads and adds fctx.*, glt.*,
/// glto.*, omp.task_wave_us, taskdep.edge_ns, sync.*_ns/_us, bqp.* and
/// cg.spmv_seq_us to @p out. @p seed picks the bqp and qpserver problems.
void run_probes(std::uint64_t seed, int threads, SpanLog* spans, int parent,
                Metrics& out);

}  // namespace perfbench
