// GLTO — the OpenMP runtime over GLT (the paper's core contribution, §IV).
//
// Design decisions mirrored from the paper:
//  * One GLT_thread per requested OpenMP thread, created at init and bound
//    to cores (§IV-B). Teams never create OS threads.
//  * Work-sharing regions (§IV-C): the master creates one GLT_ult per
//    non-master team member, dispatched to GLT_thread i, runs member 0's
//    share inline, then waits for the members — mimicking the Intel/GNU
//    fork-join shape. Member and task ULTs are detached (nobody holds
//    their handles): each counts itself down a latch in the team or in
//    its creator's task context.
//  * Tasks (§IV-D): every `task` becomes a GLT_ult. When the creating
//    context sits inside a single/master region (the producer pattern),
//    tasks are dispatched **round-robin** across all GLT_threads;
//    otherwise each GLT_thread keeps its own tasks.
//  * Nested parallelism (§IV-E): inner teams create their ULTs on the
//    *current* GLT_thread — never new OS threads — so nesting cannot
//    oversubscribe cores.
//  * Load imbalance (§IV-F): GLT_SHARED_QUEUES collapses the per-thread
//    pools into one shared queue (abt backend).
//  * MassiveThreads (§IV-G): the main/master context must stay the primary
//    GLT_thread, so the mth backend is initialized with pin_main and the
//    master never yields across a steal boundary.
//
//  * Task dependences (`depend` clauses) run through the taskdep engine
//    (src/taskdep): a task with unmet predecessors defers ULT creation
//    until its release counter hits zero; the completing predecessor's
//    thread then spawns it onto its own work-stealing deque.
//
// Deviation noted for reviewers: a task implicitly waits for its child
// tasks when it finishes (transitive wait). OpenMP lets children outlive
// parents until the next barrier; the transitive wait gives the same
// region-barrier guarantee while every child counts down a latch in its
// creator's stack-resident context, and does not change any pattern the
// paper measures. taskgroup is group-scoped: it
// waits only for tasks created inside the group (plus their descendants,
// transitively) — never for siblings created before it, even inside a
// depend task.
#pragma once

#include <memory>

#include "glt/glt.hpp"
#include "omp/runtime.hpp"

namespace glto::rt {

struct GltoOptions {
  glt::Impl impl = glt::Impl::abt;
  int num_threads = 0;         ///< GLT_threads; 0 → $OMP_NUM_THREADS / cores
  bool nested = true;
  bool bind_threads = true;
  bool shared_queues = false;  ///< GLT_SHARED_QUEUES
};

/// Creates a GLTO runtime. Initializes GLT (and the chosen backend); the
/// returned runtime owns that initialization and tears it down on destroy.
std::unique_ptr<omp::Runtime> make_glto_runtime(const GltoOptions& opts);

}  // namespace glto::rt
