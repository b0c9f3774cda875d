// Ablation — GLT_SHARED_QUEUES under load imbalance (paper §IV-F): with
// per-thread pools an imbalanced task set strands work on busy threads;
// one shared queue neutralizes the imbalance by construction.
//
// Workload: tasks dispatched round-robin where every k-th task is 32×
// heavier — per-thread pools serialize the heavy tasks that land on one
// GLT_thread.
//
// Sweeps GLT_SHARED_QUEUES off/on. Under the work-stealing core the
// comparison isolates pure queue-topology imbalance: stealing already
// drains stranded backlogs, so the shared pool's edge should be small.
// JSONL rows via $GLTO_BENCH_JSON.
#include <cstdio>

#include "bench_common.hpp"

namespace o = glto::omp;
namespace b = glto::bench;

namespace {

void spin(int units) {
  volatile int x = 0;
  for (int i = 0; i < units * 1000; ++i) x = x + i;
}

double run_once(bool shared, int nth, int ntasks) {
  b::select_runtime(o::RuntimeKind::glto_abt, nth, /*active_wait=*/false,
                    256, shared);
  glto::common::Timer t;
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 0; i < ntasks; ++i) {
        const int cost = i % 8 == 0 ? 32 : 1;  // imbalanced
        o::task([cost] { spin(cost); });
      }
      o::taskwait();
    });
  });
  const double sec = t.elapsed_sec();
  o::shutdown();
  return sec;
}

}  // namespace

int main() {
  const int ntasks = static_cast<int>(400 * b::scale());
  std::printf("Ablation: GLT_SHARED_QUEUES under imbalance "
              "(%d tasks, every 8th is 32x heavier)\n",
              ntasks);
  const int reps = b::reps(5);
  b::print_header("imbalanced task set, glto-abt", "shared");
  // Sweep capped at 8 GLT_threads: the imbalance effect saturates there,
  // and the private-pool pathology under heavier oversubscription costs
  // minutes of cross-thread ping-pong without adding information.
  for (int shared = 0; shared <= 1; ++shared) {
    for (int nth_raw : b::thread_sweep()) {
      const int nth = nth_raw > 8 ? 8 : nth_raw;
      if (nth != nth_raw) continue;
      glto::common::RunStats st;
      for (int r = 0; r < reps; ++r) {
        st.add(run_once(shared != 0, nth, ntasks));
      }
      b::print_row_extra(shared != 0 ? "shared" : "private", nth, shared, st);
    }
  }
  std::printf("expected: shared ≤ private once threads > 1 (imbalance "
              "neutralized, SIV-F); stealing already rebalances private "
              "pools, so the gap is small\n");
  return 0;
}
