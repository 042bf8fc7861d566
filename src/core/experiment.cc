#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/thread_pool.h"

namespace stableshard::core {

std::vector<ExperimentRun> RunSweep(const std::vector<SimConfig>& configs,
                                    std::size_t threads) {
  std::vector<ExperimentRun> runs(configs.size());

  // Single-level parallelism policy: parallelism lives either *across*
  // configurations (outer pool, each simulation serial) or *inside* each
  // simulation (worker_threads > 1, configurations run one at a time) —
  // never both. A sweep of w-threaded simulations fanned across t outer
  // workers would spin up t live pools of w workers each (w*t threads on
  // however many cores exist), and at s = 1024 the oversubscription is what
  // dominated wall clock. Results are unaffected either way: simulations
  // are deterministic in (config, seed) and worker_threads is
  // result-invariant by the scheduler decomposition contract.
  const bool inner_parallel =
      std::any_of(configs.begin(), configs.end(),
                  [](const SimConfig& c) { return c.worker_threads > 1; });
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  // One team for the whole sweep: simulations are coarse and uneven, so
  // each part claims the next config index from a shared cursor until the
  // batch is exhausted. With inner parallelism the team is the calling
  // thread alone and the configs run in order.
  const std::size_t parts =
      inner_parallel ? 1 : std::min(threads, configs.size());
  if (parts == 0) return runs;
  ThreadPool pool(parts - 1);
  std::atomic<std::size_t> cursor{0};
  pool.Run(parts, [&](std::size_t) {
    for (std::size_t i = cursor.fetch_add(1); i < configs.size();
         i = cursor.fetch_add(1)) {
      runs[i].config = configs[i];
      Simulation simulation(configs[i]);
      runs[i].result = simulation.Run();
    }
  });
  return runs;
}

}  // namespace stableshard::core
