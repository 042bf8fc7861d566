// The benchmark's named workloads: each is one SimConfig built from the
// workload seed. README.md records why each was chosen and which layer
// metrics it is expected to move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "net/topology_factory.h"

namespace perfbench {

namespace sim = stableshard;

inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "bds_uniform_closed", "fds_line_closed", "bp_line_open_churn"};
  return names;
}

/// Settings every workload shares: one account per shard, placed
/// round-robin so the seed changes the transactions and not the layout,
/// and a drain cap far above any drain these configs need, so every run
/// ends drained and the accounting identity binds.
inline sim::core::SimConfig BaseConfig(std::uint64_t seed,
                                       sim::ShardId shards) {
  sim::core::SimConfig config;
  config.shards = shards;
  config.accounts = shards;
  config.account_assignment = sim::core::AccountAssignment::kRoundRobin;
  config.k = 8;
  config.seed = seed;
  config.drain_cap = 200000;
  return config;
}

/// Returns false for an unknown name. `smoke` shrinks every workload to a
/// sub-second config with the same shape (same layers, gates and metrics).
inline bool MakeWorkload(const std::string& name, std::uint64_t seed,
                         bool smoke, sim::core::SimConfig* out) {
  using sim::core::SimConfig;
  if (name == "bds_uniform_closed") {
    SimConfig config = BaseConfig(seed, smoke ? 64 : 1024);
    config.scheduler = "bds";
    config.topology = sim::net::TopologyKind::kUniform;
    config.strategy = "uniform_random";
    config.rho = 0.15;
    config.burstiness = smoke ? 300 : 3000;
    config.burst_round = 0;
    config.rounds = smoke ? 100 : 400;
    // Two workers, not nproc: with four, the pool and the driving thread,
    // which generates the next round during the flush, are five busy
    // threads on the reference host's 4 vCPUs, and each round's barrier
    // waits on whichever of them the host stalls.
    config.worker_threads = 2;
    // The smoke grid is below the default pool threshold; force the pool
    // so the smoke run still takes the pipelined epilogue.
    if (smoke) config.min_shards_per_worker = 1;
    *out = config;
    return true;
  }
  if (name == "fds_line_closed") {
    SimConfig config = BaseConfig(seed, smoke ? 64 : 1024);
    config.scheduler = "fds";
    config.topology = sim::net::TopologyKind::kLine;
    config.hierarchy = sim::core::HierarchyKind::kLineShifted;
    config.strategy = "local";
    config.local_radius = 8;
    config.rho = 0.15;
    config.burstiness = smoke ? 300 : 3000;
    config.burst_round = 0;
    config.rounds = smoke ? 100 : 400;
    config.worker_threads = 2;
    // The smoke grid is below the default pool threshold; force the pool
    // so the smoke run still takes the pipelined epilogue.
    if (smoke) config.min_shards_per_worker = 1;
    *out = config;
    return true;
  }
  if (name == "bp_line_open_churn") {
    SimConfig config = BaseConfig(seed, smoke ? 32 : 256);
    config.scheduler = "backpressure";
    config.topology = sim::net::TopologyKind::kLine;
    config.hierarchy = sim::core::HierarchyKind::kLineShifted;
    config.strategy = "hot_destination";
    config.zipf_theta = 0.8;
    config.rounds = smoke ? 240 : 1000;
    config.arrival_rate = 4.0;
    config.arrival_burst = smoke ? 60 : 400;
    config.burst_round = config.rounds / 2;
    config.wal = true;
    config.checkpoint_interval = 100;
    // Crash rounds sit off the checkpoint cadence (a crash right after a
    // checkpoint replays no WAL bytes) and late enough that the crashed
    // shards, the two hottest destinations, have commits to replay: FDS
    // latency here is over a thousand rounds.
    config.faults = smoke ? "0@130+4,1@170+6" : "0@730+8,1@930+12";
    config.worker_threads = 1;
    *out = config;
    return true;
  }
  return false;
}

}  // namespace perfbench
