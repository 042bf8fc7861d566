// Shard-parallel round loop tests: worker_threads = N must be bit-identical
// to worker_threads = 1 for every scheduler (the decomposition contract of
// core/scheduler.h), the pipelined epilogue (destination-partitioned flush
// + double-buffered outbox/journal + overlapped adversary generation) must
// be bit-identical to the one-partition EndRound, and parallel runs must
// satisfy the same drained-run invariants as serial ones. The fan-out
// itself is pinned down with a probe scheduler: every shard is stepped once
// per round, the driving thread steps range 0, and each shard range is
// stepped and flushed by one fixed team thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/shard_range.h"
#include "core/engine.h"
#include "core/scheduler_registry.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::SimResult;
using core::Simulation;
using test::ExpectBitIdenticalResults;
using test::ExpectDrainedRunInvariants;
using test::RunWithWorkers;
using test::SmallConfig;

/// Run with an explicit pipelined-epilogue switch (RunWithWorkers leaves
/// the default, which is pipelined).
SimResult RunPipelined(SimConfig config, std::uint32_t workers,
                       bool pipeline) {
  config.worker_threads = workers;
  config.pipeline = pipeline;
  // Force the pool on: the test grids sit below the small-grid threshold,
  // and a silently serialized run would not exercise the pipeline at all.
  config.min_shards_per_worker = 1;
  Simulation sim(config);
  return sim.Run();
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ParallelDeterminism, MatchesSerialExecution) {
  const auto& [scheduler, seed] = GetParam();
  SimConfig config = SmallConfig(scheduler);
  config.seed = seed;
  config.rounds = 800;
  config.drain_cap = 60000;
  const SimResult serial = RunWithWorkers(config, 1);
  // Odd counts split the 16 shards unevenly (6+6+4, and 4+4+4+4 with an
  // empty fifth range).
  for (const std::uint32_t workers : {3u, 4u, 5u}) {
    SCOPED_TRACE(workers);
    ExpectBitIdenticalResults(serial, RunWithWorkers(config, workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDeterminism,
    ::testing::Combine(::testing::Values(std::string("bds"),
                                         std::string("fds"),
                                         std::string("direct")),
                       ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
           info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Pipelined-vs-serial bit-identity across the scheduler x strategy matrix:
// for every combination, workers = 1 (serial epilogue, no pool), workers =
// 4 with the pipelined epilogue and workers = 4 with it forced off must
// produce the same SimResult down to the last float bit.
class PipelinedMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(PipelinedMatrix, PipelinedAndSerialEpiloguesAgree) {
  const auto& [scheduler, strategy] = GetParam();
  SimConfig config = SmallConfig(scheduler);
  config.strategy = strategy;
  config.rounds = 300;
  config.drain_cap = 20000;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult pipelined = RunPipelined(config, 4, /*pipeline=*/true);
  const SimResult unpipelined = RunPipelined(config, 4, /*pipeline=*/false);
  ExpectBitIdenticalResults(serial, pipelined);
  ExpectBitIdenticalResults(serial, unpipelined);
  EXPECT_GT(serial.injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerStrategy, PipelinedMatrix,
    ::testing::Combine(
        ::testing::Values(std::string("bds"), std::string("fds"),
                          std::string("direct")),
        ::testing::Values(std::string("uniform_random"),
                          std::string("hotspot"),
                          std::string("hot_destination"),
                          std::string("pairwise_conflict"))),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

/// Scheduler that does no protocol work and records which thread stepped
/// each shard and flushed each partition, round by round. Each shard (and
/// each partition) has its own record vector, written only by the thread
/// that owns it in that phase.
class FanOutProbe final : public core::Scheduler {
 public:
  struct Visit {
    Round round;
    std::thread::id thread;
  };

  explicit FanOutProbe(ShardId shards) : steps_(shards), flushes_(shards) {}

  void Inject(const txn::Transaction&) override {}
  void BeginRound(Round) override {}
  void StepShard(ShardId shard, Round round) override {
    steps_[shard].push_back({round, std::this_thread::get_id()});
  }
  void SealRound(Round, std::uint32_t) override {}
  void FlushRoundPartition(Round round, std::uint32_t part,
                           std::uint32_t) override {
    flushes_[part].push_back({round, std::this_thread::get_id()});
  }
  void FinishRound(Round) override {}
  ShardId shard_count() const override {
    return static_cast<ShardId>(steps_.size());
  }
  bool Idle() const override { return true; }
  std::uint64_t MessagesSent() const override { return 0; }
  std::uint64_t PayloadUnits() const override { return 0; }
  const char* name() const override { return "fanout_probe"; }

  const std::vector<Visit>& steps(ShardId shard) const {
    return steps_[shard];
  }
  const std::vector<Visit>& flushes(std::uint32_t part) const {
    return flushes_[part];
  }

 private:
  std::vector<std::vector<Visit>> steps_;
  std::vector<std::vector<Visit>> flushes_;
};

const core::SchedulerRegistrar kFanOutProbe{
    "fanout_probe",
    [](const SimConfig& config, core::SchedulerDeps&) {
      return std::make_unique<FanOutProbe>(config.shards);
    }};

class FanOutCoverage
    : public ::testing::TestWithParam<std::tuple<ShardId, std::uint32_t>> {};

TEST_P(FanOutCoverage, EachRangeRunsOncePerRoundOnOneFixedThread) {
  const auto& [shards, workers] = GetParam();
  SimConfig config = SmallConfig("fanout_probe");
  config.shards = shards;
  config.accounts = shards;
  config.rounds = 12;
  config.drain_cap = 0;
  config.worker_threads = workers;
  config.min_shards_per_worker = 1;
  Simulation sim(config);
  // More workers than shards: the pool guard keeps the run serial.
  const std::uint32_t parts = workers <= shards ? workers : 1;
  ASSERT_EQ(sim.effective_workers(), parts);
  sim.Run();
  const auto& probe = dynamic_cast<const FanOutProbe&>(sim.scheduler());

  std::vector<std::thread::id> range_thread(parts);
  for (std::uint32_t part = 0; part < parts; ++part) {
    const auto [begin, end] = FlushShardRange(shards, part, parts);
    for (ShardId shard = begin; shard < end; ++shard) {
      const std::vector<FanOutProbe::Visit>& visits = probe.steps(shard);
      ASSERT_EQ(visits.size(), config.rounds) << "shard " << shard;
      for (Round round = 0; round < config.rounds; ++round) {
        EXPECT_EQ(visits[round].round, round) << "shard " << shard;
        if (shard == begin && round == 0) {
          range_thread[part] = visits[round].thread;
        }
        EXPECT_EQ(visits[round].thread, range_thread[part])
            << "shard " << shard << " round " << round;
      }
    }
    // The flush partition that deposits into this range's rings runs on
    // the thread that drains them in the next step.
    const std::vector<FanOutProbe::Visit>& flushes = probe.flushes(part);
    ASSERT_EQ(flushes.size(), config.rounds) << "part " << part;
    for (Round round = 0; round < config.rounds; ++round) {
      EXPECT_EQ(flushes[round].round, round);
      if (begin < end) {
        EXPECT_EQ(flushes[round].thread, range_thread[part])
            << "part " << part << " round " << round;
      }
    }
  }
  EXPECT_EQ(range_thread[0], std::this_thread::get_id());
  // Non-empty ranges run on distinct team threads.
  std::vector<std::thread::id> used;
  for (std::uint32_t part = 0; part < parts; ++part) {
    const auto [begin, end] = FlushShardRange(shards, part, parts);
    if (begin < end) used.push_back(range_thread[part]);
  }
  std::sort(used.begin(), used.end());
  EXPECT_EQ(std::adjacent_find(used.begin(), used.end()), used.end());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FanOutCoverage,
    ::testing::Combine(::testing::Values(ShardId{7}, ShardId{13},
                                         ShardId{64}),
                       ::testing::Values(2u, 3u, 5u)));
INSTANTIATE_TEST_SUITE_P(
    MoreWorkersThanShards, FanOutCoverage,
    ::testing::Values(std::make_tuple(ShardId{7}, 8u),
                      std::make_tuple(ShardId{4}, 5u)));

TEST(ParallelEngine, PipelinedBurstAndDrainIdentical) {
  // A loaded burst followed by a long drain exercises both epilogue
  // regimes: heavy flush rounds (overlapped generation still running) and
  // drain rounds (no generation to overlap at all). Invariants must hold
  // and the pipeline must not perturb a bit.
  SimConfig config = SmallConfig("fds");
  config.rho = 0.02;
  config.burstiness = 400;
  config.rounds = 120;
  config.drain_cap = 60000;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult pipelined = RunPipelined(config, 8, /*pipeline=*/true);
  ExpectBitIdenticalResults(serial, pipelined);

  config.worker_threads = 8;
  config.min_shards_per_worker = 1;
  Simulation sim(config);
  const SimResult result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/false);
}

TEST(ParallelEngine, PipelinedHandoffHammer) {
  // TSan target: maximize contention on the double-buffered handoff — an
  // oversubscribed pool (8 workers, 1..few cores, 8 shards) so flush
  // partitions, the StepShard fan-out of the next round and the overlapped
  // generation interleave as wildly as the OS allows, across many rounds
  // and a hot workload that keeps every lane and journal busy.
  for (const std::uint64_t seed : {11ull, 12ull}) {
    SimConfig config = SmallConfig("fds");
    config.shards = 8;
    config.accounts = 8;
    config.rho = 0.4;
    config.burstiness = 200;
    config.rounds = 400;
    config.drain_cap = 20000;
    config.seed = seed;
    const SimResult serial = RunWithWorkers(config, 1);
    const SimResult hammered = RunPipelined(config, 8, /*pipeline=*/true);
    ExpectBitIdenticalResults(serial, hammered);
  }
}

TEST(ParallelEngine, DrainedInvariantsHoldUnderThreads) {
  for (const char* scheduler : {"bds", "fds"}) {
    SimConfig config = SmallConfig(scheduler);
    config.worker_threads = 4;
    config.min_shards_per_worker = 1;
    config.rounds = 800;
    Simulation sim(config);
    const auto result = sim.Run();
    EXPECT_GT(result.injected, 0u);
    ExpectDrainedRunInvariants(sim, result,
                               /*same_round_atomicity=*/scheduler ==
                                   std::string("bds"));
  }
}

TEST(ParallelEngine, PinnedModeIdenticalUnderThreads) {
  // The pinned commit mode exercises the retract handshake; it must be
  // thread-count-invariant too.
  SimConfig config = SmallConfig("fds");
  config.fds_pipelined = false;
  config.rounds = 600;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 3);
  ExpectBitIdenticalResults(serial, parallel);
}

TEST(ParallelEngine, LargeScaleLineDeterministicAt1024Shards) {
  // The ROADMAP s = 1024 acceptance: a 1024-shard line simulation must be
  // bit-identical between worker_threads = 1 and 8, and the lazy network
  // ring must have allocated nothing at construction (the former dense
  // table held (Diameter + 2) * s ~ 1M buckets here). Kept cheap for TSan:
  // few rounds, a radius-bounded workload that drains quickly.
  SimConfig config;
  config.scheduler = "direct";
  config.topology = net::TopologyKind::kLine;
  config.shards = 1024;
  config.accounts = 1024;
  config.k = 4;
  config.strategy = "local";
  config.local_radius = 8;
  config.rho = 0.05;
  config.burstiness = 200;
  config.rounds = 40;
  config.drain_cap = 20000;
  config.seed = 5;

  {
    Simulation probe(config);
    const net::RingMemory idle = probe.scheduler().NetworkMemory();
    EXPECT_EQ(idle.allocated_buckets, 0u);
    EXPECT_EQ(idle.dense_bucket_equivalent, (1023u + 2u) * 1024u);
  }

  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 8);
  EXPECT_GT(serial.injected, 0u);
  EXPECT_TRUE(serial.drained);
  ExpectBitIdenticalResults(serial, parallel);
}

TEST(ParallelEngine, OversubscribedPoolStillIdentical) {
  // More workers than shards (and than cores): scheduling order varies
  // wildly, results must not.
  SimConfig config = SmallConfig("bds");
  config.shards = 4;
  config.accounts = 4;
  config.rounds = 500;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 8);
  ExpectBitIdenticalResults(serial, parallel);
}

}  // namespace
}  // namespace stableshard
