// Integration tests for the Direct baseline scheduler: liveness and
// serializability via the id-ordered queues, across topologies.
#include <gtest/gtest.h>

#include "chain/account_map.h"
#include "core/commit_ledger.h"
#include "core/direct.h"
#include "net/metric.h"
#include "sim_test_util.h"
#include "txn/txn_factory.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::Simulation;
using test::ExpectDrainedRunInvariants;
using test::SmallConfig;

TEST(Direct, DrainsOnLine) {
  SimConfig config = SmallConfig("direct");
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/false);
}

TEST(Direct, DrainsOnUniform) {
  SimConfig config = SmallConfig("direct");
  config.topology = net::TopologyKind::kUniform;
  Simulation sim(config);
  const auto result = sim.Run();
  ExpectDrainedRunInvariants(sim, result, false);
}

TEST(Direct, HandlesAborts) {
  SimConfig config = SmallConfig("direct");
  config.abort_probability = 0.5;
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.aborted, 0u);
  ExpectDrainedRunInvariants(sim, result, false);
}

TEST(Direct, HotspotFullySerializes) {
  SimConfig config = SmallConfig("direct");
  config.strategy = "hotspot";
  config.burstiness = 10;
  Simulation sim(config);
  const auto result = sim.Run();
  ExpectDrainedRunInvariants(sim, result, false);
  // Hotspot transactions all conflict: the hotspot shard's chain carries
  // every committed transaction.
  const auto& chains = sim.ledger().chains();
  std::size_t hotspot_blocks = 0;
  for (const auto& chain : chains) {
    hotspot_blocks = std::max(hotspot_blocks, chain.size());
  }
  EXPECT_EQ(hotspot_blocks, result.committed);
}

TEST(Direct, WideTransactionsStillLive) {
  SimConfig config = SmallConfig("direct");
  config.k = 8;
  config.burstiness = 40;
  config.drain_cap = 200000;
  Simulation sim(config);
  const auto result = sim.Run();
  ExpectDrainedRunInvariants(sim, result, false);
}

TEST(Direct, IdleUntilInjectionsShipAndDrain) {
  // Inject counts a transaction as waiting; BeginRound clears the count
  // because the StepShard fan-out that follows ships it. Idle() must read
  // false from Inject until the transaction resolves, then true.
  constexpr ShardId kShards = 4;
  const net::LineMetric metric(kShards);
  const chain::AccountMap map = chain::AccountMap::RoundRobin(kShards, 8);
  core::CommitLedger ledger(map, /*initial_balance=*/1000);
  core::DirectScheduler scheduler(metric, ledger);
  txn::TxnFactory factory(map);
  EXPECT_TRUE(scheduler.Idle());

  const auto txn = factory.MakeTouch(/*home=*/1, /*injected=*/0, {0, 3});
  ledger.RegisterInjection(txn);
  scheduler.Inject(txn);
  EXPECT_FALSE(scheduler.Idle());

  Round round = 0;
  scheduler.Step(round++);
  EXPECT_FALSE(scheduler.Idle());  // shipped, subtransactions in flight
  while (!scheduler.Idle() && round < 64) scheduler.Step(round++);
  EXPECT_TRUE(scheduler.Idle());
  EXPECT_TRUE(ledger.IsResolved(txn.id()));
  EXPECT_EQ(ledger.committed_txns(), 1u);
}

}  // namespace
}  // namespace stableshard
