// Standalone layer probes of the traced run, timed through public
// functions only:
//   - txn: build a ConflictGraph and color it with the workload's
//     configured algorithm, on batches drawn from the workload's own
//     strategy;
//   - durability: read every WAL lane with WalReader and decode every
//     checkpoint section, over the blobs the run left in wal_storage().
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/engine.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "txn/coloring.h"
#include "txn/conflict_graph.h"
#include "txn/txn_factory.h"
#include "layer_trace.h"

namespace perfbench {

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

struct TxnProbe {
  double csr_build_ns_per_txn = 0;
  double color_ns_per_txn = 0;
};

/// Medians over `batches` batches of `batch` transactions each, drawn from
/// `config`'s strategy over `simulation`'s accounts and metric.
inline TxnProbe RunTxnProbe(const sim::core::SimConfig& config,
                            const sim::core::Simulation& simulation,
                            std::size_t batch, std::size_t batches) {
  sim::Rng build_rng(config.seed);
  sim::adversary::StrategyDeps deps{simulation.accounts(), simulation.metric(),
                                    build_rng};
  auto strategy = sim::adversary::StrategyRegistry::Global().Build(
      config.strategy, config, deps);
  sim::txn::TxnFactory factory(simulation.accounts());
  sim::Rng rng(sim::Mix64(config.seed ^ 0x7072'6f62'6554ULL));

  std::vector<double> csr_ns;
  std::vector<double> color_ns;
  std::vector<sim::txn::Transaction> txns;
  std::vector<const sim::txn::Transaction*> view;
  for (std::size_t b = 0; b < batches; ++b) {
    txns.clear();
    view.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      sim::adversary::Candidate candidate;
      SSHARD_CHECK(strategy->Next(0, rng, &candidate));
      txns.push_back(factory.Make(candidate.home, 0, candidate.accesses));
    }
    for (const auto& txn : txns) view.push_back(&txn);
    const auto start = Clock::now();
    const sim::txn::ConflictGraph graph(view);
    const auto built = Clock::now();
    const sim::txn::ColoringResult coloring =
        sim::txn::ColorGraph(graph, config.coloring);
    const auto colored = Clock::now();
    SSHARD_CHECK(sim::txn::IsProperColoring(graph, coloring.color) &&
                 "txn probe: improper coloring");
    const double n = static_cast<double>(batch);
    csr_ns.push_back(SecondsBetween(start, built) * 1e9 / n);
    color_ns.push_back(SecondsBetween(built, colored) * 1e9 / n);
  }
  return {Median(csr_ns), Median(color_ns)};
}

/// Median ns per byte over `repeats` full passes. A workload without a WAL
/// has no blobs, so the probe first writes a checkpoint of the run's final
/// ledger through WriteCheckpoint and decodes that.
inline double RunDurabilityProbe(const sim::core::Simulation& simulation,
                                 sim::Round round, std::size_t repeats) {
  namespace dur = sim::durability;
  const sim::ShardId shards = simulation.config().shards;
  dur::MemoryStorage own(shards);
  const dur::MemoryStorage* storage = simulation.wal_storage();
  if (storage == nullptr) {
    const dur::WalManager wal(shards, &own);
    dur::WriteCheckpoint(simulation.ledger(), wal, own, round);
    storage = &own;
  }
  std::uint64_t bytes = 0;
  for (const dur::Blob& lane : storage->wal) bytes += lane.size();
  for (const dur::Blob& blob : storage->checkpoints) bytes += blob.size();
  SSHARD_CHECK(bytes > 0);

  std::vector<double> ns_per_byte;
  dur::WalRecord record;
  dur::ShardImage image;
  for (std::size_t pass = 0; pass < repeats; ++pass) {
    const auto start = Clock::now();
    for (const dur::Blob& lane : storage->wal) {
      dur::WalReader reader(lane);
      auto status = reader.Next(&record);
      while (status == dur::WalReader::Status::kRecord) {
        status = reader.Next(&record);
      }
      SSHARD_CHECK(status == dur::WalReader::Status::kEndOfLog &&
                   "durability probe: WAL lane does not read cleanly");
    }
    for (const dur::Blob& blob : storage->checkpoints) {
      for (sim::ShardId shard = 0; shard < shards; ++shard) {
        SSHARD_CHECK(dur::DecodeCheckpointShard(blob, shard, &image) ==
                         dur::SectionStatus::kOk &&
                     "durability probe: checkpoint section fails to decode");
      }
    }
    ns_per_byte.push_back(SecondsBetween(start, Clock::now()) * 1e9 /
                          static_cast<double>(bytes));
  }
  return Median(ns_per_byte);
}

}  // namespace perfbench
