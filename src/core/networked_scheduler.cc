#include "core/networked_scheduler.h"

#include "common/shard_range.h"

namespace stableshard::core {

NetworkedScheduler::NetworkedScheduler(const net::ShardMetric& metric,
                                       CommitLedger& ledger)
    : ledger_(&ledger),
      network_(metric),
      outbox_(metric.shard_count()),
      ownership_(metric.shard_count()) {}

void NetworkedScheduler::SealRound(Round round, std::uint32_t parts) {
  ownership_.BeginFlushPhase();
  outbox_.Seal();
  network_.flush_cap.Acquire();  // annotation-only, no runtime effect
  ledger_->SealJournal(round, parts);
}

void NetworkedScheduler::FlushRoundPartition(Round round, std::uint32_t part,
                                             std::uint32_t parts) {
  const auto [begin, end] = FlushShardRange(shard_count(), part, parts);
  const OwnershipRegistry::RangeClaim claim(ownership_, begin, end);
  outbox_.FlushSealedTo(network_, round, begin, end);
  ledger_->ResolveSealedPartition(part);
}

void NetworkedScheduler::FinishRound(Round round) {
  ownership_.EndParallelPhase();
  outbox_.FinishSealedFlush(network_);
  ledger_->FinishSealedRound(round);
}

}  // namespace stableshard::core
