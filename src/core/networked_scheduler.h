// Shared transport and round epilogue of the message-passing schedulers.
//
// BDS, FDS and Direct all exchange core::Message over one net::Network,
// queue sends on one net::OutboxSet lane per shard during StepShard, and
// commit through the CommitLedger's deferred journal. So they share one
// round epilogue too, and this class is its only copy:
//
//   SealRound           swap the outbox lanes and the ledger journal (and
//                       the attached WAL's staging lanes) into their sealed
//                       buffers;
//   FlushRoundPartition deposit the sealed sends addressed to the
//                       partition's FlushShardRange and resolve the
//                       journal entries (and persist the WAL lanes) the
//                       partition owns;
//   FinishRound         fold the network counters, ledger counters and
//                       latency serially and retire the sealed buffers.
//
// The three overrides are final: a scheduler customises its round in
// BeginRound / StepShard, never in the epilogue. Scheduler::EndRound runs
// the same three with one partition.
//
// The members the epilogue touches are protected so the concrete
// schedulers' StepShard bodies can send, deliver and guard ownership
// through them.
#pragma once

#include <cstdint>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/messages.h"
#include "core/ownership.h"
#include "core/scheduler.h"
#include "net/metric.h"
#include "net/network.h"
#include "net/outbox.h"

namespace stableshard::core {

class NetworkedScheduler : public Scheduler {
 public:
  // The phase capabilities frame the epilogue on clang (-Wthread-safety):
  // SealRound acquires the outbox, network and ledger windows,
  // FlushRoundPartition requires them, FinishRound releases them.
  void SealRound(Round round, std::uint32_t parts) final
      SSHARD_ACQUIRE(outbox_.sealed_cap, network_.flush_cap,
                     ledger_->journal_cap);
  void FlushRoundPartition(Round round, std::uint32_t part,
                           std::uint32_t parts) final
      SSHARD_REQUIRES(outbox_.sealed_cap, network_.flush_cap,
                      ledger_->journal_cap);
  void FinishRound(Round round) final
      SSHARD_RELEASE(outbox_.sealed_cap, network_.flush_cap,
                     ledger_->journal_cap);

  ShardId shard_count() const final {
    return network_.metric().shard_count();
  }
  std::uint64_t MessagesSent() const final {
    return network_.stats().messages_sent;
  }
  std::uint64_t PayloadUnits() const final {
    return network_.stats().payload_units;
  }
  net::RingMemory NetworkMemory() const final {
    return network_.ring_memory();
  }
  net::LaneMemory OutboxMemory() const final {
    return outbox_.lane_memory();
  }
  net::ShardTraffic ShardTrafficFor(ShardId shard) const final {
    return network_.shard_traffic(shard);
  }
  /// Undelivered messages addressed to `shard`; FDS adds its leaders'
  /// scheduling backlog.
  std::uint64_t QueueDepth(ShardId shard) const override {
    return network_.pending_for(shard);
  }

  const net::Network<Message>& network() const { return network_; }

 protected:
  NetworkedScheduler(const net::ShardMetric& metric, CommitLedger& ledger);

  CommitLedger* ledger_;
  net::Network<Message> network_;
  net::OutboxSet<Message> outbox_;
  /// Debug-build shard-ownership checker (see core/ownership.h): StepShard
  /// claims its shard, FlushRoundPartition its destination range, and the
  /// shard-owned helpers guard with SSHARD_OWNED. Empty in Release.
  OwnershipRegistry ownership_;
};

}  // namespace stableshard::core
