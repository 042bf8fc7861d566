// Per-shard commit write-ahead log.
//
// Each destination shard owns one append-only byte stream of framed,
// checksummed resolution records (commit with its full redo payload —
// actions + chain digest — or abort). The rest of the simulator is
// synchronous-round: a round's effects either complete on every shard or
// the round never happened, so crash points are round boundaries and the
// log always covers exactly the committed prefix. "Write-ahead" here means
// ahead of the *next* round, not ahead of the in-memory apply: records are
// staged during StepShard (shard-owned lanes, safe for concurrent distinct
// destinations) and made durable inside the round epilogue before any
// round r+1 work begins.
//
// Persistence (the mako rocksdb_persistence shape): the WAL piggybacks on
// the CommitLedger's sealed-journal window, i.e. on the round epilogue.
// Seal() swaps the staging lanes into a sealed set while the next round
// keeps staging; PersistSealedPartition(part) encodes the sealed lanes of
// the contiguous destination-shard chunk owned by `part` (FlushShardRange,
// the outbox drain's own split, so persistence overlaps the pooled outbox
// flush with the identical ownership discipline); FinishSealedRound()
// walks shards serially, advances each shard's durable sequence number and
// fires the completion callback. Per-shard sequence numbers are assigned at
// staging time — shard-owned, monotonic from 1 — so "records with
// seq <= durable_seq(shard) are on disk" is the recovery contract.
//
// Record frame: u32 payload_size, u64 fnv1a(payload), payload. Payload:
//   u8 type (1 = commit, 2 = abort), u64 seq, u64 txn, u64 round,
//   commit only: u64 payload_digest, u32 n_actions,
//                n_actions x { u64 account, u8 kind, i64 amount }.
//
// No capability annotations of its own: every entry point is called from
// inside the CommitLedger's journal_cap-framed methods, which already give
// the Seal..Finish window its static discipline.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "chain/ops.h"
#include "common/types.h"
#include "durability/encoding.h"

namespace stableshard::durability {

enum class WalRecordType : std::uint8_t { kCommit = 1, kAbort = 2 };

struct WalRecord {
  WalRecordType type = WalRecordType::kAbort;
  std::uint64_t seq = 0;  ///< per-shard, monotonic from 1
  TxnId txn = 0;
  Round round = 0;
  // Commit-only redo payload (empty/zero for aborts).
  std::uint64_t payload_digest = 0;
  std::vector<chain::Action> actions;
};

/// Append one framed record to a WAL lane.
void AppendWalRecord(Blob& wal, const WalRecord& record);

/// Sequential WAL decoder with torn-tail detection.
class WalReader {
 public:
  enum class Status {
    kRecord,     ///< *out holds the next record
    kEndOfLog,   ///< clean end, every byte consumed
    kTornTail,   ///< bytes end mid-record: a torn final write, recoverable
    kCorrupt,    ///< a *complete* frame fails its checksum or decode
  };

  explicit WalReader(const Blob& wal) : reader_(wal.data(), wal.size()) {}

  Status Next(WalRecord* out);

  /// Bytes consumed by successfully decoded records.
  std::size_t offset() const { return reader_.offset(); }

 private:
  ByteReader reader_;
};

/// In-memory durable medium: one WAL lane per shard plus the checkpoint
/// history (every checkpoint blob ever written, in round order — the WAL
/// is never truncated, so older checkpoints only save replay time).
/// Mutable access exists for the torn-write/corruption tests.
struct MemoryStorage {
  explicit MemoryStorage(ShardId shards) : wal(shards) {}

  std::vector<Blob> wal;
  std::vector<Blob> checkpoints;

  std::uint64_t wal_bytes() const {
    std::uint64_t total = 0;
    for (const Blob& lane : wal) total += lane.size();
    return total;
  }
};

/// Staging + persistence driver in front of a MemoryStorage (see the file
/// comment for the phase discipline).
class WalManager {
 public:
  /// (shard, durable_seq, round): every record of `shard` with
  /// seq <= durable_seq is now durable. Fired serially, in shard order,
  /// from FinishSealedRound — only for shards that persisted this round.
  using DurableCallback =
      std::function<void(ShardId, std::uint64_t, Round)>;

  WalManager(ShardId shards, MemoryStorage* storage);

  /// Shard-owned staging (callable concurrently for distinct `dest`).
  void StageCommit(ShardId dest, TxnId txn, Round round,
                   std::uint64_t payload_digest,
                   const std::vector<chain::Action>& actions);
  void StageAbort(ShardId dest, TxnId txn, Round round);

  /// Serial: swap staging lanes into the sealed set for `round`.
  void Seal(Round round, std::uint32_t parts);
  /// Parallel-safe for distinct `part`: encode the sealed lanes of the
  /// destination chunk [begin, end) owned by `part` into storage.
  void PersistSealedPartition(std::uint32_t part);
  /// Serial epilogue: advance durable sequence numbers in shard order,
  /// fire callbacks, retire the sealed lanes.
  void FinishSealedRound();

  void set_on_durable(DurableCallback callback) {
    on_durable_ = std::move(callback);
  }

  ShardId shard_count() const {
    return static_cast<ShardId>(staging_.size());
  }
  /// Highest sequence number of `shard` known durable (0 = none yet).
  std::uint64_t durable_seq(ShardId shard) const {
    return durable_seq_[shard];
  }
  std::uint64_t records_persisted() const;
  std::uint64_t total_bytes() const { return storage_->wal_bytes(); }

 private:
  MemoryStorage* storage_;
  std::vector<std::vector<WalRecord>> staging_;  // per destination shard
  std::vector<std::vector<WalRecord>> sealed_;
  std::vector<std::uint64_t> next_seq_;     // advanced at staging time
  std::vector<std::uint64_t> durable_seq_;  // advanced at finish time
  /// Per-shard persisted-record counters (summed serially on read): the
  /// persist partitions may not share one accumulator.
  std::vector<std::uint64_t> records_by_shard_;
  Round sealed_round_ = kNoRound;
  std::uint32_t sealed_parts_ = 0;
  DurableCallback on_durable_;
};

}  // namespace stableshard::durability
