// Commit bookkeeping shared by all schedulers.
//
// The CommitLedger owns the per-shard account stores and local blockchains,
// evaluates subtransaction votes, applies confirmed commits, tracks
// per-transaction resolution (a transaction resolves when its last
// subtransaction commits or aborts everywhere), and enforces the model's
// safety invariants at runtime:
//   * unit shard capacity  — at most one subtransaction commit per shard
//     per round (Section 3: "exactly one subtransaction can be processed in
//     each shard" per round);
//   * vote consistency     — a commit is only applied if the condition and
//     validity checks still hold (the schedulers' pin discipline guarantees
//     they do; a violation aborts the simulation).
//
// A confirm is applied in two halves. ApplyConfirmDeferred, called from
// StepShard, performs the shard-local half (store writes, chain append,
// WAL staging — safe for concurrent calls on distinct destinations) and
// journals the resolution event. The global half (resolution records,
// counters, latency) runs in the round epilogue, which is the scheduler's
// Seal -> FlushPartition -> Finish triple (core/scheduler.h):
//
//   SealJournal(round, parts)      serial — swap the double-buffered
//                                  journal, so the next round's StepShard
//                                  may keep journaling while the sealed
//                                  copy drains;
//   ResolveSealedPartition(part)   parallel-safe for distinct parts —
//                                  apply the remaining-count decrements;
//   FinishSealedRound(round)       serial — fold counters and latency.
//
// With parts = 1 this is the serial drain of the per-shard journals in
// shard order; the partition count never changes a result. The parallel
// stage is partitioned by *transaction id* (txn % parts), NOT by
// destination: one transaction's subtransactions resolve on several
// destination shards, so a destination-partitioned drain would race on
// the shared TxnRecord. With id-residue ownership each record is touched
// by exactly one worker, in the journal-order subsequence, and every
// completion is tagged with its global journal index so FinishSealedRound
// can replay the latency recorder in the one-partition order — float
// accumulation is order-sensitive, and the workers-1-vs-N bit-identity
// contract covers the latency means. The per-destination sealed journals
// themselves are only read concurrently.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "chain/account_map.h"
#include "chain/account_store.h"
#include "chain/local_chain.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "durability/wal.h"
#include "stats/latency_recorder.h"
#include "txn/transaction.h"

namespace stableshard::core {

class CommitLedger {
 public:
  /// Annotation-only capability for the sealed-journal window: SealJournal
  /// acquires it, ResolveSealedPartition requires it, FinishSealedRound
  /// releases it, and the between-rounds mutations (RegisterInjection,
  /// ResetShardForRecovery) exclude it — so on clang, mutating the ledger
  /// inside a Seal..Finish window fails compilation (the class comment's
  /// "no other ledger mutation may overlap" contract). Public so
  /// schedulers' annotations can name it; no runtime state.
  common::PhaseCapability journal_cap;

  CommitLedger(const chain::AccountMap& map, chain::Balance initial_balance);

  /// Attach a write-ahead log: every ApplyConfirmDeferred stages a durable
  /// record for its destination shard, sealed and persisted alongside the
  /// journal (SealJournal drives wal->Seal, ResolveSealedPartition the
  /// partitioned persist, FinishSealedRound the durable-seq advance). The
  /// manager must cover the same shard count and outlive the ledger.
  /// Optional — without it the ledger behaves exactly as before, bit for
  /// bit.
  void AttachWal(durability::WalManager* wal);

  /// Register a newly injected transaction (latency clock starts; expected
  /// subtransaction count recorded).
  void RegisterInjection(const txn::Transaction& txn)
      SSHARD_EXCLUDES(journal_cap);

  /// Vote decision for a subtransaction on its destination shard's current
  /// state: all conditions hold and all actions are valid.
  bool EvaluateSub(const txn::SubTransaction& sub) const;

  /// Apply the coordinator's decision for one subtransaction at `round`,
  /// shard-local half: on commit, enforces unit shard capacity, re-checks
  /// EvaluateSub (scheduler pin bug otherwise), applies the actions and
  /// appends a block to the destination's local chain; either way it
  /// journals the resolution event. Safe to call concurrently for distinct
  /// destination shards. The transaction's resolution record, the counters
  /// and latency update when the round's journal drains (the sealed
  /// triple below); IsResolved reads false until then.
  void ApplyConfirmDeferred(TxnId txn, const txn::SubTransaction& sub,
                            bool commit, Round round);

  /// Serial: swap the active journal with the (drained) sealed one and set
  /// up `parts` completion buffers for the partitioned resolution. The next
  /// round's ApplyConfirmDeferred calls land in fresh journals while pool
  /// workers drain the sealed copy. `round` tags the attached WAL's sealed
  /// window (the journal itself never needed it — the WAL's durable
  /// callbacks do).
  void SealJournal(Round round, std::uint32_t parts)
      SSHARD_ACQUIRE(journal_cap);

  /// Parallel-safe: apply the sealed journal entries owned by `part`
  /// (txn % parts == part, walking destinations in shard order) — record
  /// decrements only; completions are buffered with their global journal
  /// index. Each TxnRecord is touched by exactly one partition. No other
  /// ledger mutation (RegisterInjection included) may overlap the
  /// Seal..Finish window.
  void ResolveSealedPartition(std::uint32_t part)
      SSHARD_REQUIRES(journal_cap);

  /// Serial epilogue: merge the partitions' completion buffers back into
  /// global journal order and apply counters + latency, then retire the
  /// sealed journals.
  void FinishSealedRound(Round round) SSHARD_RELEASE(journal_cap);

  bool IsResolved(TxnId txn) const;

  /// Transactions injected but not yet fully resolved.
  std::uint64_t pending() const { return registered_ - resolved_; }
  std::uint64_t registered() const { return registered_; }
  std::uint64_t resolved() const { return resolved_; }
  std::uint64_t committed_txns() const { return committed_txns_; }
  std::uint64_t aborted_txns() const { return aborted_txns_; }

  const stats::LatencyRecorder& latency() const { return latency_; }
  const std::vector<chain::LocalChain>& chains() const { return chains_; }
  const chain::AccountStore& store(ShardId shard) const {
    return stores_[shard];
  }
  chain::AccountStore& mutable_store(ShardId shard) { return stores_[shard]; }
  const chain::AccountMap& account_map() const { return *map_; }
  chain::Balance initial_balance() const { return initial_balance_; }

  // Recovery surface (durability/recovery.cc; serial, between rounds).

  /// Unit-capacity marker for `shard` (kNoRound = no commit yet).
  Round last_commit_round(ShardId shard) const {
    return last_commit_round_[shard];
  }
  chain::LocalChain& mutable_chain(ShardId shard) { return chains_[shard]; }
  /// Reinstate the unit-capacity marker while rebuilding a shard.
  void RestoreLastCommitRound(ShardId shard, Round round) {
    last_commit_round_[shard] = round;
  }
  /// Model a shard losing its volatile state: fresh store (initial
  /// balances), empty chain, cleared capacity marker. Resolution records
  /// and counters are global (coordinator-side) state and survive — the
  /// crash model fails a shard's *storage*, not the protocol bookkeeping
  /// the rest of the system already observed.
  void ResetShardForRecovery(ShardId shard) SSHARD_EXCLUDES(journal_cap);

 private:
  struct TxnRecord {
    Round injected = 0;
    std::uint32_t remaining = 0;  ///< unresolved subtransactions
    bool any_abort = false;
  };

  struct JournalEntry {
    TxnId txn = kInvalidTxn;
    bool commit = false;
  };

  /// A transaction fully resolved during a sealed-journal drain, tagged
  /// with the global (destination-order) index of its resolving entry so
  /// the serial epilogue can replay completions in exact serial order.
  struct Completion {
    std::uint64_t journal_index = 0;
    Round injected = 0;
    bool committed = false;
  };

  const chain::AccountMap* map_;
  chain::Balance initial_balance_;
  durability::WalManager* wal_ = nullptr;  ///< optional, not owned
  std::vector<chain::AccountStore> stores_;   // one per shard
  std::vector<chain::LocalChain> chains_;     // one per shard
  std::vector<Round> last_commit_round_;      // unit-capacity enforcement
  std::vector<std::vector<JournalEntry>> journal_;  // per destination shard
  /// Double buffer of journal_ (swapped by SealJournal; empty outside a
  /// Seal..Finish window) plus the drain scratch, reused every round:
  /// per-partition completion buffers and FinishSealedRound's
  /// per-partition merge cursors.
  std::vector<std::vector<JournalEntry>> sealed_journal_;
  std::vector<std::vector<Completion>> completions_;
  std::vector<std::size_t> merge_cursor_;
  std::uint32_t sealed_parts_ = 0;
  std::unordered_map<TxnId, TxnRecord> records_;
  stats::LatencyRecorder latency_;
  std::uint64_t registered_ = 0;
  std::uint64_t resolved_ = 0;
  std::uint64_t committed_txns_ = 0;
  std::uint64_t aborted_txns_ = 0;
};

}  // namespace stableshard::core
