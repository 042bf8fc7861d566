// Unit tests for the CommitLedger: vote evaluation, commit application,
// resolution tracking, latency accounting and the runtime safety invariants
// (unit shard capacity, stale-state commits).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chain/account_map.h"
#include "core/commit_ledger.h"
#include "txn/txn_factory.h"

namespace stableshard::core {
namespace {

/// Close round `round` of `ledger` through the sealed-journal triple,
/// resolving the partitions in the order listed (their count is `parts`).
/// The default is the one-partition drain every unpooled round runs.
void Drain(CommitLedger& ledger, Round round,
           const std::vector<std::uint32_t>& order = {0}) {
  ledger.SealJournal(round, static_cast<std::uint32_t>(order.size()));
  for (const std::uint32_t part : order) ledger.ResolveSealedPartition(part);
  ledger.FinishSealedRound(round);
}

class CommitLedgerTest : public ::testing::Test {
 protected:
  CommitLedgerTest()
      : map_(chain::AccountMap::RoundRobin(4, 4)),
        ledger_(map_, /*initial_balance=*/1000),
        factory_(map_) {}

  /// Apply one confirm and close its round (one partition).
  void Confirm(const txn::Transaction& txn, const txn::SubTransaction& sub,
               bool commit, Round round) {
    ledger_.ApplyConfirmDeferred(txn.id(), sub, commit, round);
    Drain(ledger_, round);
  }

  chain::AccountMap map_;
  CommitLedger ledger_;
  txn::TxnFactory factory_;
};

TEST_F(CommitLedgerTest, EvaluateChecksConditionsAndValidity) {
  const auto good = factory_.MakeTransfer(0, 0, /*from=*/0, /*to=*/1,
                                          /*amount=*/100, /*min=*/500);
  for (const auto& sub : good.subs()) {
    EXPECT_TRUE(ledger_.EvaluateSub(sub));
  }
  const auto poor = factory_.MakeTransfer(0, 0, 0, 1, /*amount=*/100,
                                          /*min=*/5000);  // condition fails
  bool any_false = false;
  for (const auto& sub : poor.subs()) {
    if (!ledger_.EvaluateSub(sub)) any_false = true;
  }
  EXPECT_TRUE(any_false);
  const auto broke = factory_.MakeTransfer(0, 0, 0, 1, /*amount=*/5000,
                                           /*min=*/500);  // invalid action
  any_false = false;
  for (const auto& sub : broke.subs()) {
    if (!ledger_.EvaluateSub(sub)) any_false = true;
  }
  EXPECT_TRUE(any_false);
}

TEST_F(CommitLedgerTest, CommitAppliesActionsAndAppendsBlocks) {
  const auto txn = factory_.MakeTransfer(0, 0, 0, 1, 100, 500);
  ledger_.RegisterInjection(txn);
  ASSERT_EQ(txn.subs().size(), 2u);
  Confirm(txn, txn.subs()[0], /*commit=*/true, /*round=*/5);
  EXPECT_FALSE(ledger_.IsResolved(txn.id()));
  // Different shards, different rounds allowed (kOrdered).
  Confirm(txn, txn.subs()[1], /*commit=*/true, /*round=*/6);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(0)).BalanceOf(0), 900);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(1)).BalanceOf(1), 1100);
  std::size_t blocks = 0;
  for (const auto& chain : ledger_.chains()) blocks += chain.size();
  EXPECT_EQ(blocks, 2u);
}

TEST_F(CommitLedgerTest, AbortLeavesStateUntouched) {
  const auto txn = factory_.MakeTransfer(0, 0, 0, 1, 100, 500);
  ledger_.RegisterInjection(txn);
  for (const auto& sub : txn.subs()) {
    ledger_.ApplyConfirmDeferred(txn.id(), sub, /*commit=*/false, 3);
  }
  Drain(ledger_, 3);
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(0)).BalanceOf(0), 1000);
  for (const auto& chain : ledger_.chains()) EXPECT_TRUE(chain.empty());
}

TEST_F(CommitLedgerTest, PendingCountsUnresolved) {
  const auto t0 = factory_.MakeTouch(0, 0, {0});
  const auto t1 = factory_.MakeTouch(0, 0, {1});
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  EXPECT_EQ(ledger_.pending(), 2u);
  ledger_.ApplyConfirmDeferred(t0.id(), t0.subs()[0], true, 1);
  // Journaled, not yet resolved: resolution waits for the round's drain.
  EXPECT_EQ(ledger_.pending(), 2u);
  EXPECT_FALSE(ledger_.IsResolved(t0.id()));
  Drain(ledger_, 1);
  EXPECT_EQ(ledger_.pending(), 1u);
  EXPECT_TRUE(ledger_.IsResolved(t0.id()));
}

TEST_F(CommitLedgerTest, LatencyRecordedAtLastSub) {
  const auto txn = factory_.MakeTouch(0, /*injected=*/10, {0, 1});
  ledger_.RegisterInjection(txn);
  Confirm(txn, txn.subs()[0], true, 20);
  EXPECT_EQ(ledger_.latency().resolved(), 0u);
  Confirm(txn, txn.subs()[1], true, 31);
  EXPECT_EQ(ledger_.latency().resolved(), 1u);
  EXPECT_DOUBLE_EQ(ledger_.latency().average_latency(), 21.0);
}

TEST_F(CommitLedgerTest, PartitionCountNeverShowsInTheDrain) {
  // Two identical deferred-confirm rounds: one ledger drains each round
  // with one partition, the other with 3 and then 2 partitions resolved
  // out of order. Every counter and the (order-sensitive) latency mean
  // must agree bit-for-bit, and both must match the hand-computed values.
  CommitLedger one(map_, 1000);
  CommitLedger split(map_, 1000);

  const auto a = factory_.MakeTouch(0, /*injected=*/0, {0, 1, 2});
  const auto b = factory_.MakeTouch(1, /*injected=*/1, {3});
  const auto c = factory_.MakeTouch(2, /*injected=*/1, {1, 3});
  for (CommitLedger* ledger : {&one, &split}) {
    for (const auto* txn : {&a, &b, &c}) {
      ledger->RegisterInjection(*txn);
    }
    // Round 4: a fully commits, b aborts, c resolves only its shard-3 sub
    // (with an abort vote) — c stays pending into the next round.
    for (const auto& sub : a.subs()) {
      ledger->ApplyConfirmDeferred(a.id(), sub, /*commit=*/true, 4);
    }
    ledger->ApplyConfirmDeferred(b.id(), b.subs()[0], /*commit=*/false, 4);
    ledger->ApplyConfirmDeferred(c.id(), c.subs()[1], /*commit=*/false, 4);
  }
  Drain(one, 4);
  Drain(split, 4, {2, 0, 1});

  // After round 4: a committed (latency 4), b aborted (latency 3).
  for (const CommitLedger* ledger : {&one, &split}) {
    EXPECT_EQ(ledger->resolved(), 2u);
    EXPECT_EQ(ledger->committed_txns(), 1u);
    EXPECT_EQ(ledger->aborted_txns(), 1u);
    EXPECT_EQ(ledger->pending(), 1u);
    EXPECT_FALSE(ledger->IsResolved(c.id()));
    EXPECT_DOUBLE_EQ(ledger->latency().average_latency(), 3.5);
  }

  // Round 5: c's remaining sub arrives and completes the abort.
  for (CommitLedger* ledger : {&one, &split}) {
    ledger->ApplyConfirmDeferred(c.id(), c.subs()[0], /*commit=*/false, 5);
  }
  Drain(one, 5);
  Drain(split, 5, {1, 0});

  EXPECT_EQ(one.resolved(), split.resolved());
  EXPECT_EQ(one.committed_txns(), split.committed_txns());
  EXPECT_EQ(one.aborted_txns(), split.aborted_txns());
  EXPECT_EQ(one.pending(), split.pending());
  EXPECT_EQ(one.latency().average_latency(),
            split.latency().average_latency());
  EXPECT_EQ(one.latency().max_latency(), split.latency().max_latency());
  // c aborted with latency 5 - 1 = 4: latencies {4, 3, 4}.
  EXPECT_EQ(one.resolved(), 3u);
  EXPECT_EQ(one.committed_txns(), 1u);
  EXPECT_EQ(one.aborted_txns(), 2u);
  EXPECT_EQ(one.pending(), 0u);
  for (const auto* txn : {&a, &b, &c}) {
    EXPECT_TRUE(one.IsResolved(txn->id()));
    EXPECT_TRUE(split.IsResolved(txn->id()));
  }
  EXPECT_DOUBLE_EQ(one.latency().average_latency(), 11.0 / 3.0);
  EXPECT_DOUBLE_EQ(one.latency().max_latency(), 4.0);
}

TEST_F(CommitLedgerTest, SealedJournalSupportsMorePartitionsThanEntries) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  ledger_.ApplyConfirmDeferred(txn.id(), txn.subs()[0], /*commit=*/true, 1);
  ledger_.SealJournal(/*round=*/1, /*parts=*/8);
  for (std::uint32_t part = 0; part < 8; ++part) {
    ledger_.ResolveSealedPartition(part);
  }
  ledger_.FinishSealedRound(1);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
}

TEST_F(CommitLedgerTest, MixedDecisionCountsAsAborted) {
  const auto txn = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(txn);
  Confirm(txn, txn.subs()[0], /*commit=*/true, 1);
  Confirm(txn, txn.subs()[1], /*commit=*/false, 2);
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.committed_txns(), 0u);
}

using CommitLedgerDeathTest = CommitLedgerTest;

TEST_F(CommitLedgerDeathTest, DoubleRegisterAborts) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  EXPECT_DEATH(ledger_.RegisterInjection(txn), "twice");
}

TEST_F(CommitLedgerDeathTest, UnitShardCapacityEnforced) {
  const auto t0 = factory_.MakeTouch(0, 0, {0});
  const auto t1 = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  ledger_.ApplyConfirmDeferred(t0.id(), t0.subs()[0], true, /*round=*/7);
  // Second commit on the same shard in the same round must abort.
  EXPECT_DEATH(ledger_.ApplyConfirmDeferred(t1.id(), t1.subs()[0], true, 7),
               "two commits");
}

TEST_F(CommitLedgerDeathTest, StaleCommitDetected) {
  // t0 drains the balance; committing t1 (whose withdraw was valid at vote
  // time but no longer is) must trip the stale-state check.
  const auto t0 = factory_.MakeTransfer(0, 0, 0, 1, 1000, 0);
  const auto t1 = factory_.MakeTransfer(0, 0, 0, 1, 1000, 0);
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  for (const auto& sub : t0.subs()) {
    ledger_.ApplyConfirmDeferred(t0.id(), sub, true, 1);
  }
  Drain(ledger_, 1);
  for (const auto& sub : t1.subs()) {
    if (sub.destination == map_.OwnerOf(0)) {
      EXPECT_DEATH(ledger_.ApplyConfirmDeferred(t1.id(), sub, true, 2),
                   "stale");
    }
  }
}

TEST_F(CommitLedgerDeathTest, ConfirmForUnknownTxnAborts) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  EXPECT_DEATH(Confirm(txn, txn.subs()[0], true, 1), "unregistered");
}

}  // namespace
}  // namespace stableshard::core
