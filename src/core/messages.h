// Inter-shard message types for the three schedulers.
//
// All scheduler communication flows through net::Network<Message> so that
// delivery delays equal the metric distances and traffic is accounted.
// BDS uses {TxnBatchMsg, EpochPlanMsg, ColorAssignMsg, SubTxnMsg, VoteMsg,
// ConfirmMsg} plus ColorClassMsg in the sharded-leader mode; FDS
// additionally uses the retract handshake (see
// commit_protocol.h for why the handshake exists); Direct uses the commit
// protocol subset only.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/height.h"
#include "txn/transaction.h"

namespace stableshard::core {

/// Home shard -> leader: the pending transactions picked up this epoch
/// (Phase 1 of both algorithms). `cluster` identifies the FDS home cluster
/// (unused by BDS, set to 0).
struct TxnBatchMsg {
  std::uint32_t cluster = 0;
  std::uint64_t epoch = 0;
  std::vector<txn::Transaction> txns;
};

/// BDS leader -> all shards: the number of colors of this epoch, fixing the
/// epoch length 2 + 4 * num_colors for everyone.
struct EpochPlanMsg {
  std::uint64_t epoch = 0;
  std::uint32_t num_colors = 0;
};

/// BDS leader -> home shard: colors assigned to that home's transactions.
struct ColorAssignMsg {
  std::uint64_t epoch = 0;
  std::vector<std::pair<TxnId, Color>> colors;
};

/// Sharded-leader BDS (color_leaders > 1), leader -> co-leader: one whole
/// color class of the epoch's coloring. The co-leader shard mapped to
/// `color` becomes the Phase-3 coordinator for these transactions (it sends
/// the subtransactions, collects the votes and confirms), so the commit
/// fan-out runs across color classes in parallel instead of serializing on
/// the homes' per-color schedules. Payload units = transactions shipped.
struct ColorClassMsg {
  std::uint64_t epoch = 0;
  Color color = 0;
  std::vector<txn::Transaction> txns;
};

/// Coordinator (home shard or cluster leader) -> destination shard: one
/// subtransaction to insert into the destination's schedule queue. `sub`
/// references the subtransaction inside the transaction's shared body (no
/// copy). When `update` is set the destination only refreshes the height of
/// an existing entry (FDS rescheduling, Section 6.2 Phase 2) and `sub` is
/// empty.
struct SubTxnMsg {
  TxnId txn = kInvalidTxn;
  std::uint32_t cluster = 0;
  ShardId coordinator = kInvalidShard;
  Height height;
  bool update = false;
  txn::SubTxnRef sub;
};

/// Destination -> coordinator: commit/abort vote for one subtransaction.
struct VoteMsg {
  TxnId txn = kInvalidTxn;
  std::uint32_t cluster = 0;
  ShardId dest = kInvalidShard;
  bool commit = false;
};

/// Coordinator -> destinations: final decision. `height` is the
/// coordinator's current (final) height for the transaction: pipelined
/// destinations re-key their entry to it so every shard applies the commit
/// at the same queue position (cross-shard order consistency).
struct ConfirmMsg {
  TxnId txn = kInvalidTxn;
  std::uint32_t cluster = 0;
  bool commit = false;
  Height height;
};

/// Destination -> coordinator: "a higher-priority subtransaction arrived;
/// may I withdraw my vote for `txn`?" (see commit_protocol.h).
struct RetractRequestMsg {
  TxnId txn = kInvalidTxn;
  std::uint32_t cluster = 0;
  ShardId dest = kInvalidShard;
};

/// Coordinator -> destination: retraction granted (the coordinator had not
/// yet decided); the destination unpins and revotes by priority.
struct RetractAckMsg {
  TxnId txn = kInvalidTxn;
  std::uint32_t cluster = 0;
};

using Message =
    std::variant<TxnBatchMsg, EpochPlanMsg, ColorAssignMsg, ColorClassMsg,
                 SubTxnMsg, VoteMsg, ConfirmMsg, RetractRequestMsg,
                 RetractAckMsg>;

}  // namespace stableshard::core
