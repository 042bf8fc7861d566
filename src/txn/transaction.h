// Transactions and subtransactions (paper Section 3).
//
// A transaction T_i is a collection of subtransactions T_{i,a1}..T_{i,aj},
// each accessing accounts owned by exactly one destination shard. The home
// shard (where T was injected) splits T and coordinates the 2PC-style
// vote/confirm commit. Subtransactions of one transaction never conflict
// with each other and can commit concurrently.
//
// Ownership: a Transaction is a small handle (id, home, injection round)
// onto an immutable body — the subtransactions, destinations and sorted
// accesses — that the factory builds once. Copying a Transaction shares the
// body through a reference count, and a SubTxnRef keeps one subtransaction
// (and with it the whole body) alive for as long as a message or a
// destination queue holds it. The body is freed when its last reference
// drops. Nothing orders or hashes by body address, so sharing cannot change
// any result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/ops.h"
#include "common/types.h"

namespace stableshard::txn {

/// The per-destination-shard piece of a transaction: a condition check plus
/// a main action (either may be empty; an all-kNone subtransaction is a
/// pure read participation).
struct SubTransaction {
  ShardId destination = kInvalidShard;
  std::vector<chain::Condition> conditions;
  std::vector<chain::Action> actions;

  /// True if any action writes account state.
  bool HasWrite() const;

  /// Accounts read (condition accounts plus kNone action accounts).
  std::vector<AccountId> ReadSet() const;

  /// Accounts written (non-kNone action accounts).
  std::vector<AccountId> WriteSet() const;

  /// Order-insensitive digest of the body (for block payloads).
  std::uint64_t Digest() const;
};

/// A shared reference to one subtransaction of a transaction body: an
/// aliasing shared_ptr that points at the sub and owns the whole body, so
/// the sub stays valid after every Transaction it came from is gone.
using SubTxnRef = std::shared_ptr<const SubTransaction>;

class Transaction {
 public:
  /// Empty handle: no body, empty subs/destinations/accesses.
  Transaction() = default;
  Transaction(TxnId id, ShardId home, Round injected,
              std::vector<SubTransaction> subs);

  TxnId id() const { return id_; }
  ShardId home() const { return home_; }
  Round injected() const { return injected_; }
  const std::vector<SubTransaction>& subs() const { return body().subs; }

  /// A shared reference to subs()[index] (see SubTxnRef).
  SubTxnRef SubRef(std::size_t index) const;

  /// Destination shards, ascending, deduplicated (== one per sub).
  const std::vector<ShardId>& destinations() const {
    return body().destinations;
  }

  /// Number of shards the transaction accesses (the paper's per-txn k).
  std::size_t shard_span() const { return destinations().size(); }

  /// All accounts accessed, with their access mode.
  struct Access {
    AccountId account;
    bool write;
  };
  const std::vector<Access>& accesses() const { return body().accesses; }

  /// Whether this transaction conflicts with `other`: they access a common
  /// account and at least one of the two accesses writes it.
  bool ConflictsWith(const Transaction& other) const;

  std::string ToString() const;

 private:
  /// The immutable, shared part. Built once by the constructor.
  struct Body {
    std::vector<SubTransaction> subs;
    std::vector<ShardId> destinations;
    std::vector<Access> accesses;  // sorted by account id
  };

  /// The body, or a static empty one for a default-constructed handle.
  const Body& body() const { return body_ ? *body_ : EmptyBody(); }
  static const Body& EmptyBody();

  TxnId id_ = kInvalidTxn;
  ShardId home_ = kInvalidShard;
  Round injected_ = 0;
  std::shared_ptr<const Body> body_;
};

}  // namespace stableshard::txn
