// Transaction construction helpers.
//
// TxnFactory assigns monotonically increasing ids and builds well-formed
// transactions (one subtransaction per destination shard, accesses merged
// per shard) from account-level specifications. Used by the adversary
// strategies and the examples.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "chain/account_map.h"
#include "chain/ops.h"
#include "common/rng.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace stableshard::txn {

/// One account-level access in a transaction specification.
struct AccessSpec {
  AccountId account = 0;
  bool write = true;
  /// Optional condition attached to this account (kGe 0 == no-op check).
  chain::Condition condition{};
  bool has_condition = false;
  /// Action applied on commit; ActionKind::kNone for read-only access.
  chain::Action action{};
};

class TxnFactory {
 public:
  explicit TxnFactory(const chain::AccountMap& accounts)
      : accounts_(&accounts) {}

  /// Number of transactions created so far (== next id).
  TxnId created() const { return next_id_; }

  /// Build a transaction touching the given accounts. Accesses are grouped
  /// into one subtransaction per owning shard. `home` must be a valid shard.
  Transaction Make(ShardId home, Round injected,
                   const std::vector<AccessSpec>& accesses);

  /// Convenience: write-transaction touching each account in `accounts`
  /// with a balance-neutral write (deposit 0), conflicting with anything
  /// else touching those accounts. This mirrors the paper's simulation
  /// where transactions are identified with the shard set they access.
  Transaction MakeTouch(ShardId home, Round injected,
                        const std::vector<AccountId>& accounts);

  /// Convenience: "transfer `amount` from `from` to `to` if `from` has at
  /// least `min_balance`" — Example 1's shape.
  Transaction MakeTransfer(ShardId home, Round injected, AccountId from,
                           AccountId to, chain::Balance amount,
                           chain::Balance min_balance);

 private:
  const chain::AccountMap* accounts_;
  TxnId next_id_ = 0;
  /// Make's scratch: (owner shard, spec index) per access, reused across
  /// calls so grouping allocates nothing in steady state.
  std::vector<std::pair<ShardId, std::uint32_t>> order_;
};

}  // namespace stableshard::txn
