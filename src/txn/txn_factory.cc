#include "txn/txn_factory.h"

#include <algorithm>

#include "common/check.h"

namespace stableshard::txn {

Transaction TxnFactory::Make(ShardId home, Round injected,
                             const std::vector<AccessSpec>& accesses) {
  SSHARD_CHECK(home < accounts_->shard_count());
  SSHARD_CHECK(!accesses.empty());
  // Order the specs by (owner shard, position): one run per destination, in
  // ascending shard order, each run keeping the specs' input order.
  order_.clear();
  order_.reserve(accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    order_.emplace_back(accounts_->OwnerOf(accesses[i].account),
                        static_cast<std::uint32_t>(i));
  }
  std::sort(order_.begin(), order_.end());
  std::size_t shard_count = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (i == 0 || order_[i].first != order_[i - 1].first) ++shard_count;
  }
  std::vector<SubTransaction> subs;
  subs.reserve(shard_count);
  for (std::size_t begin = 0; begin < order_.size();) {
    const ShardId owner = order_[begin].first;
    std::size_t end = begin;
    while (end < order_.size() && order_[end].first == owner) ++end;
    SubTransaction& sub = subs.emplace_back();
    sub.destination = owner;
    sub.actions.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const AccessSpec& spec = accesses[order_[i].second];
      if (spec.has_condition) {
        sub.conditions.push_back(spec.condition);
      }
      if (spec.action.kind != chain::ActionKind::kNone ||
          !spec.has_condition) {
        chain::Action action = spec.action;
        action.account = spec.account;
        sub.actions.push_back(action);
      }
    }
    begin = end;
  }
  return Transaction(next_id_++, home, injected, std::move(subs));
}

Transaction TxnFactory::MakeTouch(ShardId home, Round injected,
                                  const std::vector<AccountId>& accounts) {
  std::vector<AccessSpec> accesses;
  accesses.reserve(accounts.size());
  for (const AccountId account : accounts) {
    AccessSpec spec;
    spec.account = account;
    spec.write = true;
    spec.action = {account, chain::ActionKind::kDeposit, 0};
    accesses.push_back(spec);
  }
  return Make(home, injected, accesses);
}

Transaction TxnFactory::MakeTransfer(ShardId home, Round injected,
                                     AccountId from, AccountId to,
                                     chain::Balance amount,
                                     chain::Balance min_balance) {
  std::vector<AccessSpec> accesses;
  {
    AccessSpec spec;
    spec.account = from;
    spec.write = true;
    spec.has_condition = true;
    spec.condition = {from, chain::CmpOp::kGe, min_balance};
    spec.action = {from, chain::ActionKind::kWithdraw, amount};
    accesses.push_back(spec);
  }
  {
    AccessSpec spec;
    spec.account = to;
    spec.write = true;
    spec.action = {to, chain::ActionKind::kDeposit, amount};
    accesses.push_back(spec);
  }
  return Make(home, injected, accesses);
}

}  // namespace stableshard::txn
