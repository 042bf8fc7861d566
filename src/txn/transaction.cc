#include "txn/transaction.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace stableshard::txn {

bool SubTransaction::HasWrite() const {
  return std::any_of(actions.begin(), actions.end(),
                     [](const chain::Action& a) { return a.IsWrite(); });
}

std::vector<AccountId> SubTransaction::ReadSet() const {
  std::vector<AccountId> reads;
  for (const auto& condition : conditions) reads.push_back(condition.account);
  for (const auto& action : actions) {
    if (!action.IsWrite()) reads.push_back(action.account);
  }
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  return reads;
}

std::vector<AccountId> SubTransaction::WriteSet() const {
  std::vector<AccountId> writes;
  for (const auto& action : actions) {
    if (action.IsWrite()) writes.push_back(action.account);
  }
  std::sort(writes.begin(), writes.end());
  writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
  return writes;
}

std::uint64_t SubTransaction::Digest() const {
  std::uint64_t digest = Mix64(destination + 1);
  for (const auto& condition : conditions) {
    digest ^= Mix64(condition.account * 31 +
                    static_cast<std::uint64_t>(condition.op) * 7 +
                    static_cast<std::uint64_t>(condition.value));
  }
  for (const auto& action : actions) {
    digest ^= Mix64(action.account * 131 +
                    static_cast<std::uint64_t>(action.kind) * 13 +
                    static_cast<std::uint64_t>(action.amount));
  }
  return digest;
}

Transaction::Transaction(TxnId id, ShardId home, Round injected,
                         std::vector<SubTransaction> subs)
    : id_(id), home_(home), injected_(injected) {
  SSHARD_CHECK(!subs.empty());
  auto body = std::make_shared<Body>();
  std::vector<ShardId>& destinations = body->destinations;
  std::vector<Access>& accesses = body->accesses;
  std::size_t access_count = 0;
  for (const auto& sub : subs) {
    access_count += sub.conditions.size() + sub.actions.size();
  }
  destinations.reserve(subs.size());
  accesses.reserve(access_count);
  for (const auto& sub : subs) {
    SSHARD_CHECK(sub.destination != kInvalidShard);
    destinations.push_back(sub.destination);
    for (const auto& condition : sub.conditions) {
      accesses.push_back({condition.account, false});
    }
    for (const auto& action : sub.actions) {
      accesses.push_back({action.account, action.IsWrite()});
    }
  }
  std::sort(destinations.begin(), destinations.end());
  // One subtransaction per destination shard: duplicates are a construction
  // bug (the factory merges accesses per shard).
  SSHARD_CHECK(std::adjacent_find(destinations.begin(),
                                  destinations.end()) == destinations.end());
  // Collapse accesses per account, write-dominant.
  std::sort(accesses.begin(), accesses.end(),
            [](const Access& a, const Access& b) {
              if (a.account != b.account) return a.account < b.account;
              return a.write > b.write;
            });
  accesses.erase(std::unique(accesses.begin(), accesses.end(),
                             [](const Access& a, const Access& b) {
                               return a.account == b.account;
                             }),
                 accesses.end());
  body->subs = std::move(subs);
  body_ = std::move(body);
}

const Transaction::Body& Transaction::EmptyBody() {
  static const Body empty;
  return empty;
}

SubTxnRef Transaction::SubRef(std::size_t index) const {
  SSHARD_CHECK(index < subs().size());
  return SubTxnRef(body_, &body_->subs[index]);
}

bool Transaction::ConflictsWith(const Transaction& other) const {
  // Merge-walk over the two sorted access lists.
  const std::vector<Access>& mine = accesses();
  const std::vector<Access>& theirs = other.accesses();
  auto it = mine.begin();
  auto jt = theirs.begin();
  while (it != mine.end() && jt != theirs.end()) {
    if (it->account < jt->account) {
      ++it;
    } else if (jt->account < it->account) {
      ++jt;
    } else {
      if (it->write || jt->write) return true;
      ++it;
      ++jt;
    }
  }
  return false;
}

std::string Transaction::ToString() const {
  std::ostringstream os;
  os << "T" << id_ << "{home=S" << home_ << ", injected=@" << injected_
     << ", subs=[";
  bool first = true;
  for (const auto& sub : subs()) {
    if (!first) os << "; ";
    first = false;
    os << "S" << sub.destination << ":";
    for (const auto& condition : sub.conditions) {
      os << ' ' << condition.ToString();
    }
    for (const auto& action : sub.actions) {
      os << ' ' << action.ToString();
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace stableshard::txn
