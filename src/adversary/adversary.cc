#include "adversary/adversary.h"

#include "common/check.h"

namespace stableshard::adversary {

Adversary::Adversary(const AdversaryConfig& config,
                     const chain::AccountMap& map,
                     std::unique_ptr<Strategy> strategy)
    : config_(config),
      map_(&map),
      strategy_(std::move(strategy)),
      buckets_(map.shard_count(), config.rho, config.burstiness),
      factory_(map),
      rng_(config.seed) {
  SSHARD_CHECK(strategy_ != nullptr);
}

bool Adversary::TryInjectOne(Round round,
                             std::vector<txn::Transaction>* out) {
  for (std::uint32_t attempt = 0; attempt < config_.max_blocked_attempts;
       ++attempt) {
    Candidate& candidate = candidate_;
    if (!strategy_->Next(round, rng_, &candidate)) return false;
    const std::vector<ShardId> touched = candidate.TouchedShards(*map_);
    SSHARD_CHECK(!touched.empty());
    if (!buckets_.CanConsume(touched)) {
      ++stats_.denied;
      continue;  // redraw — another candidate may fit the remaining tokens
    }
    buckets_.Consume(touched);
    if (recorder_) recorder_(round, candidate.home, candidate.accesses);
    out->push_back(factory_.Make(candidate.home, round, candidate.accesses));
    ++stats_.injected;
    stats_.congestion += touched.size();
    return true;
  }
  return false;
}

void Adversary::GenerateRound(Round round,
                              std::vector<txn::Transaction>& out) {
  out.clear();
  if (round > 0) buckets_.Tick();

  // One-time burst of b transactions (paper Section 7: burstiness is
  // "introduced within only one epoch" — the queues start loaded). The
  // token buckets still police the per-shard window constraint: a burst of
  // b transactions adds at most b congestion to any shard, so it is always
  // admissible from full buckets.
  if (!burst_done_ && config_.burst_round != kNoRound &&
      round >= config_.burst_round) {
    burst_done_ = true;
    const auto burst_target =
        static_cast<std::uint64_t>(config_.burstiness);
    for (std::uint64_t i = 0; i < burst_target; ++i) {
      if (!TryInjectOne(round, &out)) break;
    }
    stats_.burst_injected = stats_.injected;
    return;
  }

  // Steady stream: pace aggregate congestion at rho per shard per round,
  // i.e. rho * s congestion units per round across the system.
  pacing_budget_ += config_.rho * static_cast<double>(map_->shard_count());
  while (pacing_budget_ >= 1.0) {
    const std::uint64_t before = stats_.congestion;
    if (!TryInjectOne(round, &out)) break;
    pacing_budget_ -= static_cast<double>(stats_.congestion - before);
  }
  // Do not bank unlimited budget across blocked periods: the buckets are
  // the real constraint, the budget only shapes the average rate.
  const double cap = 2.0 * static_cast<double>(map_->shard_count());
  if (pacing_budget_ > cap) pacing_budget_ = cap;
}

}  // namespace stableshard::adversary
