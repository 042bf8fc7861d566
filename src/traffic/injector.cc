#include "traffic/injector.h"

#include <algorithm>

#include "common/check.h"

namespace stableshard::traffic {

void ClosedLoopInjector::GenerateRound(Round round,
                                       std::vector<txn::Transaction>& out) {
  adversary_->GenerateRound(round, out);
  ++generated_;
}

OpenLoopInjector::OpenLoopInjector(std::unique_ptr<ArrivalSchedule> schedule,
                                   std::unique_ptr<adversary::Strategy> strategy,
                                   const chain::AccountMap& map,
                                   std::uint64_t seed)
    : schedule_(std::move(schedule)),
      strategy_(std::move(strategy)),
      factory_(map),
      rng_(seed) {
  SSHARD_CHECK(schedule_ != nullptr);
  SSHARD_CHECK(strategy_ != nullptr);
}

std::uint64_t OpenLoopInjector::PullArrivals() {
  const std::uint64_t arrivals = schedule_->ArrivalsAt(wall_cursor_);
  ++wall_cursor_;
  offered_ += arrivals;
  offered_series_.push_back(arrivals);
  return arrivals;
}

void OpenLoopInjector::OnStalledRound() {
  // The world is stalled but arrivals are not: they pile up as backlog and
  // flood the scheduler when the protocol resumes — exactly the recovery
  // pressure a closed-loop workload can never produce.
  backlog_ += PullArrivals();
  lag_peak_ = std::max(lag_peak_, backlog_);
}

void OpenLoopInjector::GenerateRound(Round round,
                                     std::vector<txn::Transaction>& out) {
  out.clear();
  std::uint64_t due = backlog_ + PullArrivals();
  backlog_ = 0;
  for (std::uint64_t i = 0; i < due; ++i) {
    adversary::Candidate& candidate = candidate_;
    if (!strategy_->Next(round, rng_, &candidate)) {
      // Structurally out of shapes (a fully consumed trace): the remaining
      // arrivals stay offered-but-never-injected.
      break;
    }
    if (recorder_) recorder_(round, candidate.home, candidate.accesses);
    out.push_back(factory_.Make(candidate.home, round, candidate.accesses));
    ++injected_;
  }
}

}  // namespace stableshard::traffic
