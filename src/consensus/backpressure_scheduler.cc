#include "consensus/backpressure_scheduler.h"

#include <algorithm>

#include "common/check.h"
#include "core/scheduler_registry.h"

namespace stableshard::consensus {

BackpressureScheduler::BackpressureScheduler(
    const net::ShardMetric& metric, const cluster::Hierarchy& hierarchy,
    core::CommitLedger& ledger, const core::FdsConfig& fds_config,
    const BackpressureConfig& config)
    : inner_(std::make_unique<core::FdsScheduler>(metric, hierarchy, ledger,
                                                  fds_config)),
      config_(config),
      hot_(metric.shard_count(), 0),
      spill_(metric.shard_count()),
      spill_head_(metric.shard_count(), 0) {
  SSHARD_CHECK(config_.low_watermark <= config_.high_watermark &&
               "backpressure watermarks must satisfy low <= high");
  SSHARD_CHECK(config_.high_watermark > 0 &&
               "backpressure_high = 0 would park every transaction forever");
}

void BackpressureScheduler::Inject(const txn::Transaction& txn) {
  // The hot marks and spill queues are serial-only state; park/admit
  // decisions during a parallel phase would race with the round body.
  SSHARD_SERIAL_PHASE(inner_->ownership());
  if (hot_[txn.home()]) {
    spill_[txn.home()].push_back(txn);
    ++spilled_now_;
    ++deferred_total_;
    return;
  }
  inner_->Inject(txn);
}

void BackpressureScheduler::BeginRound(Round round) {
  // Serial. Reads the inflow each destination accumulated since the last
  // BeginRound (== the previous round, including its epilogue flush) and
  // runs the hysteresis gate. Everything read here is folded serially by
  // the epilogue, so the branch outcomes are identical whatever the
  // worker count or pipeline mode.
  SSHARD_SERIAL_PHASE(inner_->ownership());
  const ShardId shards = inner_->shard_count();
  for (ShardId shard = 0; shard < shards; ++shard) {
    // Congestion signal: the round's inflow (spiky — FDS ships subtxn
    // batches at epoch boundaries) joined with the standing backlog the
    // shard owes work for (smooth — sch_ldr of the clusters it leads plus
    // undelivered messages). Either crossing the high watermark marks the
    // destination hot; both must fall to the low one to clear it.
    const std::uint64_t signal =
        std::max(inner_->ShardTrafficFor(shard).InflowSinceSnapshot(),
                 inner_->QueueDepth(shard));
    if (!hot_[shard] && signal >= config_.high_watermark) {
      hot_[shard] = 1;
      ++hot_transitions_;
    } else if (hot_[shard] && signal <= config_.low_watermark) {
      hot_[shard] = 0;
    }
    // Paced re-admission while the mark is clear, in shard order then
    // injection order — a deterministic serial schedule. The per-round
    // budget is the headroom left under the high watermark (dumping the
    // whole spill at once would recreate exactly the spike the gate
    // shed; at small scale that flood made the peak *worse* than plain
    // fds), floored at 1 so the spill always drains once injection stops
    // even when high == low leaves zero headroom.
    std::vector<txn::Transaction>& spill = spill_[shard];
    std::size_t& head = spill_head_[shard];
    if (!hot_[shard] && head < spill.size()) {
      const std::uint64_t budget = std::max<std::uint64_t>(
          1, config_.high_watermark - std::min(signal,
                                               config_.high_watermark));
      const std::size_t admit =
          std::min<std::size_t>(spill.size() - head, budget);
      for (std::size_t i = 0; i < admit; ++i) {
        inner_->Inject(spill[head + i]);
      }
      head += admit;
      if (head == spill.size()) {
        // Swap-to-empty, not clear(): a long hot phase can park a
        // burst's worth of transactions, and the repo's memory
        // discipline (ring/lane decay) is that bursts never pin peak
        // capacity for the rest of the run.
        std::vector<txn::Transaction>().swap(spill);
        head = 0;
      }
      readmitted_total_ += admit;
      spilled_now_ -= admit;
    }
  }
  inner_->SnapshotInflow();
  inner_->BeginRound(round);
}

void BackpressureScheduler::StepShard(ShardId shard, Round round) {
  inner_->StepShard(shard, round);
}

// The epilogue trio delegates through the Scheduler interface on purpose:
// core::NetworkedScheduler's overrides carry thread-safety annotations
// naming its protected capabilities, which this wrapper neither holds nor
// tracks — calling via the unannotated base keeps the wrapper transparent
// to the analysis (the capabilities are acquired and released inside one
// inner call chain either way).
void BackpressureScheduler::SealRound(Round round, std::uint32_t parts) {
  core::Scheduler& base = *inner_;
  base.SealRound(round, parts);
}

void BackpressureScheduler::FlushRoundPartition(Round round,
                                                std::uint32_t part,
                                                std::uint32_t parts) {
  core::Scheduler& base = *inner_;
  base.FlushRoundPartition(round, part, parts);
}

void BackpressureScheduler::FinishRound(Round round) {
  core::Scheduler& base = *inner_;
  base.FinishRound(round);
}

bool BackpressureScheduler::Idle() const {
  return spilled_now_ == 0 && inner_->Idle();
}

std::uint64_t BackpressureScheduler::hot_shard_count() const {
  std::uint64_t count = 0;
  for (const std::uint8_t hot : hot_) count += hot;
  return count;
}

namespace {
const core::SchedulerRegistrar kBackpressureRegistrar{
    "backpressure",
    [](const core::SimConfig& config, core::SchedulerDeps& deps) {
      core::FdsConfig fds;
      fds.coloring = config.coloring;
      fds.reschedule = config.fds_reschedule;
      fds.commit_mode = config.fds_pipelined
                            ? core::CommitMode::kPipelined
                            : core::CommitMode::kPinned;
      BackpressureConfig backpressure;
      backpressure.high_watermark = config.backpressure_high;
      backpressure.low_watermark = config.backpressure_low;
      // The wrapper composes with the multi-root hierarchy: fds_top_roots
      // defaults to 1, which is the classic single-top cover.
      return std::unique_ptr<core::Scheduler>(
          std::make_unique<BackpressureScheduler>(
              deps.metric, deps.hierarchy(config.fds_top_roots),
              deps.ledger, fds, backpressure));
    }};
}  // namespace

}  // namespace stableshard::consensus
