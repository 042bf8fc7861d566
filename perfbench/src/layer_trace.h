// Outside-in layer tracing for the benchmark's traced run.
//
// Nothing here is compiled into the simulator: the benchmark registers a
// decorator for every scheduler in core::SchedulerRegistry and every
// strategy in adversary::StrategyRegistry under "traced.<name>", and a
// traced run selects those names. Each decorator builds the real product
// through the registry and times the calls into it; the scheduler
// decorator also times the hierarchy build it is handed and samples the
// scheduler's public memory accessors every kMemorySampleStride rounds.
// Decorators forward every call unchanged, so a traced run must reproduce
// the untraced SimResult bit for bit (the benchmark's digest gate checks
// that).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/strategy_registry.h"
#include "cluster/hierarchy.h"
#include "common/check.h"
#include "core/scheduler_registry.h"

namespace perfbench {

namespace sim = stableshard;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline constexpr const char* kTracedPrefix = "traced.";

/// The memory accessors walk every ring bucket and outbox lane (tens of µs
/// per call at s = 256 on the line), so the traced run samples their peak
/// on every 16th round rather than every round.
inline constexpr std::uint64_t kMemorySampleStride = 16;

/// What one traced Simulation records at the layer boundaries.
struct LayerTrace {
  // adversary: every Strategy::Next call.
  std::uint64_t next_calls = 0;
  double next_s = 0;
  // cluster: the hierarchy build the scheduler builder asked for, if any.
  bool hierarchy_built = false;
  double cluster_build_s = 0;
  // scheduler: StepShard busy time, the serial epilogue calls, and
  // per-round samples folded at the end of each round's epilogue.
  double step_busy_s = 0;
  double epilogue_s = 0;       ///< SealRound + FinishRound, or EndRound
  double end_round_s = 0;      ///< EndRound alone (serial epilogue path)
  std::vector<double> shard_busy_s;  ///< cumulative StepShard time per shard
  std::vector<double> round_skew;    ///< per round: max / mean StepShard time
  std::vector<double> round_us;      ///< per round: BeginRound .. epilogue end
  std::uint64_t ring_bytes_peak = 0;
  std::uint64_t outbox_bytes_peak = 0;
  std::uint64_t arena_bytes_peak = 0;
};

/// The trace the next traced Simulation's decorators record into. Set it
/// before constructing the Simulation: the registry builders run inside
/// the constructor and capture it there.
inline LayerTrace*& ActiveTrace() {
  static LayerTrace* trace = nullptr;
  return trace;
}

class TracedStrategy final : public sim::adversary::Strategy {
 public:
  TracedStrategy(std::unique_ptr<Strategy> inner, LayerTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  bool Next(sim::Round round, sim::Rng& rng,
            sim::adversary::Candidate* out) override {
    const auto start = Clock::now();
    const bool produced = inner_->Next(round, rng, out);
    trace_->next_s += SecondsBetween(start, Clock::now());
    ++trace_->next_calls;
    return produced;
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Strategy> inner_;
  LayerTrace* trace_;
};

class TracedScheduler final : public sim::core::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<Scheduler> inner, LayerTrace* trace)
      : inner_(std::move(inner)),
        trace_(trace),
        step_s_(inner_->shard_count(), 0.0) {
    trace_->shard_busy_s.assign(inner_->shard_count(), 0.0);
  }

  const Scheduler& inner() const { return *inner_; }

  void Inject(const sim::txn::Transaction& txn) override {
    inner_->Inject(txn);
  }
  void BeginRound(sim::Round round) override {
    round_start_ = Clock::now();
    inner_->BeginRound(round);
  }
  void StepShard(sim::ShardId shard, sim::Round round) override {
    const auto start = Clock::now();
    inner_->StepShard(shard, round);
    // Each shard's slot is written by exactly one StepShard call per
    // round; the serial epilogue reads the slots after the fan-out joined.
    step_s_[shard] = SecondsBetween(start, Clock::now());
  }
  void EndRound(sim::Round round) override {
    const auto start = Clock::now();
    inner_->EndRound(round);
    const double spent = SecondsBetween(start, Clock::now());
    trace_->epilogue_s += spent;
    trace_->end_round_s += spent;
    CloseRound();
  }
  void SealRound(sim::Round round, std::uint32_t parts) override {
    const auto start = Clock::now();
    inner_->SealRound(round, parts);
    trace_->epilogue_s += SecondsBetween(start, Clock::now());
  }
  void FlushRoundPartition(sim::Round round, std::uint32_t part,
                           std::uint32_t parts) override {
    inner_->FlushRoundPartition(round, part, parts);
  }
  void FinishRound(sim::Round round) override {
    const auto start = Clock::now();
    inner_->FinishRound(round);
    trace_->epilogue_s += SecondsBetween(start, Clock::now());
    CloseRound();
  }

  sim::ShardId shard_count() const override { return inner_->shard_count(); }
  bool Idle() const override { return inner_->Idle(); }
  double LeaderQueueMean() const override { return inner_->LeaderQueueMean(); }
  double LeaderQueueMax() const override { return inner_->LeaderQueueMax(); }
  std::uint64_t MessagesSent() const override {
    return inner_->MessagesSent();
  }
  std::uint64_t PayloadUnits() const override {
    return inner_->PayloadUnits();
  }
  sim::net::RingMemory NetworkMemory() const override {
    return inner_->NetworkMemory();
  }
  sim::net::LaneMemory OutboxMemory() const override {
    return inner_->OutboxMemory();
  }
  sim::common::ArenaMemoryStats ArenaMemory() const override {
    return inner_->ArenaMemory();
  }
  sim::net::ShardTraffic ShardTrafficFor(sim::ShardId shard) const override {
    return inner_->ShardTrafficFor(shard);
  }
  std::uint64_t QueueDepth(sim::ShardId shard) const override {
    return inner_->QueueDepth(shard);
  }
  std::uint64_t SpilledTxns() const override { return inner_->SpilledTxns(); }
  void OnShardLiveness(sim::ShardId shard,
                       sim::durability::ShardLiveness state) override {
    inner_->OnShardLiveness(shard, state);
  }
  const char* name() const override { return inner_->name(); }

 private:
  /// End of one round's epilogue (serial): fold the round's StepShard
  /// times and, on every kMemorySampleStride-th round, sample the memory
  /// accessors.
  void CloseRound() {
    double max_step = 0;
    double sum_step = 0;
    for (std::size_t shard = 0; shard < step_s_.size(); ++shard) {
      trace_->shard_busy_s[shard] += step_s_[shard];
      max_step = std::max(max_step, step_s_[shard]);
      sum_step += step_s_[shard];
    }
    trace_->step_busy_s += sum_step;
    if (sum_step > 0) {
      trace_->round_skew.push_back(
          max_step * static_cast<double>(step_s_.size()) / sum_step);
    }
    trace_->round_us.push_back(SecondsBetween(round_start_, Clock::now()) *
                               1e6);
    if (trace_->round_us.size() % kMemorySampleStride != 1) return;
    trace_->ring_bytes_peak =
        std::max(trace_->ring_bytes_peak,
                 inner_->NetworkMemory().bucket_capacity_bytes);
    trace_->outbox_bytes_peak = std::max(
        trace_->outbox_bytes_peak, inner_->OutboxMemory().capacity_bytes);
    trace_->arena_bytes_peak = std::max(
        trace_->arena_bytes_peak, inner_->ArenaMemory().reserved_bytes);
  }

  std::unique_ptr<Scheduler> inner_;
  LayerTrace* trace_;
  std::vector<double> step_s_;
  Clock::time_point round_start_{};
};

/// Register "traced.<name>" for every scheduler and strategy registered so
/// far. Call once, before any Simulation is constructed (the registries
/// are not locked).
inline void RegisterTracedDecorators() {
  auto& schedulers = sim::core::SchedulerRegistry::Global();
  for (const std::string& name : schedulers.Names()) {
    schedulers.Register(
        kTracedPrefix + name,
        [name](const sim::core::SimConfig& config,
               sim::core::SchedulerDeps& deps)
            -> std::unique_ptr<sim::core::Scheduler> {
          LayerTrace* trace = ActiveTrace();
          SSHARD_CHECK(trace != nullptr && "traced scheduler without a trace");
          sim::core::SchedulerDeps timed{
              deps.metric, deps.ledger,
              [trace, hierarchy = deps.hierarchy](std::uint32_t top_roots)
                  -> const sim::cluster::Hierarchy& {
                const auto start = Clock::now();
                const sim::cluster::Hierarchy& built = hierarchy(top_roots);
                trace->cluster_build_s += SecondsBetween(start, Clock::now());
                trace->hierarchy_built = true;
                return built;
              }};
          return std::make_unique<TracedScheduler>(
              sim::core::SchedulerRegistry::Global().Build(name, config,
                                                           timed),
              trace);
        });
  }
  auto& strategies = sim::adversary::StrategyRegistry::Global();
  for (const std::string& name : strategies.Names()) {
    strategies.Register(
        kTracedPrefix + name,
        [name](const sim::core::SimConfig& config,
               sim::adversary::StrategyDeps& deps)
            -> std::unique_ptr<sim::adversary::Strategy> {
          LayerTrace* trace = ActiveTrace();
          SSHARD_CHECK(trace != nullptr && "traced strategy without a trace");
          return std::make_unique<TracedStrategy>(
              sim::adversary::StrategyRegistry::Global().Build(name, config,
                                                               deps),
              trace);
        });
  }
}

}  // namespace perfbench
