#include "core/fds.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/math_util.h"
#include "core/scheduler_registry.h"

namespace stableshard::core {

FdsScheduler::FdsScheduler(const net::ShardMetric& metric,
                           const cluster::Hierarchy& hierarchy,
                           CommitLedger& ledger, const FdsConfig& config)
    : NetworkedScheduler(metric, ledger),
      metric_(&metric),
      hierarchy_(&hierarchy),
      config_(config),
      protocol_(metric.shard_count(), outbox_, ledger,
                [this](TxnId txn, std::uint32_t cluster, bool committed) {
                  OnDecided(txn, cluster, committed);
                },
                config.commit_mode),
      cluster_state_(hierarchy.clusters().size()),
      home_outgoing_(metric.shard_count()),
      home_cluster_memo_(metric.shard_count()),
      buffered_by_home_(metric.shard_count(), 0),
      coloring_work_(metric.shard_count()),
      step_arenas_(metric.shard_count()),
      reschedules_by_shard_(metric.shard_count(), 0),
      inbox_(metric.shard_count()) {
  // Derive the aligned base epoch length E_0 (see header).
  Round e0 = 4;
  for (std::uint32_t layer = 0; layer < hierarchy.layer_count(); ++layer) {
    const Round needed =
        CeilDiv(2ull * hierarchy.layer_diameter(layer) + 3, 1ull << layer);
    e0 = std::max(e0, needed);
  }
  e0_ = e0;
  clusters_led_by_.resize(metric.shard_count());
  for (const cluster::Cluster& cluster : hierarchy.clusters()) {
    if (cluster.HasLeader()) {
      leadered_clusters_.push_back(cluster.id);
      clusters_led_by_[cluster.leader].push_back(cluster.id);
    }
  }
}

Round FdsScheduler::epoch_length(std::uint32_t layer) const {
  return e0_ << layer;
}

std::uint64_t FdsScheduler::reschedules() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : reschedules_by_shard_) total += count;
  return total;
}

void FdsScheduler::Inject(const txn::Transaction& txn) {
  SSHARD_SERIAL_PHASE(ownership_);
  // Home cluster: lowest-level cluster covering the x-neighborhood of the
  // home shard, x = distance to the farthest destination (Section 6.1).
  Distance x = 0;
  for (const ShardId dest : txn.destinations()) {
    x = std::max(x, metric_->distance(txn.home(), dest));
  }
  // The txn id salts the top-root choice: diameter-spanning transactions
  // hash across the interchangeable roots (multi-root hierarchies only; a
  // single-top hierarchy ignores the salt entirely). Salting by home alone
  // would collapse back to one root under two-endpoint workloads like
  // diameter_span.
  const cluster::Cluster& home_cluster = hierarchy_->SpreadTopRoot(
      ScannedHomeCluster(txn.home(), x), txn.home(), txn.id());
  ClusterState& state = cluster_state_[home_cluster.id];
  if (!state.ever_used) {
    state.ever_used = true;
    ++used_cluster_count_;
  }
  home_outgoing_[txn.home()][home_cluster.id].push_back(txn);
  ++buffered_by_home_[txn.home()];
}

std::uint32_t FdsScheduler::ScannedHomeCluster(ShardId home, Distance x) {
  std::vector<std::uint32_t>& memo = home_cluster_memo_[home];
  if (memo.size() <= x) memo.resize(std::size_t{x} + 1, kUnscanned);
  if (memo[x] == kUnscanned) memo[x] = hierarchy_->ScanHomeCluster(home, x);
  return memo[x];
}

void FdsScheduler::OnDecided(TxnId txn, std::uint32_t cluster,
                             bool committed) {
  // Runs in the coordinating (leader) shard's StepShard: the cluster's
  // sch_ldr is that shard's state.
  SSHARD_OWNED(ownership_, hierarchy_->clusters()[cluster].leader);
  (void)committed;
  ClusterState& state = cluster_state_[cluster];
  const auto erased = state.active.erase(txn);
  SSHARD_CHECK(erased == 1 && "decided txn missing from sch_ldr");
}

void FdsScheduler::BeginRound(Round round) {
  // The serial prologue itself may touch any shard; arm the step-phase
  // guards for the StepShard fan-out that follows (core/ownership.h).
  ownership_.BeginStepPhase();
  // Plan this round's colorings, grouped by leader shard, in the same
  // deterministic leadered_clusters_ order the monolithic loop used.
  for (std::vector<std::uint32_t>& lane : coloring_work_) lane.clear();
  for (const std::uint32_t id : leadered_clusters_) {
    const cluster::Cluster& cluster = hierarchy_->clusters()[id];
    const Round e_i = epoch_length(cluster.layer);
    const Round offset = round % e_i;
    const Round coloring_offset =
        std::max<Round>(1, std::min<Round>(e_i - 1, cluster.diameter));
    if (offset == coloring_offset) {
      coloring_work_[cluster.leader].push_back(id);
    }
  }
}

void FdsScheduler::StepShard(ShardId shard, Round round) {
  const OwnershipRegistry::ShardClaim claim(ownership_, shard);
  // Deliver: protocol messages are handled inline; Phase-1 batches land in
  // the leader's incoming set.
  network_.DeliverTo(shard, round, inbox_[shard]);
  for (auto& envelope : inbox_[shard]) {
    if (protocol_.HandleMessage(shard, envelope.payload, round)) {
      continue;
    }
    auto* batch = std::get_if<TxnBatchMsg>(&envelope.payload);
    SSHARD_CHECK(batch != nullptr && "unexpected message type in FDS");
    SSHARD_CHECK(shard == hierarchy_->clusters()[batch->cluster].leader);
    ClusterState& state = cluster_state_[batch->cluster];
    for (auto& txn : batch->txns) state.incoming.push_back(std::move(txn));
  }

  // Phase 1, home side: ship buffered transactions for every cluster whose
  // epoch starts this round.
  auto& outgoing = home_outgoing_[shard];
  for (auto it = outgoing.begin(); it != outgoing.end();) {
    const cluster::Cluster& cluster = hierarchy_->clusters()[it->first];
    const Round e_i = epoch_length(cluster.layer);
    if (round % e_i != 0 || it->second.empty()) {
      ++it;
      continue;
    }
    TxnBatchMsg batch;
    batch.cluster = cluster.id;
    batch.epoch = round / e_i;
    buffered_by_home_[shard] -= it->second.size();
    const std::uint64_t units = it->second.size();
    batch.txns = std::move(it->second);
    outbox_.Send(shard, cluster.leader, Message{std::move(batch)}, units);
    it = outgoing.erase(it);
  }

  // Phase 2, leader side: colorings planned for this shard this round.
  // The shard-owned arena recycles the previous coloring round's scratch;
  // every coloring this shard runs this round bump-allocates from it.
  if (!coloring_work_[shard].empty()) step_arenas_[shard].Reset();
  for (const std::uint32_t id : coloring_work_[shard]) {
    RunColoring(hierarchy_->clusters()[id], shard, round);
  }

  // Algorithm 2b: this destination votes for its queue head.
  protocol_.IssueVotesForShard(shard, round);
}

void FdsScheduler::RunColoring(const cluster::Cluster& cluster,
                               ShardId leader, Round round) {
  SSHARD_OWNED(ownership_, leader);
  ClusterState& state = cluster_state_[cluster.id];
  const Round e_i = epoch_length(cluster.layer);
  const Round epoch_start = (round / e_i) * e_i;
  const Round t_end = epoch_start + e_i;

  // Rescheduling: the epoch end coincides with a rescheduling period P_k
  // for some k > layer iff t_end is a multiple of 2 * E_i.
  const bool reschedule = config_.reschedule && (t_end % (2 * e_i) == 0) &&
                          !state.active.empty();

  if (state.incoming.empty() && !reschedule) return;

  // Collect the coloring set: new transactions, plus (on reschedule) every
  // scheduled-but-undecided transaction of this cluster. The view and the
  // coloring's internal scratch bump-allocate from the leader shard's step
  // arena (reset once per coloring round in StepShard).
  common::Arena& arena = step_arenas_[leader];
  common::ArenaVector<const txn::Transaction*> view{
      common::ArenaAllocator<const txn::Transaction*>(&arena)};
  view.reserve(state.incoming.size() + (reschedule ? state.active.size() : 0));
  const std::size_t new_count = state.incoming.size();
  for (const auto& txn : state.incoming) view.push_back(&txn);
  if (reschedule) {
    ++reschedules_by_shard_[leader];
    // sch_ldr is an unordered_map and the coloring result depends on view
    // order, so the undecided set must be sorted into a platform-neutral
    // order (by txn id) before it feeds the coloring.
    const std::size_t first_active = view.size();
    // lint:allow(unordered-iteration): sorted by txn id immediately below.
    for (const auto& [id, txn] : state.active) {
      (void)id;
      view.push_back(&txn);
    }
    std::sort(view.begin() + static_cast<std::ptrdiff_t>(first_active),
              view.end(),
              [](const txn::Transaction* a, const txn::Transaction* b) {
                return a->id() < b->id();
              });
  }

  const txn::ColoringResult coloring =
      ColorShardCliques(view, config_.coloring, arena);
  SSHARD_DCHECK(IsProperShardColoring(view, coloring.color));

  for (std::size_t v = 0; v < view.size(); ++v) {
    const txn::Transaction& txn = *view[v];
    const Height height{t_end, cluster.layer, cluster.sublayer,
                        coloring.color[v], txn.id()};
    const bool is_new = v < new_count;
    if (is_new) {
      protocol_.Coordinate(leader, txn, cluster.id);
    }
    protocol_.SendSubTxns(leader, txn, height, cluster.id,
                          /*update=*/!is_new);
  }
  for (auto& txn : state.incoming) {
    const TxnId id = txn.id();
    state.active.emplace(id, std::move(txn));
  }
  state.incoming.clear();
}

bool FdsScheduler::Idle() const {
  for (const std::uint64_t buffered : buffered_by_home_) {
    if (buffered != 0) return false;
  }
  if (network_.HasPending() || !protocol_.Idle()) return false;
  for (const std::uint32_t id : leadered_clusters_) {
    const ClusterState& state = cluster_state_[id];
    if (!state.incoming.empty() || !state.active.empty()) return false;
  }
  return true;
}

double FdsScheduler::LeaderQueueMean() const {
  if (used_cluster_count_ == 0) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint32_t id : leadered_clusters_) {
    total += cluster_state_[id].active.size();
  }
  return static_cast<double>(total) /
         static_cast<double>(used_cluster_count_);
}

double FdsScheduler::LeaderQueueMax() const {
  // The single hottest cluster queue: sch_ldr plus the epoch's incoming
  // batch — the undiluted signal of one leader degenerating (the mean
  // above spreads it over every used cluster).
  std::uint64_t max_queue = 0;
  for (const std::uint32_t id : leadered_clusters_) {
    const ClusterState& state = cluster_state_[id];
    max_queue = std::max<std::uint64_t>(
        max_queue, state.active.size() + state.incoming.size());
  }
  return static_cast<double>(max_queue);
}

namespace {
FdsConfig FdsConfigFrom(const SimConfig& config) {
  FdsConfig fds;
  fds.coloring = config.coloring;
  fds.reschedule = config.fds_reschedule;
  fds.commit_mode = config.fds_pipelined ? CommitMode::kPipelined
                                         : CommitMode::kPinned;
  return fds;
}

// "fds" is the paper's hierarchy verbatim: a single top-layer root (the
// fds_top_roots knob is deliberately ignored — the multi-root hierarchy is
// its own registered mode, so the baseline stays the baseline).
const SchedulerRegistrar kFdsRegistrar{
    "fds", [](const SimConfig& config, SchedulerDeps& deps) {
      return std::unique_ptr<Scheduler>(std::make_unique<FdsScheduler>(
          deps.metric, deps.hierarchy(1), deps.ledger,
          FdsConfigFrom(config)));
    }};

// "fds_multiroot": the hierarchy's top cover split into
// SimConfig::fds_top_roots interchangeable roots (1 reduces to the exact
// single-top hierarchy — the bit-identity golden in leader_sharding_test).
const SchedulerRegistrar kFdsMultirootRegistrar{
    "fds_multiroot", [](const SimConfig& config, SchedulerDeps& deps) {
      SSHARD_CHECK(config.fds_top_roots >= 1);
      return std::unique_ptr<Scheduler>(std::make_unique<FdsScheduler>(
          deps.metric, deps.hierarchy(config.fds_top_roots), deps.ledger,
          FdsConfigFrom(config)));
    }};
}  // namespace

}  // namespace stableshard::core
