// Hierarchical cluster decomposition of the shard graph (paper Section 6.1).
//
// The FDS scheduler uses a hierarchy of H1 = ceil(log D) + 1 layers; each
// layer l is a sparse cover of G_s organized in H2 sub-layers such that:
//   (i)  every cluster of layer l has strong diameter O(2^l log s);
//   (ii) each shard belongs to O(log s) clusters of layer l;
//   (iii) for every shard S there is a layer-l cluster containing the whole
//         (2^l - 1)-neighborhood of S.
// Within each cluster a leader shard is designated whose (2^l - 1)-
// neighborhood lies inside the cluster; leaderless clusters are never used
// as home clusters (paper Section 6.1).
//
// Two constructions are provided:
//  * BuildLineShifted — the construction used in the paper's simulation
//    (Section 7): layer-l clusters are contiguous index intervals of
//    2^{l+1} shards; the second sub-layer shifts the partition right by
//    half a cluster. Intended for the line topology (it relies on shard
//    indices tracking positions).
//  * BuildSparseCover — a generic net-based cover for arbitrary metrics:
//    layer-l cluster centers form a greedy 2^l-net and each cluster is the
//    ball B(center, 2^{l+1} - 1), which contains every member's
//    (2^l - 1)-neighborhood center-wise; property (iii) holds by the net
//    property, and the center is always a valid leader.
//
// Property (iii) caveat for the shifted-line construction: with only two
// sub-layers, interior shards near cluster boundaries of high layers may
// have their (2^l - 1)-neighborhood split across clusters. The home-cluster
// lookup (FindHomeCluster) then simply falls through to a higher layer, so
// correctness is unaffected; this mirrors the paper's own simulation setup.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/metric.h"

namespace stableshard::cluster {

struct Cluster {
  std::uint32_t id = 0;        ///< index into Hierarchy::clusters()
  std::uint32_t layer = 0;     ///< l in [0, H1)
  std::uint32_t sublayer = 0;  ///< j in [0, H2)
  std::vector<ShardId> shards; ///< members, ascending
  std::vector<bool> member;    ///< size s bitmap for O(1) Contains
  ShardId leader = kInvalidShard;
  Distance diameter = 0;       ///< strong (induced) diameter
  /// Full-membership top-layer root (one of `top_roots` interchangeable
  /// copies): FindHomeCluster spreads diameter-spanning transactions across
  /// these instead of funneling everything through one of them.
  bool top_root = false;

  bool HasLeader() const { return leader != kInvalidShard; }
  bool Contains(ShardId shard) const { return member[shard]; }
  std::size_t size() const { return shards.size(); }
};

class Hierarchy {
 public:
  /// Paper-Section-7 construction for line-like topologies (see header).
  /// `top_roots` (>= 1, clamped to the shard count) is the number of
  /// full-membership top-layer root clusters: with 1 the construction is
  /// exactly the single-top hierarchy; with k > 1 the top cover is split
  /// into k interchangeable roots with pairwise-distinct leader shards, so
  /// diameter-spanning transactions no longer degenerate onto one leader.
  static Hierarchy BuildLineShifted(const net::ShardMetric& metric,
                                    std::uint32_t top_roots = 1);

  /// Generic net-based sparse cover for arbitrary metrics (same
  /// `top_roots` contract as BuildLineShifted).
  static Hierarchy BuildSparseCover(const net::ShardMetric& metric,
                                    std::uint32_t top_roots = 1);

  const std::vector<Cluster>& clusters() const { return clusters_; }
  std::uint32_t layer_count() const { return layer_count_; }      ///< H1
  std::uint32_t sublayer_count() const { return sublayer_count_; } ///< H2

  /// Max cluster diameter at a layer (the d_i of Lemma 2; >= 1).
  Distance layer_diameter(std::uint32_t layer) const;

  /// Clusters containing `shard`, ordered by (layer, sublayer, id).
  const std::vector<std::uint32_t>& clusters_containing(ShardId shard) const;

  /// The home cluster for a transaction whose home shard is `home` and whose
  /// farthest accessed shard is at distance `x`: the lowest (layer, sublayer)
  /// cluster that contains the whole x-neighborhood of `home` and has a
  /// leader. Never fails: the top layer has a full-membership cluster.
  /// When the scan lands on a top-layer root and the hierarchy was built
  /// with top_roots > 1, the returned root is chosen deterministically by
  /// (home + salt) mod top_roots — callers pass a per-transaction salt
  /// (e.g. the txn id) so diameter-spanning load hashes across the roots
  /// instead of piling onto the first one. All roots are full-membership
  /// and leadered, so any choice is sound.
  const Cluster& FindHomeCluster(ShardId home, Distance x,
                                 std::uint64_t salt = 0) const;

  /// FindHomeCluster in two halves. ScanHomeCluster is the O(s) scan: the
  /// id of the first cluster, in (layer, sublayer, id) order, that contains
  /// the x-neighborhood of `home` and has a leader. It depends on (home, x)
  /// only, so a caller may memoize it. SpreadTopRoot applies the salt: it
  /// returns the scanned cluster unless that is a top root of a multi-root
  /// hierarchy. FindHomeCluster(h, x, salt) ==
  /// SpreadTopRoot(ScanHomeCluster(h, x), h, salt).
  std::uint32_t ScanHomeCluster(ShardId home, Distance x) const;
  const Cluster& SpreadTopRoot(std::uint32_t scanned, ShardId home,
                               std::uint64_t salt) const;

  /// Ids of the full-membership top-layer roots (size >= 1 after Finalize).
  const std::vector<std::uint32_t>& top_roots() const { return top_roots_; }

  /// Max number of layer-`layer` clusters any single shard belongs to
  /// (property (ii) observable).
  std::uint32_t MaxMembership(std::uint32_t layer) const;

  const net::ShardMetric& metric() const { return *metric_; }

 private:
  explicit Hierarchy(const net::ShardMetric& metric);

  void AddCluster(std::uint32_t layer, std::uint32_t sublayer,
                  std::vector<ShardId> shards);
  /// Sort per-shard cluster lists, ensure a leadered top cluster exists and
  /// split the top cover into `top_roots` roots (see BuildLineShifted).
  void Finalize(std::uint32_t top_roots);

  const net::ShardMetric* metric_;
  std::uint32_t layer_count_ = 0;
  std::uint32_t sublayer_count_ = 0;
  std::vector<Cluster> clusters_;
  std::vector<std::vector<std::uint32_t>> containing_;  // shard -> cluster ids
  std::vector<std::uint32_t> top_roots_;                // root cluster ids
  /// Construction-time scratch for the leader-placement spread: per layer,
  /// which shards already lead a cluster of that layer (AddCluster avoids
  /// them when the cluster has an untaken qualifying candidate).
  std::vector<std::vector<std::uint8_t>> leads_in_layer_;
};

}  // namespace stableshard::cluster
