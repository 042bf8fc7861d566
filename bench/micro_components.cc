// Hot-path micro-benchmark regression harness (BENCH_micro.json).
//
// Three tracked comparisons, each new implementation against the exact
// pre-rewrite ("legacy") implementation it replaced — the legacy code
// lives in this translation unit (and BuildLegacyAdjacency in the
// library, doubling as the differential-test oracle) so the comparison
// survives the rewrite:
//
//   csr_build          ConflictGraph's flat CSR two-pass build + bitmap
//                      row dedup vs the vector-of-vectors sort-based
//                      inverted-index build;
//   greedy_bounded_marks  ColorGraph's Delta+2-slot stamp-mark array vs
//                      the n+1-slot legacy one (same stores, cache-sized
//                      — bitsets lose here: marking must stay a pure
//                      store, not a word RMW);
//   bitset_dsatur      ColorGraph's uint64 saturation bitsets vs the
//                      std::set<Color> saturation sets;
//   arena_scratch      ColorShardCliques' bump-allocated step scratch
//                      (persistent arena, Reset per epoch — the
//                      scheduler steady state) vs the heap-allocating
//                      unordered_map + vector<vector<bool>> original.
//
// Every comparison also asserts the two sides produce identical output
// (same adjacency, same color vector) — the harness is a correctness
// differential first and a timing record second. Timings are best-of-N
// wall clock; on a noisy/1-vCPU box treat the speedup columns as
// indicative, the identity checks as binding.
//
//   build/bench/micro_components [--smoke] [--reps=5]
//       [--json=BENCH_micro.json]
//
// --smoke shrinks the workloads and reps for the CI perf-label ctest
// (micro_components_smoke); the identity checks still run in full.
// A second, non-comparative "components" section times the remaining
// round-loop constituents (network delivery, hierarchy build, token
// buckets) so their cost stays visible in the JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "adversary/token_bucket.h"
#include "chain/account_map.h"
#include "cluster/hierarchy.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "net/metric.h"
#include "net/network.h"
#include "txn/coloring.h"
#include "txn/conflict_graph.h"
#include "txn/txn_factory.h"

namespace {

using namespace stableshard;
using Clock = std::chrono::steady_clock;

constexpr Color kUncolored = static_cast<Color>(-1);

/// Defeats dead-code elimination: every timed body folds a value in here.
std::uint64_t g_sink = 0;

std::vector<txn::Transaction> MakeWorkload(std::size_t count,
                                           std::uint32_t k, ShardId shards) {
  const auto map = chain::AccountMap::RoundRobin(shards, shards);
  txn::TxnFactory factory(map);
  Rng rng(42);
  std::vector<txn::Transaction> txns;
  txns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto picks = rng.SampleWithoutReplacement(shards, k);
    std::vector<AccountId> accounts(picks.begin(), picks.end());
    txns.push_back(factory.MakeTouch(
        static_cast<ShardId>(rng.NextBounded(shards)), 0, accounts));
  }
  return txns;
}

std::vector<const txn::Transaction*> View(
    const std::vector<txn::Transaction>& txns) {
  std::vector<const txn::Transaction*> view;
  view.reserve(txns.size());
  for (const auto& t : txns) view.push_back(&t);
  return view;
}

template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

// ---------------------------------------------------------------------------
// Legacy implementations (verbatim pre-rewrite behavior), kept here as the
// timing baselines and identity oracles.

/// Pre-bitset greedy: per-color mark vector stamped with the current step.
txn::ColoringResult LegacyGreedyInOrder(
    const txn::ConflictGraph& graph,
    const std::vector<std::uint32_t>& order) {
  const std::size_t n = graph.size();
  txn::ColoringResult result;
  result.color.assign(n, kUncolored);
  std::vector<std::uint32_t> mark(n + 1, UINT32_MAX);
  for (std::uint32_t step = 0; step < order.size(); ++step) {
    const std::uint32_t v = order[step];
    for (const std::uint32_t u : graph.neighbors(v)) {
      if (result.color[u] != kUncolored) {
        mark[result.color[u]] = step;
      }
    }
    Color chosen = 0;
    while (mark[chosen] == step) ++chosen;
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
  }
  return result;
}

/// Pre-bitset DSATUR: std::set<Color> saturation sets, std::set priority
/// queue keyed (saturation, degree, ~v).
txn::ColoringResult LegacyDsatur(const txn::ConflictGraph& graph) {
  const std::size_t n = graph.size();
  txn::ColoringResult result;
  result.color.assign(n, kUncolored);
  result.used = txn::ColoringAlgorithm::kDsatur;
  if (n == 0) return result;

  std::vector<std::set<Color>> neighbor_colors(n);
  auto priority = [&](std::uint32_t v) {
    return std::tuple(neighbor_colors[v].size(), graph.degree(v),
                      ~static_cast<std::uint32_t>(v));
  };
  std::set<std::tuple<std::size_t, std::size_t, std::uint32_t>> queue;
  for (std::uint32_t v = 0; v < n; ++v) queue.insert(priority(v));

  for (std::size_t colored = 0; colored < n; ++colored) {
    const auto top = *queue.rbegin();
    queue.erase(std::prev(queue.end()));
    const std::uint32_t v = ~std::get<2>(top);
    Color chosen = 0;
    while (neighbor_colors[v].count(chosen) != 0) ++chosen;
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
    for (const std::uint32_t u : graph.neighbors(v)) {
      if (result.color[u] != kUncolored) continue;
      queue.erase(priority(u));
      neighbor_colors[u].insert(chosen);
      queue.insert(priority(u));
    }
  }
  return result;
}

/// Pre-arena clique coloring: unordered_map shard index, heap-allocated
/// ordering arrays and per-shard vector<bool> marks, all freed on return.
txn::ColoringResult LegacyColorShardCliques(
    const std::vector<const txn::Transaction*>& txns,
    txn::ColoringAlgorithm algorithm) {
  const std::size_t n = txns.size();
  txn::ColoringResult result;
  result.color.assign(n, kUncolored);
  if (n == 0) return result;

  std::unordered_map<ShardId, std::uint32_t> shard_index;
  std::vector<std::uint64_t> shard_load;
  for (const txn::Transaction* txn : txns) {
    for (const ShardId shard : txn->destinations()) {
      const auto [it, inserted] =
          shard_index.try_emplace(shard, shard_index.size());
      if (inserted) shard_load.push_back(0);
      ++shard_load[it->second];
    }
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (algorithm != txn::ColoringAlgorithm::kGreedy) {
    std::vector<std::uint64_t> proxy(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      for (const ShardId shard : txns[v]->destinations()) {
        proxy[v] += shard_load[shard_index[shard]] - 1;
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return proxy[a] > proxy[b];
                     });
  }

  std::vector<std::vector<bool>> used(shard_load.size());
  for (const std::uint32_t v : order) {
    Color chosen = 0;
    for (bool conflict = true; conflict;) {
      conflict = false;
      for (const ShardId shard : txns[v]->destinations()) {
        const auto& marks = used[shard_index[shard]];
        if (chosen < marks.size() && marks[chosen]) {
          conflict = true;
          ++chosen;
          break;
        }
      }
    }
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
    for (const ShardId shard : txns[v]->destinations()) {
      auto& marks = used[shard_index[shard]];
      if (marks.size() <= chosen) marks.resize(chosen + 1, false);
      marks[chosen] = true;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------

struct ComparisonRow {
  std::string name;
  std::size_t n = 0;
  double legacy_seconds = 0;
  double new_seconds = 0;
  double speedup = 0;
  bool identical = false;
};

struct ComponentRow {
  std::string name;
  std::size_t n = 0;
  double seconds = 0;
};

bool SameColoring(const txn::ColoringResult& a,
                  const txn::ColoringResult& b) {
  return a.num_colors == b.num_colors && a.color == b.color;
}

/// CSR rows vs the vector-of-vectors oracle, element for element.
bool SameAdjacency(const txn::ConflictGraph& graph,
                   const std::vector<std::vector<std::uint32_t>>& legacy) {
  if (graph.size() != legacy.size()) return false;
  for (std::size_t v = 0; v < legacy.size(); ++v) {
    const auto row = graph.neighbors(v);
    if (!std::equal(row.begin(), row.end(), legacy[v].begin(),
                    legacy[v].end())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const int reps =
      static_cast<int>(flags.GetUint("reps", smoke ? 2 : 5));
  const std::string json_path = flags.GetString("json", "BENCH_micro.json");
  if (!flags.FinishReads()) return 2;
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  std::vector<ComparisonRow> comparisons;
  bool all_identical = true;
  const auto record = [&](std::string name, std::size_t n, double legacy_s,
                          double new_s, bool identical) {
    ComparisonRow row;
    row.name = std::move(name);
    row.n = n;
    row.legacy_seconds = legacy_s;
    row.new_seconds = new_s;
    row.speedup = new_s > 0 ? legacy_s / new_s : 0.0;
    row.identical = identical;
    all_identical = all_identical && identical;
    comparisons.push_back(row);
  };

  // -- csr_build: flat CSR two-pass build vs vector-of-vectors. Shard
  // granularity (what the schedulers color); 64 shards, k = 8 keeps the
  // per-shard cliques dense enough that the build is allocation-bound.
  {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{512}
              : std::vector<std::size_t>{1024, 4096};
    for (const std::size_t n : sizes) {
      const auto txns = MakeWorkload(n, 8, 64);
      const auto view = View(txns);
      const double legacy_s = BestOf(reps, [&] {
        const auto adjacency = txn::BuildLegacyAdjacency(
            view, txn::ConflictGranularity::kShard);
        g_sink += adjacency.back().size();
      });
      const double new_s = BestOf(reps, [&] {
        const txn::ConflictGraph graph(view,
                                       txn::ConflictGranularity::kShard);
        g_sink += graph.MaxDegree();
      });
      const txn::ConflictGraph graph(view, txn::ConflictGranularity::kShard);
      const auto legacy = txn::BuildLegacyAdjacency(
          view, txn::ConflictGranularity::kShard);
      record("csr_build", n, legacy_s, new_s, SameAdjacency(graph, legacy));
    }
  }

  // -- graph colorings on prebuilt graphs: 256 shards sparsifies the
  // cliques so the coloring loop (not the build) dominates. Greedy's win
  // is the degree-bounded mark array, so it's measured at burst-epoch
  // sizes where n+1 marks fall out of cache; DSATUR's is the saturation
  // bitsets replacing std::set<Color>, already decisive at moderate n.
  {
    const std::vector<std::size_t> greedy_sizes =
        smoke ? std::vector<std::size_t>{1024}
              : std::vector<std::size_t>{4096, 16384};
    for (const std::size_t n : greedy_sizes) {
      const auto txns = MakeWorkload(n, 8, 256);
      const auto view = View(txns);
      const txn::ConflictGraph graph(view, txn::ConflictGranularity::kShard);
      std::vector<std::uint32_t> order(graph.size());
      std::iota(order.begin(), order.end(), 0);
      const double legacy_s = BestOf(reps, [&] {
        g_sink += LegacyGreedyInOrder(graph, order).num_colors;
      });
      const double new_s = BestOf(reps, [&] {
        g_sink +=
            ColorGraph(graph, txn::ColoringAlgorithm::kGreedy).num_colors;
      });
      record("greedy_bounded_marks", n, legacy_s, new_s,
             SameColoring(LegacyGreedyInOrder(graph, order),
                          ColorGraph(graph,
                                     txn::ColoringAlgorithm::kGreedy)));
    }

    const std::vector<std::size_t> dsatur_sizes =
        smoke ? std::vector<std::size_t>{512}
              : std::vector<std::size_t>{1024, 4096};
    for (const std::size_t n : dsatur_sizes) {
      const auto txns = MakeWorkload(n, 8, 256);
      const auto view = View(txns);
      const txn::ConflictGraph graph(view, txn::ConflictGranularity::kShard);
      const double legacy_s = BestOf(reps, [&] {
        g_sink += LegacyDsatur(graph).num_colors;
      });
      const double new_s = BestOf(reps, [&] {
        g_sink +=
            ColorGraph(graph, txn::ColoringAlgorithm::kDsatur).num_colors;
      });
      record("bitset_dsatur", n, legacy_s, new_s,
             SameColoring(LegacyDsatur(graph),
                          ColorGraph(graph,
                                     txn::ColoringAlgorithm::kDsatur)));
    }
  }

  // -- arena_scratch: clique coloring with a persistent arena, Reset per
  // epoch (the BDS/FDS StepShard steady state — zero heap traffic after
  // the first epoch) vs the heap-allocating original. Burst-epoch sizes.
  {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{1024}
              : std::vector<std::size_t>{4096, 16384};
    for (const std::size_t n : sizes) {
      const auto txns = MakeWorkload(n, 8, 64);
      const auto view = View(txns);
      common::Arena arena;
      const double legacy_s = BestOf(reps, [&] {
        g_sink +=
            LegacyColorShardCliques(view, txn::ColoringAlgorithm::kGreedy)
                .num_colors;
      });
      const double new_s = BestOf(reps, [&] {
        arena.Reset();
        g_sink += ColorShardCliques(view, txn::ColoringAlgorithm::kGreedy,
                                    arena)
                      .num_colors;
      });
      arena.Reset();
      record("arena_scratch", n, legacy_s, new_s,
             SameColoring(
                 LegacyColorShardCliques(view,
                                         txn::ColoringAlgorithm::kGreedy),
                 ColorShardCliques(view, txn::ColoringAlgorithm::kGreedy,
                                   arena)));
    }
  }

  // -- non-comparative component timings (kept from the old suite so the
  // round loop's other constituents stay visible in the JSON).
  std::vector<ComponentRow> components;
  {
    const std::size_t messages = smoke ? 1000 : 10000;
    net::LineMetric metric(64);
    components.push_back(
        {"network_send_deliver", messages, BestOf(reps, [&] {
           Rng rng(3);
           net::Network<int> network(metric);
           Round now = 0;
           for (std::size_t i = 0; i < messages; ++i) {
             network.Send(static_cast<ShardId>(rng.NextBounded(64)),
                          static_cast<ShardId>(rng.NextBounded(64)), now,
                          static_cast<int>(i));
           }
           while (network.HasPending()) {
             g_sink += network.Deliver(++now).size();
           }
         })});

    const ShardId hierarchy_shards = smoke ? 64 : 256;
    net::LineMetric hierarchy_metric(hierarchy_shards);
    components.push_back(
        {"hierarchy_build_sparse_cover", hierarchy_shards, BestOf(reps, [&] {
           g_sink += cluster::Hierarchy::BuildSparseCover(hierarchy_metric)
                         .clusters()
                         .size();
         })});

    const ShardId buckets = 1024;
    adversary::TokenBucketArray bucket_array(buckets, 0.1, 100);
    components.push_back({"token_bucket_tick", buckets, BestOf(reps, [&] {
                            bucket_array.Tick();
                            g_sink += static_cast<std::uint64_t>(
                                bucket_array.MinTokens());
                          })});
  }

  std::printf("micro_components: best of %d reps%s (g_sink=%llu)\n\n", reps,
              smoke ? ", smoke sizes" : "",
              static_cast<unsigned long long>(g_sink % 10));
  std::printf("%-20s %8s | %12s %12s %8s | %9s\n", "comparison", "n",
              "legacy_us", "new_us", "speedup", "identical");
  for (const ComparisonRow& row : comparisons) {
    std::printf("%-20s %8zu | %12.1f %12.1f %7.2fx | %9s\n",
                row.name.c_str(), row.n, 1e6 * row.legacy_seconds,
                1e6 * row.new_seconds, row.speedup,
                row.identical ? "yes" : "NO");
  }
  std::printf("\n%-28s %8s | %12s\n", "component", "n", "best_us");
  for (const ComponentRow& row : components) {
    std::printf("%-28s %8zu | %12.1f\n", row.name.c_str(), row.n,
                1e6 * row.seconds);
  }

  std::fprintf(json,
               "{\n  \"bench\": \"micro_components\",\n"
               "  \"smoke\": %s,\n  \"reps\": %d,\n"
               "  \"comparisons\": [\n",
               smoke ? "true" : "false", reps);
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const ComparisonRow& row = comparisons[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"n\": %zu,\n"
                 "     \"legacy_seconds\": %.9f, \"new_seconds\": %.9f,\n"
                 "     \"speedup\": %.4f, \"identical\": %s}%s\n",
                 row.name.c_str(), row.n, row.legacy_seconds,
                 row.new_seconds, row.speedup,
                 row.identical ? "true" : "false",
                 i + 1 < comparisons.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"components\": [\n");
  for (std::size_t i = 0; i < components.size(); ++i) {
    const ComponentRow& row = components[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"n\": %zu, \"seconds\": %.9f}%s\n",
                 row.name.c_str(), row.n, row.seconds,
                 i + 1 < components.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_identical &&
               "a rewritten hot-path component diverged from its legacy "
               "baseline");
  std::printf("\nall comparisons identical to their legacy baselines; "
              "table written to %s\n",
              json_path.c_str());
  return 0;
}
