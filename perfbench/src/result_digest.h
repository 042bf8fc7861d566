// Per-run digest of a SimResult: an FNV-1a over every field, doubles by
// their bit pattern. Repetitions of one workload and seed, traced or not,
// must produce the same digest; on a mismatch FirstDifference names the
// field, so a failing gate points at what diverged.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"

namespace perfbench {

using stableshard::core::SimResult;

inline std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Every SimResult field as (name, 64-bit value), in declaration order.
inline std::vector<std::pair<const char*, std::uint64_t>> ResultFields(
    const SimResult& r) {
  return {
      {"avg_pending_per_shard", Bits(r.avg_pending_per_shard)},
      {"avg_latency", Bits(r.avg_latency)},
      {"max_latency", Bits(r.max_latency)},
      {"p50_latency", Bits(r.p50_latency)},
      {"p99_latency", Bits(r.p99_latency)},
      {"avg_leader_queue", Bits(r.avg_leader_queue)},
      {"max_leader_queue", Bits(r.max_leader_queue)},
      {"max_single_leader_queue", Bits(r.max_single_leader_queue)},
      {"injected", r.injected},
      {"committed", r.committed},
      {"aborted", r.aborted},
      {"unresolved", r.unresolved},
      {"max_pending", r.max_pending},
      {"spill_peak", r.spill_peak},
      {"messages", r.messages},
      {"payload_units", r.payload_units},
      {"offered_txns", r.offered_txns},
      {"injected_txns", r.injected_txns},
      {"inject_lag_peak", r.inject_lag_peak},
      {"wal_bytes", r.wal_bytes},
      {"checkpoint_count", r.checkpoint_count},
      {"replay_bytes", r.replay_bytes},
      {"recovery_rounds", r.recovery_rounds},
      {"rounds_executed", r.rounds_executed},
      {"drained", r.drained ? 1u : 0u},
  };
}

inline std::uint64_t Digest(const SimResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [name, value] : ResultFields(result)) {
    (void)name;
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Name of the first field where `a` and `b` differ ("" when identical).
inline std::string FirstDifference(const SimResult& a, const SimResult& b) {
  const auto fa = ResultFields(a);
  const auto fb = ResultFields(b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].second != fb[i].second) return fa[i].first;
  }
  return "";
}

/// The benchmark's output gate on one result: the accounting identity, a
/// full drain, and every offered arrival injected. Returns the violated
/// conditions, each naming its fields (empty when the result passes).
inline std::vector<std::string> CheckResult(const SimResult& r) {
  std::vector<std::string> violations;
  if (r.injected != r.committed + r.aborted + r.unresolved) {
    violations.push_back(
        "injected != committed + aborted + unresolved (injected=" +
        std::to_string(r.injected) + " committed=" +
        std::to_string(r.committed) + " aborted=" + std::to_string(r.aborted) +
        " unresolved=" + std::to_string(r.unresolved) + ")");
  }
  if (!r.drained || r.unresolved != 0) {
    violations.push_back("drained=false or unresolved=" +
                         std::to_string(r.unresolved) + " after the drain");
  }
  if (r.offered_txns != r.injected_txns || r.injected_txns != r.injected) {
    violations.push_back("offered_txns=" + std::to_string(r.offered_txns) +
                         " injected_txns=" + std::to_string(r.injected_txns) +
                         " injected=" + std::to_string(r.injected) +
                         " are not all equal");
  }
  if (r.committed == 0) violations.push_back("committed=0");
  return violations;
}

/// The gate must catch a broken result: perturb one field per condition
/// and confirm CheckResult and FirstDifference report it. Returns what the
/// gate missed (empty when it caught everything). Run by the smoke mode.
inline std::vector<std::string> GateSelfTest(const SimResult& good) {
  std::vector<std::string> missed;
  const auto expect = [&](SimResult broken, const char* field,
                          bool check_flags) {
    if (FirstDifference(good, broken) != field ||
        Digest(good) == Digest(broken) ||
        CheckResult(broken).empty() != !check_flags) {
      missed.push_back(std::string("gate self-test missed a change to ") +
                       field);
    }
  };
  SimResult broken = good;
  ++broken.committed;
  expect(broken, "committed", true);
  broken = good;
  broken.drained = false;
  expect(broken, "drained", true);
  broken = good;
  ++broken.offered_txns;
  expect(broken, "offered_txns", true);
  broken = good;
  broken.p99_latency += 1;
  expect(broken, "p99_latency", false);
  if (!CheckResult(good).empty()) missed.push_back("gate rejects a good run");
  return missed;
}

}  // namespace perfbench
