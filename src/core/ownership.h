// Shard-ownership runtime checker for Debug/ASan builds.
//
// The shard-parallel round loop is correct because every piece of in-round
// state has exactly one owner: during the StepShard fan-out, shard-owned
// state may only be touched by the StepShard invocation of that shard;
// during the partitioned flush, per-destination state only by the worker
// owning that destination range. TSan catches violations of this contract
// only when two threads actually race on the same cache line in the same
// run — a scheduling lottery. The OwnershipRegistry turns the whole class
// into a *deterministic* failure: each scheduler records the claim a
// worker holds (the stepped shard, or the flushed destination range) and
// SSHARD_OWNED guards on shard-owned state abort immediately — with the
// shard id in the message — when code touches a shard outside the calling
// worker's claim. Because claims are per-logical-slice rather than
// per-thread, the checker even catches same-thread cross-shard touches
// (StepShard(5) reaching into shard 1's queue), which no thread sanitizer
// can see; a single-worker Debug run already fails.
//
// Phases mirror core/scheduler.h's call-order contract:
//   kSerial — Inject / BeginRound / FinishRound and everything between
//             rounds: any code may touch any shard (guards pass).
//   kStep   — between BeginRound's end and SealRound: guards require the
//             calling worker's ShardClaim to cover the shard.
//   kFlush  — between SealRound and FinishRound: guards require the
//             worker's RangeClaim (the FlushShardRange) to cover it; with
//             one partition the claim is every shard.
//
// Zero-cost in Release: under NDEBUG the registry is an empty struct, the
// claims are empty RAII shells and SSHARD_OWNED compiles to nothing, so
// the hot path is untouched (the bit-identity contract of
// `parallel_rounds --check` holds with the checker active — it only ever
// reads scheduler state, never mutates it).
#pragma once

#include "common/types.h"

#ifndef NDEBUG
#include <atomic>
#include <cstdint>
#include <vector>
#endif

namespace stableshard::core {

#ifndef NDEBUG

class OwnershipRegistry {
 private:
  /// The calling worker's current claim (thread-local; nestable).
  struct ThreadClaim {
    const OwnershipRegistry* registry = nullptr;
    ShardId begin = 0;
    ShardId end = 0;
  };

 public:
  enum class Phase : std::uint8_t { kSerial, kStep, kFlush };

  explicit OwnershipRegistry(ShardId shards)
      : owner_(shards), phase_(Phase::kSerial) {
    for (auto& owner : owner_) owner.store(0, std::memory_order_relaxed);
  }

  OwnershipRegistry(const OwnershipRegistry&) = delete;
  OwnershipRegistry& operator=(const OwnershipRegistry&) = delete;

  /// Serial phase transitions — driving thread only, matching the
  /// scheduler call-order contract. Each transition wipes the previous
  /// phase's owner records.
  void BeginStepPhase() { BeginPhase(Phase::kStep); }
  void BeginFlushPhase() { BeginPhase(Phase::kFlush); }
  void EndParallelPhase() { BeginPhase(Phase::kSerial); }

  Phase phase() const { return phase_; }

  /// RAII claim of one shard for the calling worker (StepShard body).
  /// Claims nest (a bench worker driving a whole nested simulation saves
  /// and restores the outer claim).
  class ShardClaim {
   public:
    ShardClaim(OwnershipRegistry& registry, ShardId shard)
        : saved_(tls_claim_) {
      tls_claim_ = ThreadClaim{&registry, shard, shard + 1};
      registry.RecordOwner(shard, shard + 1);
    }
    ~ShardClaim() { tls_claim_ = saved_; }
    ShardClaim(const ShardClaim&) = delete;
    ShardClaim& operator=(const ShardClaim&) = delete;

   private:
    ThreadClaim saved_;
  };

  /// RAII claim of a destination range [begin, end) for the calling
  /// worker (FlushRoundPartition body).
  class RangeClaim {
   public:
    RangeClaim(OwnershipRegistry& registry, ShardId begin, ShardId end)
        : saved_(tls_claim_) {
      tls_claim_ = ThreadClaim{&registry, begin, end};
      registry.RecordOwner(begin, end);
    }
    ~RangeClaim() { tls_claim_ = saved_; }
    RangeClaim(const RangeClaim&) = delete;
    RangeClaim& operator=(const RangeClaim&) = delete;

   private:
    ThreadClaim saved_;
  };

  /// Aborts (with the shard id) unless the current phase is serial or the
  /// calling worker's claim covers `shard`.
  void AssertShardOwned(ShardId shard) const;

  /// Aborts unless no parallel phase is active — guards state that may
  /// only be touched between rounds (injection queues, spill queues,
  /// watermark bookkeeping).
  void AssertSerialPhase() const;

 private:
  void BeginPhase(Phase phase) {
    phase_ = phase;
    for (auto& owner : owner_) owner.store(0, std::memory_order_relaxed);
  }

  /// Diagnostic record: pack the claim range so a violation message can
  /// name the owner. Written by the claiming worker, read only when a
  /// guard is about to abort.
  void RecordOwner(ShardId begin, ShardId end) {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(begin) << 32) | (end & 0xffffffffu);
    for (ShardId shard = begin; shard < end && shard < owner_.size();
         ++shard) {
      owner_[shard].store(packed + 1, std::memory_order_relaxed);
    }
  }

  [[noreturn]] void OwnershipViolation(ShardId shard) const;

  static thread_local ThreadClaim tls_claim_;

  /// owner_[shard] = packed claim range + 1, or 0 if unclaimed this phase.
  std::vector<std::atomic<std::uint64_t>> owner_;
  Phase phase_;
};

/// Guard macro for shard-owned state: `SSHARD_OWNED(ownership_, shard);`
/// at the top of any code path that reads or writes state owned by
/// `shard`. Compiles to nothing under NDEBUG.
#define SSHARD_OWNED(registry, shard) (registry).AssertShardOwned(shard)

/// Guard macro for serial-phase-only state. Compiles to nothing under
/// NDEBUG.
#define SSHARD_SERIAL_PHASE(registry) (registry).AssertSerialPhase()

#else  // NDEBUG

/// Release stub: an empty type whose every operation is an inline no-op,
/// so the checker vanishes from optimized builds.
class OwnershipRegistry {
 public:
  enum class Phase : unsigned char { kSerial, kStep, kFlush };
  explicit OwnershipRegistry(ShardId) {}
  OwnershipRegistry(const OwnershipRegistry&) = delete;
  OwnershipRegistry& operator=(const OwnershipRegistry&) = delete;
  void BeginStepPhase() {}
  void BeginFlushPhase() {}
  void EndParallelPhase() {}
  Phase phase() const { return Phase::kSerial; }
  class ShardClaim {
   public:
    ShardClaim(OwnershipRegistry&, ShardId) {}
  };
  class RangeClaim {
   public:
    RangeClaim(OwnershipRegistry&, ShardId, ShardId) {}
  };
  void AssertShardOwned(ShardId) const {}
  void AssertSerialPhase() const {}
};

#define SSHARD_OWNED(registry, shard) ((void)0)
#define SSHARD_SERIAL_PHASE(registry) ((void)0)

#endif  // NDEBUG

}  // namespace stableshard::core
