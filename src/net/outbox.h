// Per-shard send lanes for the shard-parallel round loop.
//
// During StepShard(shard, round) a scheduler may only mutate shard-local
// state, so it cannot call Network::Send (a serial-phase operation)
// directly. Instead every acting shard appends to its own lane — lane index
// == the sending shard — and the round epilogue hands lanes 0..s-1 to the
// network in order. That order is a pure function of per-lane contents, so
// the resulting global send sequence (and hence every downstream delivery
// order) is bit-identical no matter how StepShard calls were scheduled
// across threads.
//
// The flush is the triple Seal / FlushSealedTo / FinishSealedFlush, driven
// by the scheduler's round epilogue (core/scheduler.h). The lanes are
// *double-buffered*: Seal swaps the active buffer with the (empty) sealed
// one, so the scheduler's next round may keep appending to fresh lanes
// while pool workers drain the sealed buffer. The drain is partitioned by
// *destination*: each partition walks every sealed lane in sender order,
// reconstructs each item's global flush index (lane prefix + position)
// and Deposits only the items addressed to its destination range. Each
// destination's ring is therefore touched by exactly one partition and
// receives its items in sender-lane order — the only order schedulers
// ever observe — whatever the partition count; one partition covering
// every destination is the serial flush. FinishSealedFlush folds the
// sender-side traffic split and the global counters back serially and
// retires the sealed lanes.
//
// Lane memory: one burst round must not pin its capacity for the rest of
// the run, so each sender keeps a decayed high-water mark. Each retire
// decays the mark by 25% (floored by the round's size) and, once a lane's
// capacity overshoots several times the mark, reallocates it to
// high-water + 50% headroom — memory decays geometrically after a burst,
// mirroring the lazy network rings. lane_memory() reports the footprint
// (see net::RingMemory).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/network.h"

namespace stableshard::net {

/// Footprint of the double-buffered send lanes (see OutboxSet::lane_memory).
struct LaneMemory {
  std::uint64_t lanes_with_capacity = 0;  ///< lanes holding an allocation
  std::uint64_t queued_items = 0;         ///< items currently buffered
  std::uint64_t capacity_bytes = 0;       ///< item storage reserved
  std::uint64_t high_water_items = 0;     ///< sum of decayed per-lane marks
};

template <typename Payload>
class OutboxSet {
 public:
  /// Annotation-only capability for the sealed-buffer window: Seal
  /// acquires it, FlushSealedTo requires it and FinishSealedFlush releases
  /// it — so on clang, draining outside a Seal..FinishSealedFlush window,
  /// or sealing twice without finishing, fails compilation instead of
  /// losing or double-draining a round. Public so callers' annotations can
  /// name it; no runtime state (see common/mutex.h).
  common::PhaseCapability sealed_cap;

  struct Item {
    ShardId to;
    std::uint64_t payload_units;
    Payload payload;
  };

  explicit OutboxSet(ShardId shards)
      : buffers_{std::vector<Lane>(shards), std::vector<Lane>(shards)},
        high_water_(shards, 0) {}

  /// Queue a send from `from` to `to`. Must only be called from the
  /// StepShard invocation of shard `from` (or a serial phase).
  void Send(ShardId from, ShardId to, Payload payload,
            std::uint64_t payload_units = 1) {
    SSHARD_DCHECK(from < high_water_.size());
    Lane& lane = buffers_[active_][from];
    lane.items.push_back(Item{to, payload_units, std::move(payload)});
    lane.payload_units += payload_units;
  }

  /// Serial: swap the active buffer with the (drained) sealed one. The
  /// scheduler may keep Sending into the fresh active lanes while pool
  /// workers FlushSealedTo the sealed buffer.
  void Seal() SSHARD_ACQUIRE(sealed_cap) {
    sealed_cap.Acquire();  // annotation-only, no runtime effect
#ifndef NDEBUG
    for (const Lane& lane : buffers_[active_ ^ 1]) {
      SSHARD_DCHECK(lane.items.empty() && "sealing over an undrained buffer");
    }
#endif
    active_ ^= 1;
  }

  /// Partitioned drain of the sealed buffer: deposit every sealed item
  /// addressed to a destination in [dest_begin, dest_end) at round `now`.
  /// Walks all lanes in sender order so each item's global flush index is
  /// the same whatever the destination split. Safe to run concurrently for
  /// disjoint destination ranges.
  void FlushSealedTo(Network<Payload>& network, Round now, ShardId dest_begin,
                     ShardId dest_end)
      SSHARD_REQUIRES(sealed_cap, network.flush_cap) {
    std::vector<Lane>& lanes = buffers_[active_ ^ 1];
    std::uint64_t seq = network.next_seq();
    for (ShardId from = 0; from < lanes.size(); ++from) {
      for (Item& item : lanes[from].items) {
        if (item.to >= dest_begin && item.to < dest_end) {
          network.Deposit(from, item.to, now, seq, std::move(item.payload),
                          item.payload_units);
        }
        ++seq;
      }
    }
  }

  /// Serial epilogue of the partitioned drain: fold sender-side traffic and
  /// the global network counters, then retire the sealed lanes (clear +
  /// high-water decay + shrink policy).
  void FinishSealedFlush(Network<Payload>& network)
      SSHARD_RELEASE(sealed_cap) SSHARD_RELEASE(network.flush_cap) {
    std::vector<Lane>& lanes = buffers_[active_ ^ 1];
    std::uint64_t messages = 0;
    std::uint64_t payload_units = 0;
    for (ShardId from = 0; from < lanes.size(); ++from) {
      Lane& lane = lanes[from];
      if (!lane.items.empty()) {
        network.AddSenderTraffic(from, lane.items.size(), lane.payload_units);
        messages += lane.items.size();
        payload_units += lane.payload_units;
      }
      RetireLane(from, lane);
    }
    network.CommitPartitionedSends(messages, payload_units);
    sealed_cap.Release();  // annotation-only, no runtime effect
  }

  bool Empty() const {
    for (const std::vector<Lane>& lanes : buffers_) {
      for (const Lane& lane : lanes) {
        if (!lane.items.empty()) return false;
      }
    }
    return true;
  }

  ShardId shard_count() const {
    return static_cast<ShardId>(high_water_.size());
  }

  /// Measured lane footprint across both buffers (serial phases only).
  LaneMemory lane_memory() const {
    LaneMemory memory;
    for (const std::vector<Lane>& lanes : buffers_) {
      for (const Lane& lane : lanes) {
        if (lane.items.capacity() > 0) ++memory.lanes_with_capacity;
        memory.queued_items += lane.items.size();
        memory.capacity_bytes += lane.items.capacity() * sizeof(Item);
      }
    }
    for (const std::uint64_t mark : high_water_) {
      memory.high_water_items += mark;
    }
    return memory;
  }

 private:
  struct Lane {
    std::vector<Item> items;
    /// Running payload-unit sum of `items` (lane-owned, so Send may update
    /// it from concurrent StepShard calls without sharing).
    std::uint64_t payload_units = 0;
  };

  /// Clear a drained lane and apply the shrink policy: decay the sender's
  /// high-water mark by 25% (floored by this round's size) and release
  /// capacity once it overshoots 4x the decayed mark + headroom, then
  /// reserve() the mark back so steady traffic reallocates nothing.
  void RetireLane(ShardId from, Lane& lane) {
    std::uint64_t& mark = high_water_[from];
    mark = std::max<std::uint64_t>(lane.items.size(), mark - mark / 4);
    lane.payload_units = 0;
    const std::size_t target = static_cast<std::size_t>(mark + mark / 2);
    if (lane.items.capacity() >
        std::max<std::size_t>(4 * target, kShrinkFloor)) {
      std::vector<Item>().swap(lane.items);
      lane.items.reserve(target);
    } else {
      lane.items.clear();
    }
  }

  /// Lanes below this capacity are never shrunk (reallocation churn is not
  /// worth a few KB).
  static constexpr std::size_t kShrinkFloor = 64;

  /// buffers_[active_] receives Sends; buffers_[active_ ^ 1] is the sealed
  /// buffer being drained (empty outside a Seal..FinishSealedFlush window).
  std::vector<Lane> buffers_[2];
  int active_ = 0;
  /// Per-sender decayed high-water marks (serial phases only).
  std::vector<std::uint64_t> high_water_;
};

}  // namespace stableshard::net
