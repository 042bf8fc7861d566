// Simulated inter-shard message-passing network.
//
// Shards exchange messages over the weighted clique G_s; a message sent at
// round r from shard a to shard b is delivered at round r + distance(a, b)
// (distance >= 1 for a != b; self-sends deliver next round, modelling the
// one-round intra-shard consensus on the message).
//
// The network layer assumes the cluster-sending protocol of Hellings &
// Sadoghi (see docs/ARCHITECTURE.md, "One round per decision"): delivery
// is reliable and agreed upon by all non-faulty nodes of the receiving
// shard within the round budget.
// Here we account for traffic (messages, payload units) and delay only.
//
// Storage is a *lazily grown per-destination ring*: each destination shard
// owns a ring of round slots, allocated on first contact and grown
// geometrically to cover the largest delivery offset that destination has
// actually seen (capped at Diameter + 2, which always suffices because
// every offset is in [1, Diameter]). At any instant the live deliveries
// for one destination span at most max-seen-offset consecutive rounds, so
// a ring of max-seen-offset + 2 slots never maps two live rounds to one
// slot; growth re-buckets the O(in-flight) envelopes and happens at most
// log(Diameter) times per destination. Send stays O(1) amortized and
// delivery O(due). The footprint is O(sum over live destinations of their
// offset horizon) instead of the former dense O(Diameter * s) table: a
// 1024-shard line (~1M buckets, ~25 MB, allocated up front regardless of
// traffic) now allocates nothing at construction and ~16 slots per
// destination under radius-8 local traffic — see ring_memory(), reported
// by bench/parallel_rounds.
//
// Bucket vectors are *recycled by swap*, never moved-and-dropped: the
// out-parameter DeliverTo swaps the due slot with the caller's reusable
// buffer, so envelope capacity ping-pongs between the ring and the caller
// across rounds instead of being reallocated every delivery. Schedulers
// keep one inbox buffer per shard for exactly this purpose.
//
// Two ways in. Schedulers never call Send: their sends reach the network
// through the round epilogue's partitioned flush (net/outbox.h). Deposit
// is the destination-parallel half of Send — it takes an explicit sequence
// number and touches only the destination's ring, pending counter and
// inbound traffic split, so partitions owning disjoint destination sets
// may Deposit concurrently. The sender-side split and the global counters
// (seq_, stats_, max_in_flight) are folded back serially afterwards via
// AddSenderTraffic + CommitPartitionedSends, which reproduce exactly the
// values per-send updates would have left: within one flush no delivery
// runs, so in-flight grows monotonically and its peak is attained at the
// last deposited envelope. Send is the one-message form for direct
// drivers (unit tests, component benches).
//
// Concurrency contract (the shard-parallel round loop relies on it):
//   * Send may only be called outside a flush window from a single
//     thread — it grows rings lazily, so it is never safe concurrently
//     with anything;
//   * Deposit may run concurrently for disjoint destination sets inside
//     the flush window (see flush_cap);
//   * DeliverTo(shard, round) may run concurrently for *distinct* shards:
//     it touches only that destination's ring and per-shard counters
//     (delivered_total_ is a relaxed atomic used for stats only);
//   * every (shard, round) pair must be drained in round order — the
//     synchronous simulation steps every shard every round, which is what
//     keeps ring slots empty before reuse (DCHECKed per envelope).
//
// Network<Payload> is a class template so the schedulers' core::Message
// variant travels without type erasure on the hot path, and unit tests can
// use plain payloads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/metric.h"

namespace stableshard::net {

/// Traffic accounting, exposed by every Network instantiation.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t payload_units = 0;  ///< sum of caller-declared payload sizes
  std::uint64_t max_in_flight = 0;  ///< peak undelivered messages
};

/// Per-shard traffic split (DoS forensics, load-balance introspection,
/// backpressure admission control).
///
/// Contract: counters are cumulative over the run and only ever grow.
/// The `messages_in` / `payload_in` halves are updated by Send (serial)
/// and Deposit (destination-owned, so one writer per shard during a
/// partitioned flush); the `_out` halves by Send and the serial
/// AddSenderTraffic fold. Reads are only meaningful from serial phases
/// (BeginRound / FinishRound / between rounds) — there the values are
/// bit-identical whatever the worker or partition count, which is what
/// lets traffic-reactive schedulers (consensus/backpressure_scheduler)
/// branch on them without breaking the determinism contract.
struct ShardTraffic {
  std::uint64_t messages_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t payload_in = 0;
  std::uint64_t payload_out = 0;
  /// `messages_in` as of the last Network::SnapshotInflow() — the baseline
  /// for the cheap per-round inflow readout below.
  std::uint64_t messages_in_snapshot = 0;

  /// Messages that arrived for this destination since the last snapshot
  /// (one round's inflow when SnapshotInflow runs once per round).
  std::uint64_t InflowSinceSnapshot() const {
    return messages_in - messages_in_snapshot;
  }
};

/// Footprint of the lazy per-destination ring (see ring_memory()).
struct RingMemory {
  std::uint64_t live_destinations = 0;  ///< rings allocated (ever contacted)
  std::uint64_t allocated_buckets = 0;  ///< slot vectors across live rings
  std::uint64_t bucket_capacity_bytes = 0;  ///< envelope storage reserved
  /// Buckets the former dense table would hold: (Diameter + 2) * s.
  std::uint64_t dense_bucket_equivalent = 0;
};

template <typename Payload>
class Network {
 public:
  /// Annotation-only capability for the partitioned-flush window (the
  /// Deposit/Commit split documented above). A scheduler's SealRound
  /// acquires it, Deposit and AddSenderTraffic require it, and
  /// CommitPartitionedSends releases it — so on clang, calling Send
  /// inside the window (or Deposit outside it) fails compilation. Public
  /// because callers' annotations must be able to name it; it holds no
  /// runtime state (see common/mutex.h).
  common::PhaseCapability flush_cap;

  struct Envelope {
    ShardId from;
    ShardId to;
    Round sent;
    Round deliver;
    std::uint64_t seq;  ///< global send order (Deliver() merge key)
    Payload payload;
  };

  explicit Network(const ShardMetric& metric)
      : metric_(&metric),
        shard_count_(metric.shard_count()),
        slot_count_(static_cast<std::size_t>(metric.Diameter()) + 2),
        rings_(shard_count_),
        pending_by_dest_(shard_count_),
        shard_traffic_(shard_count_) {}

  /// Queue `payload` from shard `from` to shard `to` at round `now`.
  /// `payload_units` is the caller-declared logical size (e.g. transaction
  /// count) used for the O(bs) message-size accounting of Section 3.
  /// Serial phases only — see the concurrency contract above.
  void Send(ShardId from, ShardId to, Round now, Payload payload,
            std::uint64_t payload_units = 1) SSHARD_EXCLUDES(flush_cap) {
    SSHARD_DCHECK(from < shard_count_);
    SSHARD_DCHECK(to < shard_count_);
    const Distance d = from == to ? 1 : metric_->distance(from, to);
    const Round deliver = now + d;
    std::vector<std::vector<Envelope>>& ring = rings_[to];
    // d + 2 slots keep live rounds collision-free for offsets up to d;
    // slot_count_ (= Diameter + 2) is the proven global cap (the clamp
    // also covers the degenerate s = 1 self-send ring of 2 slots).
    const std::size_t needed =
        std::min<std::size_t>(static_cast<std::size_t>(d) + 2, slot_count_);
    if (ring.size() < needed) GrowRing(ring, needed);
    ring[deliver % ring.size()].push_back(
        Envelope{from, to, now, deliver, seq_++, std::move(payload)});
    ++stats_.messages_sent;
    stats_.payload_units += payload_units;
    ++shard_traffic_[from].messages_out;
    ++shard_traffic_[to].messages_in;
    shard_traffic_[from].payload_out += payload_units;
    shard_traffic_[to].payload_in += payload_units;
    ++pending_by_dest_[to];
    // Exact at every Send: deliveries never run concurrently with sends.
    const std::uint64_t in_flight =
        stats_.messages_sent -
        delivered_total_.load(std::memory_order_relaxed);
    if (in_flight > stats_.max_in_flight) stats_.max_in_flight = in_flight;
  }

  /// Destination-parallel half of Send (partitioned flush only): queue
  /// `payload` into `to`'s ring under the caller-assigned global sequence
  /// number. Touches only rings_[to], pending_by_dest_[to] and the inbound
  /// half of shard_traffic_[to], so callers owning disjoint destination
  /// sets may run concurrently. The caller must hand out seq values that
  /// continue next_seq() in sender-lane order and finish the flush
  /// with AddSenderTraffic + CommitPartitionedSends before any other
  /// network call.
  void Deposit(ShardId from, ShardId to, Round now, std::uint64_t seq,
               Payload payload, std::uint64_t payload_units = 1)
      SSHARD_REQUIRES(flush_cap) {
    SSHARD_DCHECK(from < shard_count_);
    SSHARD_DCHECK(to < shard_count_);
    const Distance d = from == to ? 1 : metric_->distance(from, to);
    const Round deliver = now + d;
    std::vector<std::vector<Envelope>>& ring = rings_[to];
    const std::size_t needed =
        std::min<std::size_t>(static_cast<std::size_t>(d) + 2, slot_count_);
    if (ring.size() < needed) GrowRing(ring, needed);
    ring[deliver % ring.size()].push_back(
        Envelope{from, to, now, deliver, seq, std::move(payload)});
    ++shard_traffic_[to].messages_in;
    shard_traffic_[to].payload_in += payload_units;
    ++pending_by_dest_[to];
  }

  /// First unassigned global sequence number — the base for a partitioned
  /// flush (serial phases only).
  std::uint64_t next_seq() const { return seq_; }

  /// Serial epilogue of a partitioned flush: fold one sender's outbound
  /// traffic split (Deposit only updates the destination side).
  void AddSenderTraffic(ShardId from, std::uint64_t messages,
                        std::uint64_t payload_units)
      SSHARD_REQUIRES(flush_cap) {
    SSHARD_DCHECK(from < shard_count_);
    shard_traffic_[from].messages_out += messages;
    shard_traffic_[from].payload_out += payload_units;
  }

  /// Serial epilogue of a partitioned flush: advance the sequence counter
  /// past the deposited envelopes and fold the global stats. Equals the
  /// per-send accounting because in-flight only grows during a flush.
  void CommitPartitionedSends(std::uint64_t messages,
                              std::uint64_t payload_units)
      SSHARD_RELEASE(flush_cap) {
    flush_cap.Release();  // annotation-only, no runtime effect
    seq_ += messages;
    stats_.messages_sent += messages;
    stats_.payload_units += payload_units;
    const std::uint64_t in_flight =
        stats_.messages_sent -
        delivered_total_.load(std::memory_order_relaxed);
    if (in_flight > stats_.max_in_flight) stats_.max_in_flight = in_flight;
  }

  /// Move every message addressed to `shard` due at round `now` into `out`
  /// (cleared first), in send order. The due ring slot is *swapped* with
  /// `out`, so a reused buffer donates its capacity back to the ring —
  /// steady state does zero envelope allocation. Safe to call concurrently
  /// for distinct shards.
  void DeliverTo(ShardId shard, Round now, std::vector<Envelope>& out) {
    SSHARD_DCHECK(shard < shard_count_);
    out.clear();
    std::vector<std::vector<Envelope>>& ring = rings_[shard];
    if (ring.empty()) return;  // never contacted: nothing can be due
    std::vector<Envelope>& bucket = ring[now % ring.size()];
    std::swap(bucket, out);
    // Nothing due: skip the counter writes. delivered_total_ is one cache
    // line shared by every stepping thread.
    if (out.empty()) return;
    for ([[maybe_unused]] const Envelope& envelope : out) {
      // A stale envelope here means some (shard, round) was never drained
      // and the ring slot got reused — a round-loop bug, not a data bug.
      SSHARD_DCHECK(envelope.deliver == now && envelope.to == shard);
    }
    pending_by_dest_[shard] -= out.size();
    delivered_total_.fetch_add(out.size(), std::memory_order_relaxed);
  }

  /// Remove and return every message addressed to `shard` due at round
  /// `now`, in send order (convenience overload; the returned vector's
  /// capacity is not recycled — hot paths should pass a reusable buffer).
  std::vector<Envelope> DeliverTo(ShardId shard, Round now) {
    std::vector<Envelope> due;
    DeliverTo(shard, now, due);
    return due;
  }

  /// Remove and return every message due at round `now` across all shards,
  /// merged back into global send order (serial drivers and tests).
  std::vector<Envelope> Deliver(Round now) {
    std::vector<Envelope> due;
    for (ShardId shard = 0; shard < shard_count_; ++shard) {
      std::vector<Envelope> part = DeliverTo(shard, now);
      due.insert(due.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
    std::sort(due.begin(), due.end(),
              [](const Envelope& a, const Envelope& b) { return a.seq < b.seq; });
    return due;
  }

  bool HasPending() const { return pending_count() > 0; }
  std::uint64_t pending_count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t count : pending_by_dest_) total += count;
    return total;
  }
  /// Undelivered messages addressed to one shard.
  std::uint64_t pending_for(ShardId shard) const {
    return pending_by_dest_[shard];
  }
  const TrafficStats& stats() const { return stats_; }
  const ShardTraffic& shard_traffic(ShardId shard) const {
    return shard_traffic_[shard];
  }

  /// Baseline every destination's inbound counter so that
  /// ShardTraffic::InflowSinceSnapshot() reads the traffic of the window
  /// since this call. O(s) plain stores; serial phases only (it races with
  /// nothing because Deposit never touches the snapshot field, but the
  /// reader contract on ShardTraffic is serial anyway). Calling it once
  /// per round from BeginRound gives a per-round inflow readout without
  /// any per-send cost.
  void SnapshotInflow() {
    for (ShardTraffic& traffic : shard_traffic_) {
      traffic.messages_in_snapshot = traffic.messages_in;
    }
  }
  const ShardMetric& metric() const { return *metric_; }
  std::size_t slot_count() const { return slot_count_; }

  /// Measured ring footprint (serial phases only: walks every live ring).
  RingMemory ring_memory() const {
    RingMemory memory;
    memory.dense_bucket_equivalent =
        static_cast<std::uint64_t>(slot_count_) * shard_count_;
    for (const std::vector<std::vector<Envelope>>& ring : rings_) {
      if (ring.empty()) continue;
      ++memory.live_destinations;
      memory.allocated_buckets += ring.size();
      for (const std::vector<Envelope>& bucket : ring) {
        memory.bucket_capacity_bytes += bucket.capacity() * sizeof(Envelope);
      }
    }
    return memory;
  }

 private:
  /// Grow `ring` to a power-of-two size >= needed (capped at slot_count_)
  /// and re-bucket its in-flight envelopes under the new modulus. Each old
  /// slot holds at most one live delivery round (the drain contract) and
  /// live rounds span less than the old size, so every new slot receives
  /// from exactly one old slot — per-slot send order is preserved.
  void GrowRing(std::vector<std::vector<Envelope>>& ring,
                std::size_t needed) {
    std::size_t size = std::max<std::size_t>(ring.size() * 2, 4);
    while (size < needed) size *= 2;
    size = std::min(size, slot_count_);
    SSHARD_DCHECK(size >= needed);
    std::vector<std::vector<Envelope>> grown(size);
    for (std::vector<Envelope>& bucket : ring) {
      for (Envelope& envelope : bucket) {
        grown[envelope.deliver % size].push_back(std::move(envelope));
      }
    }
    ring.swap(grown);
  }

  const ShardMetric* metric_;
  ShardId shard_count_;
  std::size_t slot_count_;
  /// rings_[dest] is empty until the first Send to `dest`, then holds
  /// between 2 and slot_count_ buckets indexed by deliver % rings_[dest]
  /// .size() (grown on demand by GrowRing).
  std::vector<std::vector<std::vector<Envelope>>> rings_;
  std::vector<std::uint64_t> pending_by_dest_;
  std::vector<ShardTraffic> shard_traffic_;
  std::uint64_t seq_ = 0;
  std::atomic<std::uint64_t> delivered_total_{0};
  TrafficStats stats_;
};

}  // namespace stableshard::net
