// Unit tests for src/net: metric axioms for every topology, neighborhoods,
// diameters, the delayed message network, and the topology factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/shard_range.h"
#include "net/metric.h"
#include "net/network.h"
#include "net/outbox.h"
#include "net/topology_factory.h"

namespace stableshard::net {
namespace {

void ExpectMetricAxioms(const ShardMetric& metric) {
  const ShardId s = metric.shard_count();
  for (ShardId i = 0; i < s; ++i) {
    EXPECT_EQ(metric.distance(i, i), 0u);
    for (ShardId j = 0; j < s; ++j) {
      if (i == j) continue;
      EXPECT_GE(metric.distance(i, j), 1u);
      EXPECT_EQ(metric.distance(i, j), metric.distance(j, i));
      for (ShardId via = 0; via < s; ++via) {
        EXPECT_LE(metric.distance(i, j),
                  metric.distance(i, via) + metric.distance(via, j));
      }
    }
  }
}

TEST(UniformMetric, AllPairsUnitDistance) {
  UniformMetric metric(8);
  ExpectMetricAxioms(metric);
  EXPECT_EQ(metric.distance(0, 7), 1u);
  EXPECT_EQ(metric.Diameter(), 1u);
}

TEST(LineMetric, AbsoluteDifference) {
  LineMetric metric(64);
  ExpectMetricAxioms(metric);
  EXPECT_EQ(metric.distance(0, 1), 1u);
  EXPECT_EQ(metric.distance(0, 2), 2u);
  EXPECT_EQ(metric.distance(0, 63), 63u);
  EXPECT_EQ(metric.Diameter(), 63u);
}

TEST(RingMetric, WrapsAround) {
  RingMetric metric(10);
  ExpectMetricAxioms(metric);
  EXPECT_EQ(metric.distance(0, 9), 1u);
  EXPECT_EQ(metric.distance(0, 5), 5u);
  EXPECT_EQ(metric.Diameter(), 5u);
}

TEST(GridMetric, ManhattanDistance) {
  GridMetric metric(4, 4);
  ExpectMetricAxioms(metric);
  EXPECT_EQ(metric.distance(0, 3), 3u);   // (0,0) -> (3,0)
  EXPECT_EQ(metric.distance(0, 15), 6u);  // (0,0) -> (3,3)
  EXPECT_EQ(metric.Diameter(), 6u);
}

TEST(MatrixMetric, AcceptsValidMetric) {
  // A 3-point path metric 0 -1- 1 -2- 2.
  std::vector<Distance> matrix{0, 1, 3, 1, 0, 2, 3, 2, 0};
  MatrixMetric metric(3, matrix);
  ExpectMetricAxioms(metric);
  EXPECT_EQ(metric.distance(0, 2), 3u);
}

TEST(MatrixMetricDeath, RejectsAsymmetry) {
  std::vector<Distance> matrix{0, 1, 2, 0};
  EXPECT_DEATH(MatrixMetric(2, matrix), "SSHARD_CHECK");
}

TEST(MatrixMetricDeath, RejectsTriangleViolation) {
  std::vector<Distance> matrix{0, 1, 5, 1, 0, 1, 5, 1, 0};
  EXPECT_DEATH(MatrixMetric(3, matrix), "SSHARD_CHECK");
}

/// Line-shaped metric that counts distance() evaluations; keeps the generic
/// O(s^2) ComputeDiameter so the memoization itself is what's under test.
class CountingLineMetric final : public ShardMetric {
 public:
  explicit CountingLineMetric(ShardId shards) : shards_(shards) {}
  ShardId shard_count() const override { return shards_; }
  Distance distance(ShardId a, ShardId b) const override {
    ++distance_calls;
    return a > b ? a - b : b - a;
  }
  mutable std::uint64_t distance_calls = 0;

 private:
  ShardId shards_;
};

TEST(ShardMetric, DiameterMemoizedPerInstance) {
  CountingLineMetric metric(64);
  EXPECT_EQ(metric.Diameter(), 63u);
  const std::uint64_t first_cost = metric.distance_calls;
  EXPECT_GT(first_cost, 0u);
  // Re-querying (as every Network and Hierarchy construction does) must hit
  // the cache: zero additional distance evaluations.
  EXPECT_EQ(metric.Diameter(), 63u);
  EXPECT_EQ(metric.Diameter(), 63u);
  EXPECT_EQ(metric.distance_calls, first_cost);
}

TEST(ShardMetric, ClosedFormDiametersMatchBruteForce) {
  const auto brute_force = [](const ShardMetric& metric) {
    Distance diameter = 0;
    for (ShardId i = 0; i < metric.shard_count(); ++i) {
      for (ShardId j = i + 1; j < metric.shard_count(); ++j) {
        diameter = std::max(diameter, metric.distance(i, j));
      }
    }
    return diameter;
  };
  for (const ShardId s : {1u, 2u, 7u, 10u, 33u}) {
    EXPECT_EQ(UniformMetric(s).Diameter(), brute_force(UniformMetric(s)));
    EXPECT_EQ(LineMetric(s).Diameter(), brute_force(LineMetric(s)));
    EXPECT_EQ(RingMetric(s).Diameter(), brute_force(RingMetric(s)));
  }
  EXPECT_EQ(GridMetric(1, 1).Diameter(), brute_force(GridMetric(1, 1)));
  EXPECT_EQ(GridMetric(4, 4).Diameter(), brute_force(GridMetric(4, 4)));
  EXPECT_EQ(GridMetric(5, 3).Diameter(), brute_force(GridMetric(5, 3)));
}

TEST(RandomGeometricMetric, SatisfiesAxioms) {
  Rng rng(77);
  const auto metric = MakeRandomGeometricMetric(16, 32, rng);
  ExpectMetricAxioms(*metric);
  EXPECT_GE(metric->Diameter(), 1u);
}

TEST(Neighborhood, LineRadii) {
  LineMetric metric(10);
  EXPECT_EQ(metric.Neighborhood(5, 0), std::vector<ShardId>{5});
  const auto n2 = metric.Neighborhood(5, 2);
  EXPECT_EQ(n2, (std::vector<ShardId>{3, 4, 5, 6, 7}));
  const auto edge = metric.Neighborhood(0, 3);
  EXPECT_EQ(edge, (std::vector<ShardId>{0, 1, 2, 3}));
}

TEST(SubsetDiameter, ComputedOnSubset) {
  LineMetric metric(10);
  EXPECT_EQ(metric.SubsetDiameter({2, 3, 4}), 2u);
  EXPECT_EQ(metric.SubsetDiameter({0, 9}), 9u);
  EXPECT_EQ(metric.SubsetDiameter({7}), 0u);
}

TEST(Network, DeliversAtDistance) {
  LineMetric metric(8);
  Network<int> network(metric);
  network.Send(0, 3, /*now=*/10, 42);  // distance 3 -> deliver at 13
  network.Send(1, 2, /*now=*/10, 7);   // distance 1 -> deliver at 11
  EXPECT_TRUE(network.HasPending());

  auto at11 = network.Deliver(11);
  ASSERT_EQ(at11.size(), 1u);
  EXPECT_EQ(at11[0].payload, 7);
  EXPECT_EQ(at11[0].to, 2u);

  EXPECT_TRUE(network.Deliver(12).empty());

  auto at13 = network.Deliver(13);
  ASSERT_EQ(at13.size(), 1u);
  EXPECT_EQ(at13[0].payload, 42);
  EXPECT_FALSE(network.HasPending());
}

TEST(Network, SelfSendTakesOneRound) {
  UniformMetric metric(4);
  Network<int> network(metric);
  network.Send(2, 2, 5, 1);
  EXPECT_TRUE(network.Deliver(5).empty());
  EXPECT_EQ(network.Deliver(6).size(), 1u);
}

TEST(Network, TrafficAccounting) {
  UniformMetric metric(4);
  Network<int> network(metric);
  network.Send(0, 1, 0, 10, /*payload_units=*/5);
  network.Send(0, 2, 0, 11);
  EXPECT_EQ(network.stats().messages_sent, 2u);
  EXPECT_EQ(network.stats().payload_units, 6u);
  EXPECT_EQ(network.stats().max_in_flight, 2u);
  network.Deliver(1);
  EXPECT_EQ(network.pending_count(), 0u);
}

TEST(Network, PreservesSendOrderWithinRound) {
  UniformMetric metric(4);
  Network<int> network(metric);
  for (int i = 0; i < 10; ++i) network.Send(0, 1, 0, i);
  const auto delivered = network.Deliver(1);
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(delivered[i].payload, i);
}

TEST(Network, DeliverToPartitionsByDestination) {
  UniformMetric metric(4);
  Network<int> network(metric);
  // Interleave sends to two destinations from several sources.
  network.Send(0, 1, 0, 100);
  network.Send(0, 2, 0, 200);
  network.Send(3, 1, 0, 101);
  network.Send(3, 2, 0, 201);
  network.Send(2, 1, 0, 102);

  auto to1 = network.DeliverTo(1, 1);
  ASSERT_EQ(to1.size(), 3u);
  // Per-destination send order is preserved.
  EXPECT_EQ(to1[0].payload, 100);
  EXPECT_EQ(to1[1].payload, 101);
  EXPECT_EQ(to1[2].payload, 102);
  EXPECT_EQ(network.pending_for(1), 0u);
  EXPECT_EQ(network.pending_for(2), 2u);
  EXPECT_TRUE(network.HasPending());

  auto to2 = network.DeliverTo(2, 1);
  ASSERT_EQ(to2.size(), 2u);
  EXPECT_EQ(to2[0].payload, 200);
  EXPECT_EQ(to2[1].payload, 201);
  EXPECT_FALSE(network.HasPending());
  // Empty re-delivery is harmless.
  EXPECT_TRUE(network.DeliverTo(1, 1).empty());
}

TEST(Network, DeliverMergesBucketsInGlobalSendOrder) {
  UniformMetric metric(4);
  Network<int> network(metric);
  network.Send(0, 3, 0, 0);
  network.Send(0, 1, 0, 1);
  network.Send(0, 2, 0, 2);
  network.Send(0, 1, 0, 3);
  const auto delivered = network.Deliver(1);
  ASSERT_EQ(delivered.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(delivered[i].payload, i);
}

TEST(Network, RingBucketsReusedAcrossManyRounds) {
  // Drive far more rounds than the ring has slots (diameter 7 -> 9 slots)
  // to prove slots recycle cleanly, with mixed distances in flight.
  LineMetric metric(8);
  Network<int> network(metric);
  std::uint64_t delivered = 0;
  for (Round round = 0; round < 100; ++round) {
    network.Send(0, 7, round, static_cast<int>(round));      // distance 7
    network.Send(3, 4, round, static_cast<int>(round) + 1);  // distance 1
    for (ShardId shard = 0; shard < 8; ++shard) {
      for (const auto& envelope : network.DeliverTo(shard, round)) {
        EXPECT_EQ(envelope.deliver, round);
        EXPECT_EQ(envelope.to, shard);
        ++delivered;
      }
    }
  }
  // All distance-1 messages (sent rounds 0..98 deliver 1..99) and the
  // distance-7 messages sent up to round 92 have been delivered.
  EXPECT_EQ(delivered, 99u + 93u);
  EXPECT_EQ(network.pending_count(), 2 * 100u - delivered);
}

TEST(Network, LazyRingAllocatesOnlyContactedDestinations) {
  // A 1024-shard line used to pre-allocate (Diameter + 2) * s ~ 1M buckets;
  // the lazy ring allocates per destination on first Send.
  LineMetric metric(1024);
  Network<int> network(metric);
  const RingMemory idle = network.ring_memory();
  EXPECT_EQ(idle.live_destinations, 0u);
  EXPECT_EQ(idle.allocated_buckets, 0u);
  EXPECT_EQ(idle.bucket_capacity_bytes, 0u);
  EXPECT_EQ(idle.dense_bucket_equivalent, (1023u + 2u) * 1024u);

  // Delivering to an uncontacted destination allocates nothing.
  EXPECT_TRUE(network.DeliverTo(512, 3).empty());
  EXPECT_EQ(network.ring_memory().live_destinations, 0u);

  network.Send(0, 7, /*now=*/0, 1);
  network.Send(1, 7, /*now=*/0, 2);  // same destination: same ring
  network.Send(0, 900, /*now=*/0, 3);
  const RingMemory live = network.ring_memory();
  EXPECT_EQ(live.live_destinations, 2u);
  // Rings are sized by the largest delivery offset each destination has
  // seen (next power of two of offset + 2, capped at Diameter + 2), not by
  // the global diameter: dest 7 saw offset 7 -> 16 slots, dest 900 saw
  // offset 900 -> 1024 slots.
  EXPECT_EQ(live.allocated_buckets, 16u + 1024u);
  EXPECT_GT(live.bucket_capacity_bytes, 0u);
}

TEST(Network, RingGrowthRebucketsInFlightMessages) {
  // Short-offset traffic first (small ring), then a long-offset send forces
  // geometric growth while messages are in flight; everything must still
  // deliver at the right round, in send order.
  LineMetric metric(64);
  Network<int> network(metric);
  network.Send(1, 0, /*now=*/0, 10);   // offset 1, due round 1
  network.Send(2, 0, /*now=*/0, 11);   // offset 2, due round 2
  network.Send(40, 0, /*now=*/0, 12);  // offset 40: grows the ring to 64
  network.Send(3, 0, /*now=*/0, 13);   // offset 3, after the growth

  auto at1 = network.DeliverTo(0, 1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0].payload, 10);
  auto at2 = network.DeliverTo(0, 2);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].payload, 11);
  auto at3 = network.DeliverTo(0, 3);
  ASSERT_EQ(at3.size(), 1u);
  EXPECT_EQ(at3[0].payload, 13);
  for (Round round = 4; round < 40; ++round) {
    EXPECT_TRUE(network.DeliverTo(0, round).empty());
  }
  auto at40 = network.DeliverTo(0, 40);
  ASSERT_EQ(at40.size(), 1u);
  EXPECT_EQ(at40[0].payload, 12);
  EXPECT_FALSE(network.HasPending());
}

TEST(Network, DeliverToOutParamRecyclesCapacityAcrossRounds) {
  UniformMetric metric(4);
  Network<int> network(metric);
  std::vector<Network<int>::Envelope> inbox;

  // Warm-up round-trip seeds the slot<->buffer capacity ping-pong.
  for (int i = 0; i < 64; ++i) network.Send(0, 1, 0, i);
  network.DeliverTo(1, 1, inbox);
  ASSERT_EQ(inbox.size(), 64u);
  const std::size_t warm_capacity = inbox.capacity();

  for (Round round = 1; round < 20; ++round) {
    for (int i = 0; i < 64; ++i) network.Send(0, 1, round, i);
    network.DeliverTo(1, round + 1, inbox);
    ASSERT_EQ(inbox.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(inbox[i].payload, i);
  }
  // The swap recycling keeps capacity cycling between the ring slot and the
  // caller's buffer: envelope storage stays reserved inside the ring after
  // a delivery (move-and-drop would leave the slot at capacity zero), and
  // the inbox never shrinks below its warmed size.
  EXPECT_GE(network.ring_memory().bucket_capacity_bytes,
            64u * sizeof(Network<int>::Envelope));
  EXPECT_GE(inbox.capacity(), warm_capacity);
}

#ifndef NDEBUG
TEST(NetworkDeath, StaleSlotDetectedWhenRoundSkipped) {
  // Violating the drain contract — skipping a due (shard, round) until the
  // ring wraps — must trip the per-envelope DCHECK instead of silently
  // delivering a stale message. UniformMetric(2) has 3 slots, so round 4
  // reuses round 1's slot.
  UniformMetric metric(2);
  Network<int> network(metric);
  network.Send(0, 1, /*now=*/0, 7);  // due at round 1, never drained
  network.Send(0, 1, /*now=*/3, 8);  // lands in the same slot (4 % 3 == 1)
  EXPECT_DEATH(network.DeliverTo(1, 4), "SSHARD_CHECK");
}
#endif

TEST(Network, PerShardTrafficAccounting) {
  UniformMetric metric(3);
  Network<int> network(metric);
  network.Send(0, 1, 0, 7, /*payload_units=*/5);
  network.Send(0, 2, 0, 8);
  network.Send(1, 0, 0, 9, /*payload_units=*/2);

  EXPECT_EQ(network.shard_traffic(0).messages_out, 2u);
  EXPECT_EQ(network.shard_traffic(0).payload_out, 6u);
  EXPECT_EQ(network.shard_traffic(0).messages_in, 1u);
  EXPECT_EQ(network.shard_traffic(0).payload_in, 2u);
  EXPECT_EQ(network.shard_traffic(1).messages_in, 1u);
  EXPECT_EQ(network.shard_traffic(1).payload_in, 5u);
  EXPECT_EQ(network.shard_traffic(2).messages_in, 1u);
  // Aggregate stats unchanged by the split.
  EXPECT_EQ(network.stats().messages_sent, 3u);
  EXPECT_EQ(network.stats().payload_units, 8u);
}

TEST(Network, MaxInFlightTracksPeakAcrossDeliveries) {
  UniformMetric metric(4);
  Network<int> network(metric);
  network.Send(0, 1, 0, 1);
  network.Send(0, 2, 0, 2);
  network.Send(0, 3, 0, 3);
  EXPECT_EQ(network.stats().max_in_flight, 3u);
  network.Deliver(1);  // everything drains
  network.Send(0, 1, 1, 4);
  network.Send(0, 2, 1, 5);
  // Peak is still 3: deliveries reduced in-flight before the new sends.
  EXPECT_EQ(network.stats().max_in_flight, 3u);
}

/// Seal `outbox`, drain it into `network` at round `now` in the listed
/// destination partitions (of `parts` in total), and finish — the round
/// epilogue's outbox half. The default is the one-partition drain.
template <typename Payload>
void FlushOutbox(OutboxSet<Payload>& outbox, Network<Payload>& network,
                 Round now, std::uint32_t parts = 1,
                 const std::vector<std::uint32_t>& order = {0}) {
  outbox.Seal();
  network.flush_cap.Acquire();  // annotation-only, no runtime effect
  for (const std::uint32_t part : order) {
    const auto [begin, end] =
        FlushShardRange(outbox.shard_count(), part, parts);
    outbox.FlushSealedTo(network, now, begin, end);
  }
  outbox.FinishSealedFlush(network);
}

TEST(Outbox, FlushesLanesInShardOrder) {
  UniformMetric metric(4);
  Network<int> network(metric);
  OutboxSet<int> outbox(4);
  // Write lanes out of shard order; flush must serialize lane 0 first.
  outbox.Send(2, 0, 20);
  outbox.Send(0, 1, 1);
  outbox.Send(2, 1, 21, /*payload_units=*/3);
  outbox.Send(1, 3, 10);
  EXPECT_FALSE(outbox.Empty());
  FlushOutbox(outbox, network, /*now=*/5);
  EXPECT_TRUE(outbox.Empty());
  EXPECT_EQ(network.stats().messages_sent, 4u);
  EXPECT_EQ(network.stats().payload_units, 6u);

  const auto delivered = network.Deliver(6);
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered[0].payload, 1);   // lane 0
  EXPECT_EQ(delivered[0].from, 0u);
  EXPECT_EQ(delivered[1].payload, 10);  // lane 1
  EXPECT_EQ(delivered[2].payload, 20);  // lane 2, append order
  EXPECT_EQ(delivered[3].payload, 21);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].seq, i);  // global flush index = lane order
  }
}

TEST(Outbox, PartitionCountNeverShowsInTheFlush) {
  // The same sends drained in one partition and in two destination
  // partitions applied in REVERSE order: delivery order, per-envelope
  // seqs and every stat must agree, and match the hand-computed values.
  LineMetric metric(4);
  Network<int> one_net(metric);
  Network<int> split_net(metric);
  OutboxSet<int> one_outbox(4);
  OutboxSet<int> split_outbox(4);
  const auto send_all = [](OutboxSet<int>& outbox) {
    outbox.Send(2, 0, 20);
    outbox.Send(0, 1, 1);
    outbox.Send(2, 3, 23, /*payload_units=*/3);
    outbox.Send(1, 3, 13);
    outbox.Send(3, 3, 33, /*payload_units=*/2);
  };
  send_all(one_outbox);
  send_all(split_outbox);

  FlushOutbox(one_outbox, one_net, /*now=*/5);
  FlushOutbox(split_outbox, split_net, /*now=*/5, /*parts=*/2, {1, 0});
  EXPECT_TRUE(split_outbox.Empty());

  EXPECT_EQ(one_net.stats().messages_sent, 5u);
  EXPECT_EQ(one_net.stats().payload_units, 8u);
  EXPECT_EQ(one_net.stats().max_in_flight, 5u);
  EXPECT_EQ(one_net.next_seq(), 5u);
  EXPECT_EQ(split_net.stats().messages_sent, one_net.stats().messages_sent);
  EXPECT_EQ(split_net.stats().payload_units, one_net.stats().payload_units);
  EXPECT_EQ(split_net.stats().max_in_flight, one_net.stats().max_in_flight);
  EXPECT_EQ(split_net.next_seq(), one_net.next_seq());
  // Per shard: {messages_in, messages_out, payload_in, payload_out}.
  const std::uint64_t expected_traffic[4][4] = {
      {1, 1, 1, 1}, {1, 1, 1, 1}, {0, 2, 0, 4}, {3, 1, 6, 2}};
  for (ShardId shard = 0; shard < 4; ++shard) {
    for (const Network<int>* network : {&one_net, &split_net}) {
      const ShardTraffic traffic = network->shard_traffic(shard);
      EXPECT_EQ(traffic.messages_in, expected_traffic[shard][0]);
      EXPECT_EQ(traffic.messages_out, expected_traffic[shard][1]);
      EXPECT_EQ(traffic.payload_in, expected_traffic[shard][2]);
      EXPECT_EQ(traffic.payload_out, expected_traffic[shard][3]);
      EXPECT_EQ(network->pending_for(shard), expected_traffic[shard][0]);
    }
  }
  // Drain both across the whole delivery horizon. Flush index = lane
  // order: 0->1 (seq 0, distance 1), 1->3 (seq 1, distance 2), 2->0
  // (seq 2, distance 2), 2->3 (seq 3, distance 1), 3->3 (seq 4, self).
  struct Expected {
    Round now;
    std::vector<int> payloads;
    std::vector<std::uint64_t> seqs;
  };
  const Expected expected[] = {{6, {1, 23, 33}, {0, 3, 4}},
                               {7, {13, 20}, {1, 2}},
                               {8, {}, {}},
                               {9, {}, {}}};
  for (const Expected& round : expected) {
    const auto one = one_net.Deliver(round.now);
    const auto split = split_net.Deliver(round.now);
    ASSERT_EQ(one.size(), round.payloads.size()) << "round " << round.now;
    ASSERT_EQ(split.size(), one.size()) << "round " << round.now;
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].payload, round.payloads[i]);
      EXPECT_EQ(one[i].seq, round.seqs[i]);
      EXPECT_EQ(split[i].payload, one[i].payload);
      EXPECT_EQ(split[i].seq, one[i].seq);
      EXPECT_EQ(split[i].from, one[i].from);
      EXPECT_EQ(split[i].to, one[i].to);
    }
  }
}

TEST(Outbox, DoubleBufferAcceptsSendsWhileSealedDrains) {
  // Round r is sealed; round r+1's sends land in the fresh active buffer
  // and are not disturbed by the sealed drain.
  UniformMetric metric(2);
  Network<int> network(metric);
  OutboxSet<int> outbox(2);
  outbox.Send(0, 1, 100);
  outbox.Seal();
  outbox.Send(1, 0, 200);  // next round, while sealed buffer undrained
  EXPECT_FALSE(outbox.Empty());
  outbox.FlushSealedTo(network, /*now=*/0, 0, 2);
  outbox.FinishSealedFlush(network);
  EXPECT_FALSE(outbox.Empty());  // the round r+1 send is still queued
  outbox.Seal();
  outbox.FlushSealedTo(network, /*now=*/1, 0, 2);
  outbox.FinishSealedFlush(network);
  EXPECT_TRUE(outbox.Empty());

  const auto first = network.Deliver(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].payload, 100);
  const auto second = network.Deliver(2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].payload, 200);
}

TEST(Outbox, LaneShrinkReleasesBurstCapacity) {
  UniformMetric metric(2);
  Network<int> network(metric);
  OutboxSet<int> outbox(2);

  // One burst round: lane 0 swells far past steady state.
  const std::size_t kBurst = 4096;
  for (std::size_t i = 0; i < kBurst; ++i) {
    outbox.Send(0, 1, static_cast<int>(i));
  }
  FlushOutbox(outbox, network, /*now=*/0);
  network.Deliver(1);
  const LaneMemory after_burst = outbox.lane_memory();
  EXPECT_GE(after_burst.high_water_items, kBurst);
  EXPECT_GT(after_burst.capacity_bytes, 0u);

  // Quiet rounds: the decayed high-water mark falls and capacity is
  // released instead of staying pinned at the burst peak forever.
  for (Round round = 1; round < 60; ++round) {
    outbox.Send(0, 1, 1);
    FlushOutbox(outbox, network, round);
    network.Deliver(round + 1);
  }
  const LaneMemory settled = outbox.lane_memory();
  EXPECT_LT(settled.capacity_bytes, after_burst.capacity_bytes / 4);
  EXPECT_LT(settled.high_water_items, 16u);
  EXPECT_EQ(settled.queued_items, 0u);
}

TEST(Outbox, LaneMemoryCountsQueuedItems) {
  OutboxSet<int> outbox(3);
  EXPECT_EQ(outbox.lane_memory().queued_items, 0u);
  outbox.Send(0, 1, 7);
  outbox.Send(2, 0, 9);
  const LaneMemory memory = outbox.lane_memory();
  EXPECT_EQ(memory.queued_items, 2u);
  EXPECT_GE(memory.lanes_with_capacity, 2u);
  EXPECT_GT(memory.capacity_bytes, 0u);
}

TEST(TopologyFactory, ParseRoundTrip) {
  for (const auto kind :
       {TopologyKind::kUniform, TopologyKind::kLine, TopologyKind::kRing,
        TopologyKind::kGrid, TopologyKind::kRandomGeometric}) {
    EXPECT_EQ(ParseTopology(TopologyName(kind)), kind);
  }
}

TEST(TopologyFactory, BuildsEachKind) {
  Rng rng(3);
  EXPECT_EQ(MakeMetric(TopologyKind::kUniform, 8)->Diameter(), 1u);
  EXPECT_EQ(MakeMetric(TopologyKind::kLine, 8)->Diameter(), 7u);
  EXPECT_EQ(MakeMetric(TopologyKind::kRing, 8)->Diameter(), 4u);
  EXPECT_EQ(MakeMetric(TopologyKind::kGrid, 16)->Diameter(), 6u);
  EXPECT_GE(MakeMetric(TopologyKind::kRandomGeometric, 8, &rng)->Diameter(),
            1u);
}

}  // namespace
}  // namespace stableshard::net
