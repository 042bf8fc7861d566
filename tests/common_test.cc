// Unit tests for src/common: RNG determinism and distribution sanity,
// integer math helpers (exactness of the paper's bound formulas), CSV
// output, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/csv.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace stableshard {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 64ull, 1000003ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (std::uint64_t population : {8ull, 64ull, 10000ull}) {
    for (std::uint64_t count : {1ull, 4ull, 8ull}) {
      if (count > population) continue;
      const auto sample = rng.SampleWithoutReplacement(population, count);
      EXPECT_EQ(sample.size(), count);
      std::set<std::uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), count);
      for (const auto v : sample) EXPECT_LT(v, population);
    }
  }
}

TEST(Rng, SampleFullPopulationIsPermutation) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(16, 16);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 16u);
}

// Pins the sampler's exact output, and the generator state it leaves
// behind, for fixed (seed, population, count) cells on the dense
// (Fisher-Yates) and the sparse (rejection) paths. Every
// workload's transaction stream depends on these draws, so a change here
// changes every simulation result.
TEST(Rng, SampleWithoutReplacementGolden) {
  struct Cell {
    std::uint64_t seed;
    std::uint64_t population;
    std::uint64_t count;
    std::vector<std::uint64_t> expected;
    std::uint64_t next;  ///< the generator's next output after sampling
  };
  const std::vector<Cell> cells = {
      {13, 8, 4,
       {1, 6, 7, 3},
       12054088474581631406ull},
      {13, 64, 8,
       {15, 50, 61, 9, 43, 30, 13, 39},
       10910944071128475545ull},
      {21, 40, 12,
       {1, 32, 27, 14, 31, 5, 38, 21, 6, 3, 20, 30},
       10999289009795257930ull},
      {5, 16, 16,
       {4, 10, 11, 13, 1, 3, 2, 14, 0, 6, 15, 12, 5, 8, 9, 7},
       12557456731418859493ull},
      {13, 10000, 8,
       {2422, 7828, 9629, 1067, 6534, 4400, 1304, 5645},
       10910944071128475545ull},
      {7, 1024, 8,
       {717, 285, 859, 1004, 1014, 893, 62, 106},
       7447070967899653408ull},
      {99, 1000000, 3,
       {348703, 564000, 378214},
       15783551150292301276ull},
      {3, 1024, 100,
       {707, 655, 223, 546, 434, 409, 215, 732, 964, 199, 945, 696, 660,
        772, 701, 112, 118, 117, 918, 725, 614, 523, 531, 56, 935, 1004,
        608, 928, 181, 481, 12, 876, 749, 218, 988, 891, 485, 594, 268,
        356, 304, 484, 392, 554, 616, 391, 621, 270, 452, 836, 26, 641,
        600, 286, 884, 645, 36, 799, 620, 601, 745, 986, 435, 418, 6, 325,
        824, 893, 427, 174, 905, 310, 774, 896, 309, 673, 370, 750, 415,
        351, 213, 569, 611, 406, 444, 767, 763, 729, 346, 619, 393, 273,
        864, 880, 539, 290, 33, 228, 460, 985},
       15079962767919976640ull},
      {11, 4096, 1,
       {914},
       1609190652402573441ull},
      // ~8 rejected repeats.
      {17, 257, 64,
       {169, 177, 241, 248, 171, 223, 226, 139, 170, 0, 244, 107, 54, 85,
        27, 23, 49, 240, 132, 234, 9, 115, 144, 29, 91, 22, 153, 203, 33,
        67, 11, 94, 168, 243, 98, 247, 65, 89, 210, 10, 41, 207, 194, 161,
        245, 4, 110, 140, 192, 164, 118, 53, 8, 235, 189, 150, 127, 112, 16,
        242, 76, 109, 166, 202},
       5960035196070630137ull},
  };
  for (const Cell& cell : cells) {
    Rng rng(cell.seed);
    EXPECT_EQ(rng.SampleWithoutReplacement(cell.population, cell.count),
              cell.expected)
        << "seed " << cell.seed << " population " << cell.population
        << " count " << cell.count;
    EXPECT_EQ(rng(), cell.next) << "seed " << cell.seed;
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.Shuffle(std::span<int>(shuffled));
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(MathUtil, CeilSqrtExactValues) {
  EXPECT_EQ(CeilSqrt(0), 0u);
  EXPECT_EQ(CeilSqrt(1), 1u);
  EXPECT_EQ(CeilSqrt(2), 2u);
  EXPECT_EQ(CeilSqrt(4), 2u);
  EXPECT_EQ(CeilSqrt(5), 3u);
  EXPECT_EQ(CeilSqrt(63), 8u);
  EXPECT_EQ(CeilSqrt(64), 8u);
  EXPECT_EQ(CeilSqrt(65), 9u);
}

TEST(MathUtil, CeilSqrtMatchesDefinitionUpTo10k) {
  for (std::uint64_t x = 1; x <= 10000; ++x) {
    const std::uint64_t r = CeilSqrt(x);
    EXPECT_GE(r * r, x);
    EXPECT_LT((r - 1) * (r - 1), x);
  }
}

TEST(MathUtil, FloorSqrtMatchesDefinition) {
  for (std::uint64_t x = 1; x <= 10000; ++x) {
    const std::uint64_t r = FloorSqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
  }
}

TEST(MathUtil, Log2Helpers) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(64), 6u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(64), 6u);
  EXPECT_EQ(CeilLog2(65), 7u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

TEST(MathUtil, BdsStableRateBoundPicksMax) {
  // k = 8, s = 64: max{1/144, 1/(18*8)} = 1/144.
  EXPECT_DOUBLE_EQ(BdsStableRateBound(8, 64), 1.0 / 144.0);
  // k = 2, s = 64: max{1/36, 1/144} = 1/36.
  EXPECT_DOUBLE_EQ(BdsStableRateBound(2, 64), 1.0 / 36.0);
}

TEST(MathUtil, AbsoluteStabilityUpperBound) {
  // k = 8, s = 64: max{2/9, 2/floor(sqrt(128))=2/11}.
  EXPECT_DOUBLE_EQ(AbsoluteStabilityUpperBound(8, 64), 2.0 / 9.0);
  // k = 1: bound capped at 1.
  EXPECT_DOUBLE_EQ(AbsoluteStabilityUpperBound(1, 64), 1.0);
}

TEST(MathUtil, MinKSqrtS) {
  EXPECT_EQ(MinKSqrtS(8, 64), 8u);
  EXPECT_EQ(MinKSqrtS(10, 64), 8u);
  EXPECT_EQ(MinKSqrtS(2, 64), 2u);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b", "c"});
    ASSERT_TRUE(csv.ok());
    csv.Row(1, 2.5, "x");
    csv.Row("y", 3, 4);
    csv.Flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b,c");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5,x");
  std::getline(in, line);
  EXPECT_EQ(line, "y,3,4");
}

TEST(ThreadPool, RunsEveryPartOnce) {
  ThreadPool pool(7);
  std::vector<std::atomic<int>> hits(8);
  pool.Run(8, [&](std::size_t part) { hits[part].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, TeamIsReusableAcrossCalls) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.team_size(), 3u);
  // Repeated fan-outs on the same team, full width and narrower (a
  // narrower job leaves the surplus helpers idle for that call).
  std::vector<std::atomic<int>> hits(3);
  const std::size_t widths[] = {3, 1, 2, 3, 3};
  for (const std::size_t parts : widths) {
    pool.Run(parts, [&](std::size_t part) { hits[part].fetch_add(1); });
  }
  EXPECT_EQ(hits[0].load(), 5);
  EXPECT_EQ(hits[1].load(), 4);
  EXPECT_EQ(hits[2].load(), 3);
}

TEST(ThreadPool, ZeroPartsIsNoop) {
  ThreadPool pool(2);
  pool.Run(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, PartZeroRunsOnCallingThread) {
  ThreadPool pool(3);
  std::vector<std::thread::id> first(4);
  std::vector<std::thread::id> second(4);
  pool.Run(4, [&](std::size_t part) {
    first[part] = std::this_thread::get_id();
  });
  pool.Run(4, [&](std::size_t part) {
    second[part] = std::this_thread::get_id();
  });
  EXPECT_EQ(first[0], std::this_thread::get_id());
  // Each helper owns one part: four distinct threads, the same ones on
  // every call.
  EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(),
            4u);
  EXPECT_EQ(first, second);
}

TEST(ThreadPool, NoHelpersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.team_size(), 1u);
  std::thread::id ran_on;
  pool.Run(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(Mix64, DistinctInputsMix) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Arena, AllocationsAlignedAndRewoundByReset) {
  common::Arena arena;
  auto* first = arena.AllocateArray<std::uint64_t>(10);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % alignof(std::uint64_t),
            0u);
  // A 3-byte allocation misaligns the cursor; the next uint64_t array must
  // be re-aligned, with the padding counted toward the usage mark.
  arena.AllocateArray<std::uint8_t>(3);
  auto* second = arena.AllocateArray<std::uint64_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second) % alignof(std::uint64_t),
            0u);
  for (int i = 0; i < 10; ++i) first[i] = 0xABCDu + i;
  *second = 99;
  EXPECT_EQ(first[9], 0xABCDu + 9);

  // Reset rewinds the bump pointer: a single resident chunk below the
  // shrink floor is kept, so the same storage is handed out again.
  arena.Reset();
  auto* reused = arena.AllocateArray<std::uint64_t>(10);
  EXPECT_EQ(reused, first);
}

TEST(Arena, MemoryStatsTrackUsageResetsAndHighWater) {
  common::Arena arena;
  EXPECT_EQ(arena.memory().reserved_bytes, 0u);
  EXPECT_EQ(arena.memory().chunks, 0u);
  arena.AllocateArray<std::uint32_t>(100);
  auto stats = arena.memory();
  EXPECT_GE(stats.used_bytes, 400u);
  EXPECT_GE(stats.reserved_bytes, stats.used_bytes);
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.resets, 0u);
  arena.Reset();
  stats = arena.memory();
  EXPECT_EQ(stats.used_bytes, 0u);
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_GE(stats.high_water_bytes, 400u);  // the round's peak survives

  common::ArenaMemoryStats sum = stats;
  sum += stats;  // per-shard aggregation in Scheduler::ArenaMemory()
  EXPECT_EQ(sum.resets, 2 * stats.resets);
  EXPECT_EQ(sum.high_water_bytes, 2 * stats.high_water_bytes);
}

TEST(Arena, OverflowGrowsThenResetCoalescesToOneChunk) {
  common::Arena arena(common::Arena::kMinChunkBytes);
  arena.AllocateArray<std::byte>(common::Arena::kMinChunkBytes);
  arena.AllocateArray<std::byte>(3 * common::Arena::kMinChunkBytes);
  EXPECT_GE(arena.memory().chunks, 2u);  // the round outgrew its reservation
  arena.Reset();
  const auto stats = arena.memory();
  EXPECT_EQ(stats.chunks, 1u);  // coalesced into one right-sized chunk
  EXPECT_GE(stats.reserved_bytes, 4u * common::Arena::kMinChunkBytes);
}

TEST(Arena, ShrinksAfterSpikeDecays) {
  common::Arena arena;
  // One spiked round far past the shrink floor...
  arena.AllocateArray<std::byte>(1 << 20);
  arena.Reset();
  const auto spiked = arena.memory().reserved_bytes;
  EXPECT_GE(spiked, std::uint64_t{1} << 20);
  // ... then steady small rounds: the decayed high-water mark falls until
  // the oversized reservation is released and re-sized to the small load.
  for (int round = 0; round < 64; ++round) {
    arena.AllocateArray<std::byte>(256);
    arena.Reset();
  }
  EXPECT_LT(arena.memory().reserved_bytes, spiked);
  EXPECT_EQ(arena.memory().chunks, 1u);
}

TEST(ArenaVector, BackedByArenaScratch) {
  common::Arena arena;
  common::ArenaVector<std::uint32_t> values{
      common::ArenaAllocator<std::uint32_t>(&arena)};
  for (std::uint32_t i = 0; i < 100; ++i) values.push_back(i);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
  // Growth reallocations never free (deallocate is a no-op), so usage
  // reflects the doubling history, all of it reclaimed by one Reset().
  EXPECT_GE(arena.memory().used_bytes, 100u * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace stableshard
