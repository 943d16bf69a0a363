#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/block_buffer.h"
#include "buffer/cost_model.h"
#include "buffer/lru_cache.h"
#include "buffer/optimal_split.h"
#include "buffer/prefetcher.h"
#include "buffer/residence_sim.h"
#include "buffer/sector_allocator.h"
#include "common/rng.h"
#include "motion/predictor.h"

namespace mars::buffer {
namespace {

// --- ExpectedResidenceTime / OptimalPosition (Eq. 2) -------------------------

TEST(OptimalSplitTest, SymmetricResidenceIsParabola) {
  // p_l == p_r: E[T] = n (a − n).
  for (int a : {4, 10, 20}) {
    for (int n = 1; n < a; ++n) {
      EXPECT_DOUBLE_EQ(ExpectedResidenceTime(a, n, 0.5, 0.5),
                       static_cast<double>(n) * (a - n));
    }
  }
}

TEST(OptimalSplitTest, ResidencePositive) {
  for (int n = 1; n < 10; ++n) {
    EXPECT_GT(ExpectedResidenceTime(10, n, 0.7, 0.3), 0.0);
  }
}

TEST(OptimalSplitTest, SymmetricOptimumIsCenter) {
  EXPECT_DOUBLE_EQ(OptimalPosition(10, 0.5, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(OptimalPosition(9, 0.2, 0.2), 4.5);
}

TEST(OptimalSplitTest, LeftBiasMovesOptimumLeftward) {
  // A left-leaning client needs more room on the left (larger n = distance
  // from the left absorbing wall).
  const double n_balanced = OptimalPosition(20, 0.5, 0.5);
  const double n_left = OptimalPosition(20, 0.7, 0.3);
  const double n_right = OptimalPosition(20, 0.3, 0.7);
  EXPECT_GT(n_left, n_balanced);
  EXPECT_LT(n_right, n_balanced);
  // Symmetry: mirroring probabilities mirrors the position.
  EXPECT_NEAR(n_left + n_right, 20.0, 1e-6);
}

// Property test: the closed-form Eq. (2) position matches brute-force
// maximization of the residence time over integer positions.
class OptimalPositionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(OptimalPositionPropertyTest, MatchesBruteForceArgmax) {
  const auto [a, p_l] = GetParam();
  const double p_r = 1.0 - p_l;
  int best_n = 1;
  double best_t = -1;
  for (int n = 1; n < a; ++n) {
    const double t = ExpectedResidenceTime(a, n, p_l, p_r);
    if (t > best_t) {
      best_t = t;
      best_n = n;
    }
  }
  const double n_opt = OptimalPosition(a, p_l, p_r);
  // The analytic optimum may round either way; it must be within one cell
  // of the discrete argmax and its residence time within a whisker of the
  // best.
  EXPECT_NEAR(n_opt, best_n, 1.0);
  const int rounded = std::clamp(static_cast<int>(std::lround(n_opt)), 1,
                                 a - 1);
  EXPECT_GE(ExpectedResidenceTime(a, rounded, p_l, p_r), 0.95 * best_t);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimalPositionPropertyTest,
    ::testing::Combine(::testing::Values(5, 10, 24, 60),
                       ::testing::Values(0.1, 0.3, 0.5, 0.65, 0.9)));

TEST(OptimalSplitTest, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(OptimalPosition(10, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(OptimalPosition(10, 1.0, 0.0), 9.0);
  EXPECT_DOUBLE_EQ(OptimalPosition(10, 0.0, 0.0), 5.0);
}

TEST(SplitBudgetTest, SumsAndBounds) {
  for (int budget : {0, 1, 5, 20, 100}) {
    for (double p_l : {0.0, 0.2, 0.5, 0.8, 1.0}) {
      const int left = SplitBudget(budget, p_l, 1.0 - p_l);
      EXPECT_GE(left, 0);
      EXPECT_LE(left, budget);
    }
  }
}

TEST(SplitBudgetTest, SymmetricSplitsEvenly) {
  EXPECT_EQ(SplitBudget(10, 0.5, 0.5), 5);
  EXPECT_EQ(SplitBudget(20, 0.5, 0.5), 10);
}

TEST(SplitBudgetTest, BiasGetsMoreBlocks) {
  const int left_biased = SplitBudget(20, 0.8, 0.2);
  const int right_biased = SplitBudget(20, 0.2, 0.8);
  EXPECT_GT(left_biased, 10);
  EXPECT_LT(right_biased, 10);
  EXPECT_EQ(left_biased + right_biased, 20);  // mirror symmetry
}

// --- Sector allocation -------------------------------------------------------

TEST(AllocatorTest, SumsToBudget) {
  common::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 1 << rng.UniformInt(0, 3);  // 1, 2, 4, 8
    std::vector<double> probs(k);
    double total = 0;
    for (double& p : probs) {
      p = rng.UniformDouble();
      total += p;
    }
    for (double& p : probs) p /= total;
    const int budget = static_cast<int>(rng.UniformInt(0, 64));
    const auto alloc = AllocateBuffer(probs, budget);
    ASSERT_EQ(alloc.size(), probs.size());
    EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), 0), budget);
    for (int n : alloc) EXPECT_GE(n, 0);
  }
}

TEST(AllocatorTest, DominantDirectionGetsMost) {
  const auto alloc = AllocateBuffer({0.7, 0.1, 0.1, 0.1}, 40);
  EXPECT_GT(alloc[0], alloc[1]);
  EXPECT_GT(alloc[0], alloc[2]);
  EXPECT_GT(alloc[0], alloc[3]);
  EXPECT_GT(alloc[0], 10);  // strictly more than uniform share
}

TEST(AllocatorTest, UniformProbabilitiesRoughlyUniform) {
  const auto alloc = AllocateBuffer({0.25, 0.25, 0.25, 0.25}, 40);
  for (int n : alloc) {
    EXPECT_GE(n, 8);
    EXPECT_LE(n, 12);
  }
}

TEST(AllocatorTest, SingleDirectionTakesAll) {
  const auto alloc = AllocateBuffer({1.0}, 17);
  ASSERT_EQ(alloc.size(), 1u);
  EXPECT_EQ(alloc[0], 17);
}

TEST(AllocatorTest, BestOrderingNoWorseThanDefault) {
  const std::vector<double> probs = {0.5, 0.05, 0.3, 0.15};
  const auto base = AllocateBuffer(probs, 30);
  const auto best = AllocateBufferBestOrdering(probs, 30);
  EXPECT_EQ(std::accumulate(best.begin(), best.end(), 0), 30);
  EXPECT_GE(AllocationScore(probs, best), AllocationScore(probs, base));
}

TEST(AllocatorTest, OrderingOnlySlightlyAffectsResidence) {
  // The paper's observation that the ordering search "can be omitted".
  const std::vector<double> probs = {0.4, 0.3, 0.2, 0.1};
  const auto base = AllocateBuffer(probs, 40);
  const auto best = AllocateBufferBestOrdering(probs, 40);
  common::Rng rng(5);
  const double t_base = SimulateStarResidence(probs, base, 0.2, 3000, rng);
  const double t_best = SimulateStarResidence(probs, best, 0.2, 3000, rng);
  EXPECT_LT(std::abs(t_best - t_base) / t_base, 0.25);
}

TEST(ResidenceSimTest, MoreBufferMeansLongerResidence) {
  const std::vector<double> probs = {0.4, 0.3, 0.2, 0.1};
  common::Rng rng(7);
  const double small = SimulateStarResidence(
      probs, AllocateBuffer(probs, 8), 0.2, 2000, rng);
  const double large = SimulateStarResidence(
      probs, AllocateBuffer(probs, 40), 0.2, 2000, rng);
  EXPECT_GT(large, small);
}

TEST(ResidenceSimTest, Eq2AllocationBeatsUniformOnSkewedMotion) {
  // The heart of the motion-aware claim: probability-shaped allocation
  // outlives a uniform one when motion is skewed.
  const std::vector<double> probs = {0.75, 0.1, 0.1, 0.05};
  const int budget = 24;
  const auto shaped = AllocateBuffer(probs, budget);
  const std::vector<int32_t> uniform(4, budget / 4);
  common::Rng rng(9);
  const double t_shaped =
      SimulateStarResidence(probs, shaped, 0.2, 4000, rng);
  const double t_uniform =
      SimulateStarResidence(probs, uniform, 0.2, 4000, rng);
  EXPECT_GT(t_shaped, t_uniform);
}

// --- Cost model (Eq. 1) -----------------------------------------------------

TEST(CostModelTest, MatchesClosedForm) {
  TransferCostParams params;
  params.connection_cost = 0.5;
  params.per_byte_cost = 0.001;
  params.block_bytes = 100;
  // 3 misses fetching 1, 2, 4 blocks: 3·0.5 + 0.1·(1+2+4) = 2.2.
  EXPECT_NEAR(TotalTransferCost(params, {1, 2, 4}), 2.2, 1e-12);
}

TEST(CostModelTest, NoMissesNoCost) {
  EXPECT_DOUBLE_EQ(TotalTransferCost(TransferCostParams(), {}), 0.0);
}

TEST(CostModelTest, FewerMissesCheaperForSameBlocks) {
  // Eq. (1)'s point: batching the same data into fewer misses saves the
  // connection costs.
  TransferCostParams params;
  params.connection_cost = 0.2;
  EXPECT_LT(TotalTransferCost(params, {6}),
            TotalTransferCost(params, {1, 1, 1, 1, 1, 1}));
}

// --- LruCache ---------------------------------------------------------------

TEST(LruCacheTest, BasicHitMiss) {
  LruCache<int> cache(100);
  EXPECT_FALSE(cache.Touch(1));
  cache.Put(1, 40);
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(100);
  cache.Put(1, 40);
  cache.Put(2, 40);
  cache.Touch(1);             // 2 is now LRU
  const auto evicted = cache.Put(3, 40);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(LruCacheTest, CapacityTracked) {
  LruCache<int> cache(100);
  cache.Put(1, 60);
  cache.Put(2, 30);
  EXPECT_EQ(cache.used_bytes(), 90);
  cache.Put(3, 30);  // evicts 1
  EXPECT_LE(cache.used_bytes(), 100);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, OversizedEntryAdmittedAlone) {
  LruCache<int> cache(50);
  cache.Put(1, 10);
  cache.Put(2, 500);  // bigger than capacity
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, UpdateExistingKeyAdjustsBytes) {
  LruCache<int> cache(100);
  cache.Put(1, 30);
  cache.Put(1, 50);
  EXPECT_EQ(cache.used_bytes(), 50);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, Erase) {
  LruCache<int> cache(100);
  cache.Put(1, 30);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.used_bytes(), 0);
}

// --- BlockBuffer ------------------------------------------------------------

TEST(BlockBufferTest, MissThenHitAfterDemandFill) {
  BlockBuffer buffer(10000);
  EXPECT_FALSE(buffer.Lookup(5, 0.5));
  buffer.InsertDemand(5, 0.5, 100, 1.0);
  EXPECT_TRUE(buffer.Lookup(5, 0.5));
  EXPECT_TRUE(buffer.Lookup(5, 0.8));   // coarser need: still a hit
  EXPECT_FALSE(buffer.Lookup(5, 0.2));  // finer need: miss
  EXPECT_EQ(buffer.stats().hits, 2);
  EXPECT_EQ(buffer.stats().misses, 2);
}

TEST(BlockBufferTest, ResolutionUpgradeMerges) {
  BlockBuffer buffer(10000);
  buffer.InsertDemand(5, 0.8, 100, 1.0);
  EXPECT_FALSE(buffer.Lookup(5, 0.3));
  buffer.InsertDemand(5, 0.3, 200, 1.0);  // the missing band
  EXPECT_TRUE(buffer.Lookup(5, 0.3));
  EXPECT_DOUBLE_EQ(buffer.HeldWMin(5), 0.3);
}

TEST(BlockBufferTest, UtilizationCountsUsedPrefetches) {
  BlockBuffer buffer(10000);
  buffer.InsertPrefetch(1, 0.5, 100, 0.9);
  buffer.InsertPrefetch(2, 0.5, 300, 0.8);
  EXPECT_DOUBLE_EQ(buffer.stats().Utilization(), 0.0);
  EXPECT_TRUE(buffer.Lookup(1, 0.5));
  EXPECT_NEAR(buffer.stats().Utilization(), 0.25, 1e-12);  // 100 / 400
  EXPECT_TRUE(buffer.Lookup(1, 0.5));  // re-hit doesn't double count
  EXPECT_NEAR(buffer.stats().Utilization(), 0.25, 1e-12);
  EXPECT_TRUE(buffer.Lookup(2, 0.6));
  EXPECT_NEAR(buffer.stats().Utilization(), 1.0, 1e-12);
}

TEST(BlockBufferTest, EvictsLowestPriority) {
  BlockBuffer buffer(2 * BlockBuffer::kEntryOverheadBytes + 250);
  buffer.InsertPrefetch(1, 0.5, 100, 0.9);
  buffer.InsertPrefetch(2, 0.5, 100, 0.1);
  // Inserting a third block overflows; block 2 (lowest priority) must go.
  buffer.InsertPrefetch(3, 0.5, 50, 0.5);
  EXPECT_TRUE(buffer.Contains(1));
  EXPECT_FALSE(buffer.Contains(2));
  EXPECT_TRUE(buffer.Contains(3));
}

TEST(BlockBufferTest, DecayAgesPriorities) {
  BlockBuffer buffer(2 * BlockBuffer::kEntryOverheadBytes + 250);
  buffer.InsertPrefetch(1, 0.5, 100, 0.6);
  for (int i = 0; i < 10; ++i) buffer.DecayPriorities(0.5);
  buffer.InsertPrefetch(2, 0.5, 100, 0.5);
  buffer.InsertPrefetch(3, 0.5, 50, 0.4);  // overflow: stale block 1 goes
  EXPECT_FALSE(buffer.Contains(1));
  EXPECT_TRUE(buffer.Contains(2));
}

TEST(BlockBufferTest, EntryOverheadCharged) {
  BlockBuffer buffer(10000);
  buffer.InsertDemand(1, 0.5, 0, 1.0);  // data-less block still costs
  EXPECT_EQ(buffer.used_bytes(), BlockBuffer::kEntryOverheadBytes);
}

TEST(BlockBufferTest, HeldWMinInfiniteWhenAbsent) {
  BlockBuffer buffer(1000);
  EXPECT_TRUE(std::isinf(buffer.HeldWMin(7)));
}

TEST(BlockBufferTest, PeekDoesNotTouchStats) {
  BlockBuffer buffer(10000);
  buffer.InsertPrefetch(1, 0.5, 100, 0.9);
  EXPECT_TRUE(buffer.Peek(1, 0.5));
  EXPECT_FALSE(buffer.Peek(1, 0.2));
  EXPECT_FALSE(buffer.Peek(99, 0.5));
  EXPECT_EQ(buffer.stats().lookups, 0);
  EXPECT_EQ(buffer.stats().used_prefetched_bytes, 0);  // no used credit
}

TEST(BlockBufferTest, PinnedBlocksSurviveEviction) {
  BlockBuffer buffer(2 * BlockBuffer::kEntryOverheadBytes + 150);
  buffer.InsertDemand(1, 0.5, 100, 0.1);  // lowest priority
  buffer.Pin(1);
  buffer.InsertPrefetch(2, 0.5, 100, 0.9);
  buffer.InsertPrefetch(3, 0.5, 100, 0.8);  // forces eviction
  EXPECT_TRUE(buffer.Contains(1));   // pinned: never evicted
  EXPECT_TRUE(buffer.Contains(2));
  EXPECT_FALSE(buffer.Contains(3));  // 3 could not displace 2
}

TEST(BlockBufferTest, PinnedBytesDoNotCountAgainstCapacity) {
  BlockBuffer buffer(BlockBuffer::kEntryOverheadBytes + 200);
  buffer.Pin(1);
  buffer.InsertDemand(1, 0.1, 100000, 1.0);  // far over capacity
  // A pinned oversized block leaves the full capacity for prefetch.
  buffer.InsertPrefetch(2, 0.5, 150, 0.5);
  EXPECT_TRUE(buffer.Contains(1));
  EXPECT_TRUE(buffer.Contains(2));
}

TEST(BlockBufferTest, UnpinRestoresCapacityPressure) {
  BlockBuffer buffer(2 * BlockBuffer::kEntryOverheadBytes + 150);
  buffer.Pin(1);  // the client pins view blocks before fetching them
  buffer.InsertDemand(1, 0.1, 5000, 0.05);
  buffer.InsertPrefetch(2, 0.5, 100, 0.9);
  EXPECT_TRUE(buffer.Contains(1));
  buffer.Unpin(1);  // 5000 bytes now charged: must evict something
  EXPECT_LE(buffer.used_bytes(), buffer.capacity_bytes() +
                                     5000 + BlockBuffer::kEntryOverheadBytes);
  // Block 1 is the lowest priority and way oversized: it goes.
  EXPECT_FALSE(buffer.Contains(1));
  EXPECT_TRUE(buffer.Contains(2));
}

TEST(BlockBufferTest, PinAbsentBlockCreatesPlaceholder) {
  BlockBuffer buffer(10000);
  buffer.Pin(42);
  EXPECT_TRUE(buffer.Contains(42));
  EXPECT_TRUE(buffer.IsPinned(42));
  EXPECT_FALSE(buffer.Peek(42, 1.0));  // placeholder holds no data
  buffer.InsertDemand(42, 0.5, 100, 1.0);
  EXPECT_TRUE(buffer.Peek(42, 0.5));
  buffer.Unpin(42);
  EXPECT_FALSE(buffer.IsPinned(42));
}

TEST(BlockBufferTest, CanAdmitRespectsPriorities) {
  BlockBuffer buffer(2 * BlockBuffer::kEntryOverheadBytes + 200);
  buffer.InsertPrefetch(1, 0.5, 100, 0.6);
  buffer.InsertPrefetch(2, 0.5, 100, 0.4);
  // Admitting 100 bytes requires evicting one of the resident blocks.
  EXPECT_TRUE(buffer.CanAdmit(100, 0.5));   // can displace block 2 (0.4)
  EXPECT_FALSE(buffer.CanAdmit(100, 0.3));  // cannot displace anything
  EXPECT_TRUE(buffer.CanAdmit(250, 0.7));   // can displace both
  EXPECT_FALSE(buffer.CanAdmit(250, 0.5));  // can only displace block 2
}

TEST(BlockBufferTest, CanAdmitIgnoresPinnedBlocks) {
  BlockBuffer buffer(BlockBuffer::kEntryOverheadBytes + 100);
  buffer.InsertDemand(1, 0.5, 100, 0.0);  // evictable by priority...
  buffer.Pin(1);                          // ...but pinned
  // Pinned bytes are exempt from the capacity, so there is free room.
  EXPECT_TRUE(buffer.CanAdmit(50, 0.1));
  // But nothing beyond the free room can be reclaimed from pinned data.
  EXPECT_FALSE(buffer.CanAdmit(200, 1.0));
}

// Reference-model fuzz: a trivially correct map-based reimplementation of
// the buffer's residency semantics, driven with random operation
// sequences; BlockBuffer must agree on every observable.
class BlockBufferFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockBufferFuzzTest, AgreesWithReferenceModel) {
  common::Rng rng(GetParam() * 101);
  // Large capacity: residency semantics only (eviction policy is covered
  // by targeted tests above).
  BlockBuffer buffer(100'000'000);
  struct Ref {
    double w_min = 2.0;
    bool pinned = false;
  };
  std::unordered_map<int64_t, Ref> reference;

  for (int op = 0; op < 5000; ++op) {
    const int64_t block = rng.UniformInt(0, 30);
    const double w = rng.UniformInt(0, 10) / 10.0;
    switch (rng.UniformInt(0, 5)) {
      case 0: {
        buffer.InsertDemand(block, w, rng.UniformInt(0, 100), 0.5);
        auto& r = reference[block];
        r.w_min = std::min(r.w_min, w);
        break;
      }
      case 1: {
        buffer.InsertPrefetch(block, w, rng.UniformInt(0, 100), 0.5);
        auto& r = reference[block];
        r.w_min = std::min(r.w_min, w);
        break;
      }
      case 2: {
        const bool expected =
            reference.contains(block) && reference[block].w_min <= w;
        EXPECT_EQ(buffer.Peek(block, w), expected) << "op " << op;
        break;
      }
      case 3: {
        const bool expected =
            reference.contains(block) && reference[block].w_min <= w;
        EXPECT_EQ(buffer.Lookup(block, w), expected) << "op " << op;
        break;
      }
      case 4: {
        buffer.Pin(block);
        reference[block];  // pin creates a placeholder
        reference[block].pinned = true;
        break;
      }
      default: {
        buffer.Unpin(block);
        if (reference.contains(block)) reference[block].pinned = false;
        break;
      }
    }
    EXPECT_EQ(buffer.IsPinned(block),
              reference.contains(block) && reference[block].pinned);
    const double expected_held = reference.contains(block)
                                     ? reference[block].w_min
                                     : std::numeric_limits<double>::infinity();
    if (std::isinf(expected_held)) {
      EXPECT_TRUE(std::isinf(buffer.HeldWMin(block)));
    } else {
      EXPECT_DOUBLE_EQ(buffer.HeldWMin(block), expected_held);
    }
  }
  // Stats consistency at the end.
  EXPECT_EQ(buffer.stats().hits + buffer.stats().misses,
            buffer.stats().lookups);
  EXPECT_LE(buffer.stats().used_prefetched_bytes,
            buffer.stats().prefetched_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockBufferFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Prefetchers ------------------------------------------------------------

TEST(PrefetcherTest, NaiveFillsRingsAroundClient) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  NaivePrefetcher naive;
  const auto plan = naive.Plan(grid, {500, 500}, 0.5, 8);
  ASSERT_EQ(plan.items.size(), 8u);
  const auto center = grid.BlockOfPoint({500, 500});
  for (const auto& item : plan.items) {
    const auto c = grid.BlockCoordOf(item.block);
    EXPECT_EQ(std::max(std::abs(c.i - center.i), std::abs(c.j - center.j)),
              1);  // budget of 8 = exactly the first ring
    EXPECT_DOUBLE_EQ(item.priority, 0.5);
    EXPECT_DOUBLE_EQ(item.w_min, 0.5);
  }
}

TEST(PrefetcherTest, NaiveRespectsBudget) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  NaivePrefetcher naive;
  EXPECT_EQ(naive.Plan(grid, {500, 500}, 0.2, 30).items.size(), 30u);
  EXPECT_TRUE(naive.Plan(grid, {500, 500}, 0.2, 0).items.empty());
}

TEST(PrefetcherTest, MotionAwarePrefersHeading) {
  // An eastbound client's plan should put most of its blocks east.
  motion::MotionPredictor predictor;
  for (int t = 0; t < 50; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  MotionAwarePrefetcher prefetcher;
  common::Rng rng(11);
  const auto plan =
      prefetcher.Plan(predictor, grid, {490, 500}, 0.5, 24, rng);
  ASSERT_FALSE(plan.items.empty());
  int east = 0, west = 0;
  for (const auto& item : plan.items) {
    const auto center = grid.BlockBox(item.block).Center();
    (center[0] > 490 ? east : west)++;
  }
  EXPECT_GT(east, west * 2);
}

TEST(PrefetcherTest, MotionAwareRespectsBudget) {
  motion::MotionPredictor predictor;
  for (int t = 0; t < 50; ++t) predictor.Observe({5.0 * t, 5.0 * t});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  MotionAwarePrefetcher prefetcher;
  common::Rng rng(13);
  for (int budget : {0, 1, 10, 50}) {
    const auto plan =
        prefetcher.Plan(predictor, grid, {250, 250}, 0.5, budget, rng);
    EXPECT_LE(static_cast<int>(plan.items.size()), budget);
  }
}

TEST(PrefetcherTest, SpeedSetsPrefetchResolution) {
  motion::MotionPredictor predictor;
  for (int t = 0; t < 50; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  MotionAwarePrefetcher prefetcher;
  common::Rng rng(15);
  const auto slow =
      prefetcher.Plan(predictor, grid, {490, 500}, 0.1, 10, rng);
  const auto fast =
      prefetcher.Plan(predictor, grid, {490, 500}, 0.9, 10, rng);
  ASSERT_FALSE(slow.items.empty());
  ASSERT_FALSE(fast.items.empty());
  EXPECT_DOUBLE_EQ(slow.items[0].w_min, 0.1);
  EXPECT_DOUBLE_EQ(fast.items[0].w_min, 0.9);
}

TEST(PrefetcherTest, ColdPredictorRingFillsItsBudget) {
  // A predictor with no observations samples around the origin, far from
  // this space: no block gets predicted mass, so the plan comes from the
  // rings around the client and still spends the whole budget.
  const motion::MotionPredictor predictor;
  const geometry::GridPartition grid(
      geometry::MakeBox2(20000, 20000, 21000, 21000), 20, 20);
  common::Rng probe(17);
  const motion::BlockProbabilities probs = motion::ComputeBlockProbabilities(
      predictor, grid, motion::GridProbabilityOptions(), probe);
  ASSERT_TRUE(probs.empty());
  MotionAwarePrefetcher prefetcher;
  const geometry::Vec2 position{20500, 20500};
  const int64_t own_block = grid.BlockId(grid.BlockOfPoint(position));
  for (int budget : {1, 8, 24, 60}) {
    common::Rng rng(17);
    const auto plan =
        prefetcher.Plan(predictor, grid, position, 0.5, budget, rng);
    ASSERT_EQ(static_cast<int>(plan.items.size()), budget) << budget;
    for (const auto& item : plan.items) EXPECT_NE(item.block, own_block);
  }
}

TEST(PrefetcherTest, WarmPlanHoldsNoZeroMassRingItem) {
  // With predicted mass, only blocks that hold some are planned: a
  // zero-mass ring item would carry just its ring tie-break, 1e-6 / (1 +
  // ring) <= 1e-6, far below any sampled block's probability.
  motion::MotionPredictor predictor;
  for (int t = 0; t < 50; ++t) predictor.Observe({300 + 10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  MotionAwarePrefetcher prefetcher;
  for (int budget : {1, 8, 32, 100}) {
    common::Rng rng(19);
    const auto plan =
        prefetcher.Plan(predictor, grid, {790, 500}, 0.5, budget, rng);
    ASSERT_FALSE(plan.items.empty());
    EXPECT_LE(static_cast<int>(plan.items.size()), budget);
    for (const auto& item : plan.items) {
      EXPECT_GT(item.priority, 1e-6) << "block " << item.block;
    }
  }
}

TEST(PrefetchPlanTest, DedupeKeepsHigherPriorityAndFinerResolution) {
  // Block 7 appears twice — e.g. reachable from two direction sectors —
  // once strong/coarse and once weak/fine. The merged item must carry
  // the stronger priority and the finer (smaller) w_min.
  PrefetchPlan plan;
  plan.items = {{5, 0.9, 0.5},
                {7, 0.6, 0.8},
                {3, 0.4, 0.5},
                {7, 0.2, 0.3}};
  plan.Dedupe();
  ASSERT_EQ(plan.items.size(), 3u);
  EXPECT_EQ(plan.items[0].block, 5);
  EXPECT_EQ(plan.items[1].block, 7);
  EXPECT_DOUBLE_EQ(plan.items[1].priority, 0.6);
  EXPECT_DOUBLE_EQ(plan.items[1].w_min, 0.3);
  EXPECT_EQ(plan.items[2].block, 3);
}

TEST(PrefetchPlanTest, DedupeIsNoopWhenUnique) {
  // A duplicate-free plan must come back exactly as it went in — order
  // included, even where priorities tie (a re-sort could reorder ties
  // and silently change which blocks survive a budget cut downstream).
  PrefetchPlan plan;
  plan.items = {{4, 0.5, 0.2}, {9, 0.5, 0.4}, {1, 0.5, 0.6}, {2, 0.7, 0.1}};
  const auto before = plan.items;
  plan.Dedupe();
  ASSERT_EQ(plan.items.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(plan.items[i].block, before[i].block) << "index " << i;
    EXPECT_DOUBLE_EQ(plan.items[i].priority, before[i].priority);
    EXPECT_DOUBLE_EQ(plan.items[i].w_min, before[i].w_min);
  }
}

TEST(PrefetcherTest, PlansAreDuplicateFree) {
  motion::MotionPredictor predictor;
  for (int t = 0; t < 50; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  MotionAwarePrefetcher prefetcher;
  common::Rng rng(11);
  const auto ma = prefetcher.Plan(predictor, grid, {490, 500}, 0.5, 24, rng);
  NaivePrefetcher naive;
  const auto nv = naive.Plan(grid, {500, 500}, 0.5, 30);
  for (const auto* plan : {&ma, &nv}) {
    std::unordered_set<int64_t> seen;
    for (const auto& item : plan->items) {
      EXPECT_TRUE(seen.insert(item.block).second)
          << "block " << item.block << " planned twice";
    }
  }
}

}  // namespace
}  // namespace mars::buffer
