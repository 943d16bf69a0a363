#include <cmath>

#include <gtest/gtest.h>

#include "client/semantic_cache.h"
#include "common/rng.h"
#include "geometry/box.h"

namespace mars::client {
namespace {

using geometry::Box2;
using geometry::MakeBox2;

// Brute-force oracle over a fine sample lattice: after executing a
// sequence of (window, w_min) queries through the cache, the union of
// returned sub-query volumes must exactly equal the part of each query's
// (region × band) volume not covered by earlier queries.
class LatticeOracle {
 public:
  // Tracks, per lattice point, the lowest w already fetched.
  LatticeOracle(const Box2& space, int n) : space_(space), n_(n) {
    held_.assign(static_cast<size_t>(n) * n, 2.0);  // 2.0 = nothing
  }

  // Expected remainder volume of a query, and marks it fetched.
  double QueryAndMark(const Box2& window, double w_min) {
    const double cell =
        (space_.Extent(0) / n_) * (space_.Extent(1) / n_);
    double missing = 0.0;
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        const double x = space_.lo(0) + (i + 0.5) * space_.Extent(0) / n_;
        const double y = space_.lo(1) + (j + 0.5) * space_.Extent(1) / n_;
        if (!window.ContainsPoint({x, y})) continue;
        double& held = held_[static_cast<size_t>(i) * n_ + j];
        const double top = std::min(held, 1.0);
        if (w_min < top) missing += (top - w_min) * cell;
        held = std::min(held, w_min);
      }
    }
    return missing;
  }

 private:
  Box2 space_;
  int n_;
  std::vector<double> held_;
};

double PlanVolume(const std::vector<server::SubQuery>& plan) {
  double total = 0.0;
  for (const auto& q : plan) {
    total += q.region.Volume() * (q.w_max - q.w_min);
  }
  return total;
}

TEST(SemanticCacheTest, FirstQueryGoesThroughWhole) {
  SemanticCache cache;
  const Box2 window = MakeBox2(0, 0, 10, 10);
  const auto plan = cache.PlanAndInsert(window, 0.4);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, window);
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.4);
  EXPECT_DOUBLE_EQ(plan[0].w_max, 1.0);
  EXPECT_DOUBLE_EQ(cache.last_coverage(), 0.0);
}

TEST(SemanticCacheTest, RepeatQueryFullyCovered) {
  SemanticCache cache;
  const Box2 window = MakeBox2(0, 0, 10, 10);
  cache.PlanAndInsert(window, 0.4);
  const auto plan = cache.PlanAndInsert(window, 0.4);
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(cache.last_coverage(), 1.0);
}

TEST(SemanticCacheTest, CoarserRepeatAlsoCovered) {
  SemanticCache cache;
  cache.PlanAndInsert(MakeBox2(0, 0, 10, 10), 0.2);
  const auto plan = cache.PlanAndInsert(MakeBox2(2, 2, 8, 8), 0.7);
  EXPECT_TRUE(plan.empty());
}

TEST(SemanticCacheTest, SlowdownFetchesOnlyTheMissingBand) {
  SemanticCache cache;
  const Box2 window = MakeBox2(0, 0, 10, 10);
  cache.PlanAndInsert(window, 0.6);
  const auto plan = cache.PlanAndInsert(window, 0.1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, window);
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.1);
  EXPECT_DOUBLE_EQ(plan[0].w_max, 0.6);  // only the new band
}

TEST(SemanticCacheTest, SlidingWindowFetchesOnlyNewStrip) {
  SemanticCache cache;
  cache.PlanAndInsert(MakeBox2(0, 0, 10, 10), 0.5);
  const auto plan = cache.PlanAndInsert(MakeBox2(2, 0, 12, 10), 0.5);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, MakeBox2(10, 0, 12, 10));
  EXPECT_NEAR(cache.last_coverage(), 0.8, 1e-9);
}

TEST(SemanticCacheTest, MultipleHistoryRegionsAllHelp) {
  // Unlike Algorithm 1 (which only remembers the previous frame), the
  // semantic cache trims against the whole history: revisiting an old
  // region is free.
  SemanticCache cache;
  cache.PlanAndInsert(MakeBox2(0, 0, 10, 10), 0.5);
  cache.PlanAndInsert(MakeBox2(50, 50, 60, 60), 0.5);
  const auto plan = cache.PlanAndInsert(MakeBox2(0, 0, 10, 10), 0.5);
  EXPECT_TRUE(plan.empty());
}

TEST(SemanticCacheTest, EvictionForgetsOldRegions) {
  SemanticCache cache;
  // kMaxEntries + 1 disjoint regions: the first is evicted.
  for (int32_t i = 0; i <= SemanticCache::kMaxEntries; ++i) {
    const double x0 = 20.0 * i;
    cache.PlanAndInsert(MakeBox2(x0, 0, x0 + 10, 10), 0.5);
  }
  EXPECT_EQ(cache.entry_count(),
            static_cast<size_t>(SemanticCache::kMaxEntries));
  const auto plan = cache.PlanAndInsert(MakeBox2(0, 0, 10, 10), 0.5);
  EXPECT_FALSE(plan.empty());  // the first region was forgotten
}

TEST(SemanticCacheTest, DominatedEntriesCollapse) {
  SemanticCache cache;
  cache.PlanAndInsert(MakeBox2(2, 2, 4, 4), 0.8);
  cache.PlanAndInsert(MakeBox2(3, 3, 5, 5), 0.9);
  // A strictly dominating query replaces both.
  cache.PlanAndInsert(MakeBox2(0, 0, 10, 10), 0.5);
  EXPECT_EQ(cache.entry_count(), 1u);
}

// Property test against the lattice oracle: the planned remainder volume
// must match the truly missing volume for random query sequences.
class SemanticCachePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SemanticCachePropertyTest, PlannedVolumeMatchesOracle) {
  common::Rng rng(GetParam());
  const Box2 space = MakeBox2(0, 0, 64, 64);
  // Fewer queries than entries: no eviction, so the oracle never forgets.
  constexpr int kQueries = 40;
  static_assert(kQueries <= SemanticCache::kMaxEntries);
  SemanticCache cache;
  LatticeOracle oracle(space, 64);

  for (int q = 0; q < kQueries; ++q) {
    // Lattice-aligned windows so the point-sample oracle is exact.
    const double x0 = rng.UniformInt(0, 48);
    const double y0 = rng.UniformInt(0, 48);
    const Box2 window = MakeBox2(x0, y0, x0 + rng.UniformInt(1, 16),
                                 y0 + rng.UniformInt(1, 16));
    const double w_min = rng.UniformInt(0, 10) / 10.0;
    const double expected = oracle.QueryAndMark(window, w_min);
    const auto plan = cache.PlanAndInsert(window, w_min);
    EXPECT_NEAR(PlanVolume(plan), expected, 1e-6)
        << "query " << q << " window " << window << " w " << w_min;
    // Sub-queries stay inside the window.
    for (const auto& sq : plan) {
      EXPECT_TRUE(window.Contains(sq.region));
      EXPECT_LE(sq.w_min, sq.w_max);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticCachePropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mars::client
