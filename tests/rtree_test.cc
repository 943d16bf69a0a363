#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/box.h"
#include "index/record.h"
#include "index/rtree.h"
#include "index/shard_map.h"

namespace mars::index {
namespace {

using geometry::Box;

template <size_t Dim>
Box<Dim> RandomBox(common::Rng& rng, double space, double max_extent) {
  std::array<double, Dim> lo, hi;
  for (size_t d = 0; d < Dim; ++d) {
    lo[d] = rng.Uniform(0, space);
    hi[d] = lo[d] + rng.Uniform(0, max_extent);
  }
  return Box<Dim>(lo, hi);
}

template <size_t Dim>
std::vector<int64_t> BruteForceQuery(
    const std::vector<typename RTree<Dim>::Entry>& entries,
    const Box<Dim>& window) {
  std::vector<int64_t> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(window)) out.push_back(e.value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Exercises the tree against a brute-force oracle. Parameterized over
// (split policy, forced reinsert, entry count, seed); repeated for
// dimensions 2, 3 and 4 through the typed helper below.
using Param = std::tuple<SplitPolicy, bool, int, int>;

template <size_t Dim>
void RunOracleTest(const Param& param) {
  const auto [policy, reinsert, count, seed] = param;
  RTreeOptions options;
  options.split_policy = policy;
  options.forced_reinsert = reinsert;
  RTree<Dim> tree(options);
  common::Rng rng(static_cast<uint64_t>(seed) * 7919 + Dim);

  std::vector<typename RTree<Dim>::Entry> entries;
  for (int i = 0; i < count; ++i) {
    const Box<Dim> box = RandomBox<Dim>(rng, 100.0, 10.0);
    tree.Insert(box, i);
    entries.push_back({box, i});
  }
  ASSERT_EQ(tree.size(), count);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();

  for (int q = 0; q < 50; ++q) {
    const Box<Dim> window = RandomBox<Dim>(rng, 100.0, 30.0);
    std::vector<int64_t> got;
    tree.Query(window, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceQuery<Dim>(entries, window));
  }
}

class RTreeOracleTest : public ::testing::TestWithParam<Param> {};

TEST_P(RTreeOracleTest, MatchesBruteForce2D) { RunOracleTest<2>(GetParam()); }
TEST_P(RTreeOracleTest, MatchesBruteForce3D) { RunOracleTest<3>(GetParam()); }
TEST_P(RTreeOracleTest, MatchesBruteForce4D) { RunOracleTest<4>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeOracleTest,
    ::testing::Combine(
        ::testing::Values(SplitPolicy::kGuttmanQuadratic, SplitPolicy::kRStar),
        ::testing::Values(false, true),
        ::testing::Values(25, 200, 1500),
        ::testing::Values(1, 2)));

TEST(RTreeTest, EmptyTreeBehaves) {
  RTree2 tree;
  EXPECT_EQ(tree.size(), 0);
  EXPECT_EQ(tree.height(), 1);
  std::vector<int64_t> out;
  tree.Query(geometry::MakeBox2(0, 0, 10, 10), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.Bounds().IsEmpty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, SingleEntry) {
  RTree2 tree;
  const auto box = geometry::MakeBox2(1, 1, 2, 2);
  tree.Insert(box, 42);
  std::vector<int64_t> out;
  tree.Query(geometry::MakeBox2(0, 0, 3, 3), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42);
  out.clear();
  tree.Query(geometry::MakeBox2(5, 5, 6, 6), &out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeTest, DuplicateEntriesAllowed) {
  RTree3 tree;
  const auto box = geometry::MakeBox3(0, 0, 0, 1, 1, 1);
  tree.Insert(box, 7);
  tree.Insert(box, 7);
  tree.Insert(box, 8);
  std::vector<int64_t> out;
  tree.Query(box, &out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTree2 tree;  // capacity 20
  common::Rng rng(6);
  for (int i = 0; i < 4000; ++i) {
    tree.Insert(RandomBox<2>(rng, 1000, 5), i);
  }
  // With fanout >= 8 (40% of 20), 4000 entries need at most 4 levels;
  // more than 6 would indicate a broken split.
  EXPECT_GE(tree.height(), 3);
  EXPECT_LE(tree.height(), 6);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, BoundsCoverAllEntries) {
  RTree2 tree;
  common::Rng rng(7);
  geometry::Box2 expected;
  for (int i = 0; i < 500; ++i) {
    const auto box = RandomBox<2>(rng, 100, 10);
    tree.Insert(box, i);
    expected.Extend(box);
  }
  EXPECT_EQ(tree.Bounds(), expected);
}

TEST(RTreeTest, QueryStatsAccumulate) {
  RTree2 tree;
  common::Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    tree.Insert(RandomBox<2>(rng, 100, 5), i);
  }
  tree.ResetStats();
  EXPECT_EQ(tree.stats().query_node_accesses, 0);
  std::vector<int64_t> out;
  tree.Query(geometry::MakeBox2(0, 0, 10, 10), &out);
  const int64_t after_one = tree.stats().query_node_accesses;
  EXPECT_GT(after_one, 0);
  tree.Query(geometry::MakeBox2(0, 0, 10, 10), &out);
  EXPECT_EQ(tree.stats().query_node_accesses, 2 * after_one);
}

TEST(RTreeTest, SmallWindowCostsLessThanFullScanWindow) {
  RTree2 tree;
  common::Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    tree.Insert(RandomBox<2>(rng, 1000, 3), i);
  }
  tree.ResetStats();
  std::vector<int64_t> out;
  tree.Query(geometry::MakeBox2(0, 0, 20, 20), &out);
  const int64_t small_cost = tree.stats().query_node_accesses;
  tree.ResetStats();
  out.clear();
  tree.Query(geometry::MakeBox2(0, 0, 1000, 1000), &out);
  const int64_t full_cost = tree.stats().query_node_accesses;
  EXPECT_LT(small_cost, full_cost / 4);
}

TEST(RTreeTest, RStarBeatsOrMatchesGuttmanOnClusteredData) {
  // The R* split should not be (much) worse than quadratic on clustered
  // data; typically it is clearly better. We assert a generous bound to
  // keep the test robust.
  common::Rng rng(10);
  std::vector<RTree2::Entry> entries;
  for (int cluster = 0; cluster < 30; ++cluster) {
    const double cx = rng.Uniform(0, 1000), cy = rng.Uniform(0, 1000);
    for (int i = 0; i < 60; ++i) {
      const double x = cx + rng.Normal(0, 10), y = cy + rng.Normal(0, 10);
      entries.push_back(
          {geometry::MakeBox2(x, y, x + 2, y + 2),
           static_cast<int64_t>(entries.size())});
    }
  }
  RTreeOptions rstar_options;
  rstar_options.split_policy = SplitPolicy::kRStar;
  RTreeOptions guttman_options;
  guttman_options.split_policy = SplitPolicy::kGuttmanQuadratic;
  guttman_options.forced_reinsert = false;
  RTree2 rstar(rstar_options), guttman(guttman_options);
  for (const auto& e : entries) {
    rstar.Insert(e.box, e.value);
    guttman.Insert(e.box, e.value);
  }
  rstar.ResetStats();
  guttman.ResetStats();
  common::Rng qrng(11);
  for (int q = 0; q < 200; ++q) {
    const auto w = RandomBox<2>(qrng, 1000, 50);
    std::vector<int64_t> out;
    rstar.Query(w, &out);
    out.clear();
    guttman.Query(w, &out);
  }
  EXPECT_LE(rstar.stats().query_node_accesses,
            guttman.stats().query_node_accesses * 1.25);
}

TEST(RTreeTest, CapacityOptionRespected) {
  RTreeOptions options;
  options.node_capacity = 8;
  RTree2 tree(options);
  common::Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    tree.Insert(RandomBox<2>(rng, 100, 5), i);
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());  // checks fanout <= 8
}

TEST(RTreeTest, PointEntriesWork) {
  // Degenerate boxes (points), the naive index's key shape.
  RTree3 tree;
  common::Rng rng(13);
  std::vector<RTree3::Entry> entries;
  for (int i = 0; i < 800; ++i) {
    std::array<double, 3> p = {rng.Uniform(0, 100), rng.Uniform(0, 100),
                               rng.UniformDouble()};
    const auto box = geometry::Box3::FromPoint(p);
    tree.Insert(box, i);
    entries.push_back({box, i});
  }
  common::Rng qrng(14);
  for (int q = 0; q < 50; ++q) {
    const auto w = RandomBox<3>(qrng, 100, 20);
    std::vector<int64_t> got;
    tree.Query(w, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceQuery<3>(entries, w));
  }
}

TEST(RTreeTest, SequentialInsertOrderStillValid) {
  // Monotone (sorted) insertion is a classic R-tree worst case; the tree
  // must stay correct.
  RTree2 tree;
  std::vector<RTree2::Entry> entries;
  for (int i = 0; i < 1000; ++i) {
    const auto box = geometry::MakeBox2(i, i, i + 0.5, i + 0.5);
    tree.Insert(box, i);
    entries.push_back({box, i});
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<int64_t> got;
  tree.Query(geometry::MakeBox2(100.2, 100.2, 200.7, 200.7), &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForceQuery<2>(entries,
                                    geometry::MakeBox2(100.2, 100.2, 200.7,
                                                       200.7)));
}

// --- k-nearest-neighbour queries ------------------------------------------

class KnnTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnTest, MatchesBruteForce) {
  const auto [count, k] = GetParam();
  common::Rng rng(9000 + count + k);
  RTree2 tree;
  std::vector<RTree2::Entry> entries;
  for (int i = 0; i < count; ++i) {
    const auto box = RandomBox<2>(rng, 100, 6);
    tree.Insert(box, i);
    entries.push_back({box, i});
  }
  for (int q = 0; q < 25; ++q) {
    const std::array<double, 2> point = {rng.Uniform(0, 100),
                                         rng.Uniform(0, 100)};
    std::vector<RTree2::Entry> got;
    tree.NearestNeighbors(point, k, &got);
    EXPECT_EQ(static_cast<int>(got.size()), std::min(k, count));
    // Oracle: sort by min distance.
    std::vector<std::pair<double, int64_t>> oracle;
    for (const auto& e : entries) {
      oracle.push_back({RTree2::MinDistanceSquared(e.box, point), e.value});
    }
    std::sort(oracle.begin(), oracle.end());
    // Distances must match position by position (values may differ on
    // ties).
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(RTree2::MinDistanceSquared(got[i].box, point),
                  oracle[i].first, 1e-9)
          << "rank " << i;
    }
    // Results are sorted nearest-first.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(RTree2::MinDistanceSquared(got[i - 1].box, point),
                RTree2::MinDistanceSquared(got[i].box, point) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnTest,
    ::testing::Combine(::testing::Values(10, 100, 2000),
                       ::testing::Values(1, 5, 25)));

TEST(KnnTest, EmptyTreeAndZeroK) {
  RTree2 tree;
  std::vector<RTree2::Entry> out;
  tree.NearestNeighbors({0, 0}, 5, &out);
  EXPECT_TRUE(out.empty());
  tree.Insert(geometry::MakeBox2(0, 0, 1, 1), 1);
  tree.NearestNeighbors({0, 0}, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(KnnTest, PointInsideBoxHasZeroDistance) {
  RTree2 tree;
  tree.Insert(geometry::MakeBox2(0, 0, 10, 10), 7);
  tree.Insert(geometry::MakeBox2(50, 50, 60, 60), 8);
  std::vector<RTree2::Entry> out;
  tree.NearestNeighbors({5, 5}, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 7);
  EXPECT_DOUBLE_EQ(RTree2::MinDistanceSquared(out[0].box, {5, 5}), 0.0);
}

TEST(KnnTest, VisitsFewNodesOnBigTree) {
  common::Rng rng(31);
  std::vector<RTree3::Entry> entries;
  for (int i = 0; i < 50000; ++i) {
    entries.push_back({RandomBox<3>(rng, 1000, 2), i});
  }
  RTree3 tree = RTree3::BulkLoad(entries);
  tree.ResetStats();
  std::vector<RTree3::Entry> out;
  tree.NearestNeighbors({500, 500, 500}, 10, &out);
  EXPECT_EQ(out.size(), 10u);
  // Best-first search should touch a tiny fraction of the ~3000 nodes.
  EXPECT_LT(tree.stats().query_node_accesses, 100);
}

// --- Bulk loading (STR) --------------------------------------------------

class BulkLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(BulkLoadTest, MatchesBruteForceAndInvariants) {
  const int count = GetParam();
  common::Rng rng(1000 + count);
  std::vector<RTree3::Entry> entries;
  for (int i = 0; i < count; ++i) {
    entries.push_back({RandomBox<3>(rng, 100, 8), i});
  }
  RTree3 tree = RTree3::BulkLoad(entries);
  EXPECT_EQ(tree.size(), count);
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  for (int q = 0; q < 30; ++q) {
    const auto window = RandomBox<3>(rng, 100, 25);
    std::vector<int64_t> got;
    tree.Query(window, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceQuery<3>(entries, window));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadTest,
                         ::testing::Values(1, 7, 20, 21, 39, 40, 41, 400,
                                           5000));

TEST(BulkLoadTest, EmptyInput) {
  RTree2 tree = RTree2::BulkLoad({});
  EXPECT_EQ(tree.size(), 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<int64_t> out;
  tree.Query(geometry::MakeBox2(0, 0, 1, 1), &out);
  EXPECT_TRUE(out.empty());
}

TEST(BulkLoadTest, SupportsSubsequentUpdates) {
  common::Rng rng(77);
  std::vector<RTree2::Entry> entries;
  for (int i = 0; i < 300; ++i) {
    entries.push_back({RandomBox<2>(rng, 100, 5), i});
  }
  RTree2 tree = RTree2::BulkLoad(entries);
  // Inserts keep working on a bulk-loaded tree.
  for (int i = 300; i < 400; ++i) {
    const auto box = RandomBox<2>(rng, 100, 5);
    tree.Insert(box, i);
    entries.push_back({box, i});
  }
  ASSERT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  for (int q = 0; q < 30; ++q) {
    const auto window = RandomBox<2>(rng, 100, 20);
    std::vector<int64_t> got;
    tree.Query(window, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceQuery<2>(entries, window));
  }
}

TEST(BulkLoadTest, QueryCostComparableToInsertBuilt) {
  common::Rng rng(78);
  std::vector<RTree2::Entry> entries;
  for (int i = 0; i < 20000; ++i) {
    entries.push_back({RandomBox<2>(rng, 1000, 4), i});
  }
  RTree2 bulk = RTree2::BulkLoad(entries);
  RTree2 incremental;
  for (const auto& e : entries) incremental.Insert(e.box, e.value);
  bulk.ResetStats();
  incremental.ResetStats();
  common::Rng qrng(79);
  for (int q = 0; q < 200; ++q) {
    const auto w = RandomBox<2>(qrng, 1000, 60);
    std::vector<int64_t> out;
    bulk.Query(w, &out);
    out.clear();
    incremental.Query(w, &out);
  }
  // STR packing should not be drastically worse than R* insertion on
  // uniform data (it is usually better).
  EXPECT_LE(bulk.stats().query_node_accesses,
            incremental.stats().query_node_accesses * 1.3);
}

// --- ShardMap -------------------------------------------------------------

CoeffRecord RecordAt(double x, double y) {
  CoeffRecord r;
  r.position = {x, y, 0};
  r.support_bounds = geometry::MakeBox3(x - 1, y - 1, 0, x + 1, y + 1, 5);
  return r;
}

TEST(ShardMapTest, DefaultRoutesEverythingToShardZero) {
  ShardMap map;
  EXPECT_EQ(map.shard_count(), 1);
  EXPECT_EQ(map.Route(RecordAt(0, 0)), 0);
  EXPECT_EQ(map.Route(RecordAt(1e9, -1e9)), 0);
}

TEST(ShardMapTest, GridCoversAllShards) {
  // Every shard id must be reachable: spraying points over the bounds
  // hits each of the K shards at least once, and never an out-of-range id.
  const geometry::Box2 bounds = geometry::MakeBox2(0, 0, 1000, 1000);
  for (int32_t k : {1, 2, 3, 4, 7, 16}) {
    const ShardMap map = ShardMap::Build(bounds, k);
    EXPECT_EQ(map.shard_count(), k);
    EXPECT_GE(map.rows() * map.cols(), k);
    std::vector<bool> seen(k, false);
    common::Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
      const int32_t s =
          map.Route(RecordAt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)));
      ASSERT_GE(s, 0);
      ASSERT_LT(s, k);
      seen[s] = true;
    }
    for (int32_t s = 0; s < k; ++s) {
      EXPECT_TRUE(seen[s]) << "shard " << s << " unreachable at K=" << k;
    }
  }
}

TEST(ShardMapTest, OutOfBoundsPointsClampToEdgeCells) {
  const ShardMap map =
      ShardMap::Build(geometry::MakeBox2(0, 0, 100, 100), 4);
  // Ingested records outside the original bounds still route somewhere
  // valid (the nearest edge cell), never out of range.
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {-50, -50}, {150, 150}, {-50, 150}, {50, 1e6}}) {
    const int32_t s = map.Route(RecordAt(x, y));
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(ShardMapTest, RoutingIsDeterministic) {
  const geometry::Box2 bounds = geometry::MakeBox2(0, 0, 500, 500);
  const ShardMap a = ShardMap::Build(bounds, 9);
  const ShardMap b = ShardMap::Build(bounds, 9);
  common::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const CoeffRecord r =
        RecordAt(rng.Uniform(0, 500), rng.Uniform(0, 500));
    EXPECT_EQ(a.Route(r), b.Route(r));
  }
}

}  // namespace
}  // namespace mars::index
