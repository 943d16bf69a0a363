#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
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
// (entry count, seed); repeated for dimensions 2, 3 and 4 through the
// typed helper below.
using Param = std::tuple<int, int>;

template <size_t Dim>
void RunOracleTest(const Param& param) {
  const auto [count, seed] = param;
  RTree<Dim> tree;
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

// --- STR order against a frozen comparator sort ---------------------------

// The STR sort BulkLoad ran before it keyed its sorts, frozen: std::sort
// over the items themselves, computing the center of both boxes in every
// comparison.
template <size_t Dim, typename Item, typename GetBox>
void FrozenStrSortRange(std::vector<Item>& items, size_t lo, size_t hi,
                        size_t axis, int32_t capacity, GetBox get_box) {
  std::sort(items.begin() + static_cast<int64_t>(lo),
            items.begin() + static_cast<int64_t>(hi),
            [axis, &get_box](const Item& a, const Item& b) {
              return get_box(a).Center()[axis] < get_box(b).Center()[axis];
            });
  if (axis + 1 == Dim) return;
  const size_t n = hi - lo;
  const size_t cap = static_cast<size_t>(capacity);
  const size_t pages = (n + cap - 1) / cap;
  const double remaining_dims = static_cast<double>(Dim - axis);
  const double root =
      std::ceil(std::pow(static_cast<double>(pages), 1.0 / remaining_dims));
  const size_t slabs = std::max<size_t>(1, static_cast<size_t>(root));
  const size_t per_slab = ((pages + slabs - 1) / slabs) * cap;
  for (size_t s = lo; s < hi; s += per_slab) {
    FrozenStrSortRange<Dim>(items, s, std::min(hi, s + per_slab), axis + 1,
                            capacity, get_box);
  }
}

// A node of the reference tree: entries at a leaf, children above.
template <size_t Dim>
struct RefNode {
  Box<Dim> mbr;
  std::vector<typename RTree<Dim>::Entry> entries;
  std::vector<RefNode> children;
};

// BulkLoad's packing around the frozen sort: STR-sort a level, cut it
// into chunks of `capacity` (the last two rebalanced to the minimum
// fill), bound each chunk, repeat until one node remains.
template <size_t Dim>
RefNode<Dim> FrozenBulkLoad(std::vector<typename RTree<Dim>::Entry> entries,
                            int32_t capacity) {
  const size_t min_fill = static_cast<size_t>(
      std::max<int32_t>(2, static_cast<int32_t>(capacity * 0.4)));
  const auto chunks = [&](size_t n) {
    std::vector<size_t> sizes;
    for (size_t left = n; left > 0;) {
      sizes.push_back(std::min(left, static_cast<size_t>(capacity)));
      left -= sizes.back();
    }
    if (sizes.size() >= 2 && sizes.back() < min_fill) {
      sizes[sizes.size() - 2] -= min_fill - sizes.back();
      sizes.back() = min_fill;
    }
    return sizes;
  };
  FrozenStrSortRange<Dim>(
      entries, 0, entries.size(), 0, capacity,
      [](const typename RTree<Dim>::Entry& e) -> const Box<Dim>& {
        return e.box;
      });
  std::vector<RefNode<Dim>> level;
  size_t pos = 0;
  for (const size_t count : chunks(entries.size())) {
    RefNode<Dim> leaf;
    leaf.entries.assign(entries.begin() + static_cast<int64_t>(pos),
                        entries.begin() + static_cast<int64_t>(pos + count));
    for (const auto& e : leaf.entries) leaf.mbr.Extend(e.box);
    level.push_back(std::move(leaf));
    pos += count;
  }
  while (level.size() > 1) {
    FrozenStrSortRange<Dim>(
        level, 0, level.size(), 0, capacity,
        [](const RefNode<Dim>& n) -> const Box<Dim>& { return n.mbr; });
    std::vector<RefNode<Dim>> up;
    pos = 0;
    for (const size_t count : chunks(level.size())) {
      RefNode<Dim> node;
      for (size_t i = pos; i < pos + count; ++i) {
        node.mbr.Extend(level[i].mbr);
        node.children.push_back(std::move(level[i]));
      }
      up.push_back(std::move(node));
      pos += count;
    }
    level = std::move(up);
  }
  return std::move(level.front());
}

// RTree::Query's traversal over the reference tree.
template <size_t Dim>
void RefQuery(const RefNode<Dim>& node, const Box<Dim>& window,
              std::vector<int64_t>* out, int64_t* accesses) {
  ++*accesses;
  for (const auto& e : node.entries) {
    if (e.box.Intersects(window)) out->push_back(e.value);
  }
  for (const RefNode<Dim>& child : node.children) {
    if (child.mbr.Intersects(window)) RefQuery(child, window, out, accesses);
  }
}

template <size_t Dim>
int32_t RefHeight(const RefNode<Dim>& node) {
  return node.children.empty() ? 1 : 1 + RefHeight(node.children.front());
}

// Entries on a coarse lattice, so centers tie often on every axis; and a
// third of them are copies of three boxes, so whole leaves share one MBR
// and centers tie among nodes too. Values are unique, so any change in
// the order of tied items shows in a query's output order.
template <size_t Dim>
std::vector<typename RTree<Dim>::Entry> TiedEntries(int count,
                                                    uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Box<Dim>> copies;
  for (int k = 0; k < 3; ++k) copies.push_back(RandomBox<Dim>(rng, 50, 4));
  std::vector<typename RTree<Dim>::Entry> entries;
  for (int i = 0; i < count; ++i) {
    if (rng.Bernoulli(1.0 / 3.0)) {
      entries.push_back({copies[rng.UniformInt(0, 2)], i});
      continue;
    }
    std::array<double, Dim> lo, hi;
    for (size_t d = 0; d < Dim; ++d) {
      const double center = 5.0 * static_cast<double>(rng.UniformInt(0, 9));
      const double half = static_cast<double>(rng.UniformInt(0, 3));
      lo[d] = center - half;
      hi[d] = center + half;
    }
    entries.push_back({Box<Dim>(lo, hi), i});
  }
  return entries;
}

// Share of entries whose center on axis 0 equals another entry's.
template <size_t Dim>
double TiedShare(const std::vector<typename RTree<Dim>::Entry>& entries) {
  std::vector<double> centers;
  for (const auto& e : entries) centers.push_back(e.box.Center()[0]);
  std::sort(centers.begin(), centers.end());
  size_t tied = 0;
  for (size_t i = 0; i < centers.size(); ++i) {
    if ((i > 0 && centers[i] == centers[i - 1]) ||
        (i + 1 < centers.size() && centers[i] == centers[i + 1])) {
      ++tied;
    }
  }
  return static_cast<double>(tied) / static_cast<double>(centers.size());
}

template <size_t Dim>
void ExpectSameTreeAsFrozenSort(int count, int32_t capacity, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "dim " << Dim << " count " << count
                                  << " capacity " << capacity);
  const auto entries = TiedEntries<Dim>(count, seed);
  if (count >= 100) {
    EXPECT_GE(TiedShare<Dim>(entries), 0.3);
  }
  RTreeOptions options;
  options.node_capacity = capacity;
  const RTree<Dim> tree = RTree<Dim>::BulkLoad(entries, options);
  const RefNode<Dim> ref = FrozenBulkLoad<Dim>(entries, capacity);
  ASSERT_EQ(tree.height(), RefHeight(ref));
  EXPECT_EQ(tree.Bounds().lo(0), ref.mbr.lo(0));
  EXPECT_EQ(tree.Bounds().hi(Dim - 1), ref.mbr.hi(Dim - 1));
  // The whole tree in traversal order: the leaf order of every entry.
  std::array<double, Dim> lo, hi;
  lo.fill(-std::numeric_limits<double>::max());
  hi.fill(std::numeric_limits<double>::max());
  std::vector<Box<Dim>> windows = {Box<Dim>(lo, hi)};
  common::Rng rng(seed + 1);
  for (int q = 0; q < 60; ++q) windows.push_back(RandomBox<Dim>(rng, 50, 15));
  for (const Box<Dim>& window : windows) {
    std::vector<int64_t> got, want;
    const int64_t got_accesses = tree.Query(window, &got);
    int64_t want_accesses = 0;
    RefQuery(ref, window, &want, &want_accesses);
    ASSERT_EQ(got, want);
    ASSERT_EQ(got_accesses, want_accesses);
  }
}

TEST(BulkLoadTest, KeyedSortBuildsTheFrozenSortsTree) {
  for (const int32_t capacity : {4, 20}) {
    for (const int count : {1, 5, 57, 400, 3000}) {
      const uint64_t seed = 500 + static_cast<uint64_t>(count) + capacity;
      ExpectSameTreeAsFrozenSort<2>(count, capacity, seed);
      ExpectSameTreeAsFrozenSort<3>(count, capacity, seed);
      ExpectSameTreeAsFrozenSort<4>(count, capacity, seed);
    }
  }
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
  // Points outside the bounds route to the nearest edge cell, never out
  // of range; the same clamp catches a center exactly on the high edge.
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
