#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/box.h"
#include "geometry/grid.h"
#include "geometry/rect_diff.h"
#include "geometry/vec.h"

namespace mars::geometry {
namespace {

// --- Vec ---------------------------------------------------------------------

TEST(VecTest, Vec2Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_EQ(a + b, Vec2(4, 1));
  EXPECT_EQ(a - b, Vec2(-2, 3));
  EXPECT_EQ(a * 2.0, Vec2(2, 4));
  EXPECT_EQ(2.0 * a, Vec2(2, 4));
  EXPECT_DOUBLE_EQ(a.Dot(b), 1.0);
  EXPECT_DOUBLE_EQ(Vec2(3, 4).Norm(), 5.0);
}

TEST(VecTest, Vec3CrossProduct) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  EXPECT_EQ(x.Cross(y), Vec3(0, 0, 1));
  EXPECT_EQ(y.Cross(x), Vec3(0, 0, -1));
  // Cross product is orthogonal to both inputs.
  const Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
  const Vec3 c = a.Cross(b);
  EXPECT_NEAR(c.Dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.Dot(b), 0.0, 1e-12);
}

TEST(VecTest, Midpoint) {
  EXPECT_EQ(Midpoint(Vec3(0, 0, 0), Vec3(2, 4, 6)), Vec3(1, 2, 3));
  EXPECT_EQ(Midpoint(Vec2(-1, 1), Vec2(1, 3)), Vec2(0, 2));
}

// --- Box ---------------------------------------------------------------------

TEST(BoxTest, DefaultIsEmpty) {
  Box2 b;
  EXPECT_TRUE(b.IsEmpty());
  EXPECT_DOUBLE_EQ(b.Volume(), 0.0);
  EXPECT_DOUBLE_EQ(b.Margin(), 0.0);
}

TEST(BoxTest, VolumeAndMargin) {
  const Box2 b = MakeBox2(0, 0, 4, 3);
  EXPECT_DOUBLE_EQ(b.Volume(), 12.0);
  EXPECT_DOUBLE_EQ(b.Margin(), 7.0);
  const Box3 c = MakeBox3(0, 0, 0, 2, 3, 4);
  EXPECT_DOUBLE_EQ(c.Volume(), 24.0);
  EXPECT_DOUBLE_EQ(c.Margin(), 9.0);
}

TEST(BoxTest, ContainsPoint) {
  const Box2 b = MakeBox2(0, 0, 1, 1);
  EXPECT_TRUE(b.ContainsPoint({0.5, 0.5}));
  EXPECT_TRUE(b.ContainsPoint({0.0, 1.0}));  // closed boundary
  EXPECT_FALSE(b.ContainsPoint({1.0001, 0.5}));
}

TEST(BoxTest, ContainsBox) {
  const Box2 outer = MakeBox2(0, 0, 10, 10);
  EXPECT_TRUE(outer.Contains(MakeBox2(1, 1, 9, 9)));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(MakeBox2(5, 5, 11, 9)));
  EXPECT_TRUE(outer.Contains(Box2()));  // empty box in everything
  EXPECT_FALSE(Box2().Contains(outer));
}

TEST(BoxTest, IntersectsSymmetricAndBoundaryTouch) {
  const Box2 a = MakeBox2(0, 0, 2, 2);
  const Box2 b = MakeBox2(2, 0, 4, 2);  // shares an edge
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(MakeBox2(2.1, 0, 4, 2)));
  EXPECT_FALSE(a.Intersects(Box2()));
}

TEST(BoxTest, IntersectionAndUnion) {
  const Box2 a = MakeBox2(0, 0, 4, 4);
  const Box2 b = MakeBox2(2, 1, 6, 3);
  const Box2 i = a.Intersection(b);
  EXPECT_EQ(i, MakeBox2(2, 1, 4, 3));
  const Box2 u = a.Union(b);
  EXPECT_EQ(u, MakeBox2(0, 0, 6, 4));
  EXPECT_TRUE(a.Intersection(MakeBox2(5, 5, 6, 6)).IsEmpty());
}

TEST(BoxTest, UnionWithEmptyIsIdentity) {
  const Box2 a = MakeBox2(1, 2, 3, 4);
  EXPECT_EQ(a.Union(Box2()), a);
  EXPECT_EQ(Box2().Union(a), a);
}

TEST(BoxTest, EnlargementAndOverlap) {
  const Box2 a = MakeBox2(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(a.Enlargement(MakeBox2(1, 1, 3, 3)), 5.0);  // 9 - 4
  EXPECT_DOUBLE_EQ(a.Enlargement(MakeBox2(0.5, 0.5, 1, 1)), 0.0);
  EXPECT_DOUBLE_EQ(a.OverlapVolume(MakeBox2(1, 1, 3, 3)), 1.0);
}

TEST(BoxTest, ExtendPointGrowsEmptyBox) {
  Box3 b;
  b.ExtendPoint({1, 2, 3});
  EXPECT_FALSE(b.IsEmpty());
  EXPECT_DOUBLE_EQ(b.Volume(), 0.0);  // degenerate point box
  b.ExtendPoint({0, 4, 3});
  EXPECT_EQ(b, MakeBox3(0, 2, 3, 1, 4, 3));
}

TEST(BoxTest, CenterAndFromCenter) {
  const Box2 b = Box2FromCenter({5, 5}, 4, 2);
  EXPECT_EQ(b, MakeBox2(3, 4, 7, 6));
  const auto c = b.Center();
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
}

TEST(BoxTest, FromPoint) {
  const Box4 p = Box4::FromPoint({1, 2, 3, 0.5});
  EXPECT_FALSE(p.IsEmpty());
  EXPECT_TRUE(p.ContainsPoint({1, 2, 3, 0.5}));
  EXPECT_DOUBLE_EQ(p.Volume(), 0.0);
}

// --- Rectangle difference ---------------------------------------------------

TEST(RectDiffTest, DisjointReturnsOriginal) {
  const Box2 a = MakeBox2(0, 0, 1, 1);
  const Box2 b = MakeBox2(5, 5, 6, 6);
  const auto pieces = Difference(a, b);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], a);
}

TEST(RectDiffTest, FullyCoveredReturnsNothing) {
  const auto pieces =
      Difference(MakeBox2(1, 1, 2, 2), MakeBox2(0, 0, 3, 3));
  EXPECT_TRUE(pieces.empty());
}

TEST(RectDiffTest, HoleInMiddleYieldsFourPieces) {
  const auto pieces =
      Difference(MakeBox2(0, 0, 10, 10), MakeBox2(4, 4, 6, 6));
  EXPECT_EQ(pieces.size(), 4u);
  double area = 0;
  for (const auto& p : pieces) area += p.Volume();
  EXPECT_DOUBLE_EQ(area, 100.0 - 4.0);
}

TEST(RectDiffTest, CornerOverlapMatchesPaperFigure3) {
  // Q_{t-1} = (A,B,C,D), Q_t shifted up-right: the difference is an
  // L-shaped region the paper splits into two rectangles.
  const Box2 q_prev = MakeBox2(0, 0, 10, 10);
  const Box2 q_t = MakeBox2(3, 4, 13, 14);
  const auto pieces = Difference(q_t, q_prev);
  EXPECT_EQ(pieces.size(), 2u);
  double area = 0;
  for (const auto& p : pieces) area += p.Volume();
  // |Q_t| − |overlap| = 100 − 7·6 = 58.
  EXPECT_DOUBLE_EQ(area, 58.0);
}

// Property test: for random box pairs, the difference pieces (i) stay
// inside a, (ii) avoid the interior of b, (iii) have disjoint interiors,
// and (iv) their area equals area(a) − area(a ∩ b).
class RectDiffPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RectDiffPropertyTest, DecompositionIsExact) {
  common::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    auto random_box = [&rng]() {
      const double x0 = rng.Uniform(0, 10), y0 = rng.Uniform(0, 10);
      return MakeBox2(x0, y0, x0 + rng.Uniform(0.1, 8),
                      y0 + rng.Uniform(0.1, 8));
    };
    const Box2 a = random_box();
    const Box2 b = random_box();
    const auto pieces = Difference(a, b);
    EXPECT_LE(pieces.size(), 4u);

    double area = 0.0;
    for (size_t i = 0; i < pieces.size(); ++i) {
      EXPECT_TRUE(a.Contains(pieces[i]));
      area += pieces[i].Volume();
      // Interior-disjoint from b and from each other.
      EXPECT_LE(pieces[i].Intersection(b).Volume(), 1e-9);
      for (size_t j = i + 1; j < pieces.size(); ++j) {
        EXPECT_LE(pieces[i].Intersection(pieces[j]).Volume(), 1e-9);
      }
    }
    EXPECT_NEAR(area, a.Volume() - a.Intersection(b).Volume(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectDiffPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RectDiffTest, WorksIn3D) {
  const auto pieces =
      Difference(MakeBox3(0, 0, 0, 4, 4, 4), MakeBox3(1, 1, 1, 3, 3, 3));
  EXPECT_LE(pieces.size(), 6u);
  double volume = 0;
  for (const auto& p : pieces) volume += p.Volume();
  EXPECT_DOUBLE_EQ(volume, 64.0 - 8.0);
}

TEST(RectDiffTest, WorksIn4D) {
  const Box4 a({0, 0, 0, 0}, {2, 2, 2, 1});
  const Box4 b({1, 1, 1, 0.5}, {3, 3, 3, 1});
  const auto pieces = Difference(a, b);
  EXPECT_LE(pieces.size(), 8u);
  double volume = 0;
  for (const auto& p : pieces) volume += p.Volume();
  // vol(a) − vol(a ∩ b) = 8 − 1·1·1·0.5.
  EXPECT_DOUBLE_EQ(volume, 8.0 - 0.5);
}

// Randomized algebraic laws of the box operations.
class BoxAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(BoxAlgebraTest, LawsHold) {
  common::Rng rng(GetParam() * 71);
  auto random_box = [&rng]() {
    std::array<double, 3> lo, hi;
    for (int d = 0; d < 3; ++d) {
      lo[d] = rng.Uniform(0, 10);
      hi[d] = lo[d] + rng.Uniform(0, 5);
    }
    return Box3(lo, hi);
  };
  for (int iter = 0; iter < 300; ++iter) {
    const Box3 a = random_box(), b = random_box(), c = random_box();
    // Commutativity.
    EXPECT_EQ(a.Union(b), b.Union(a));
    EXPECT_EQ(a.Intersection(b), b.Intersection(a));
    // Union is an upper bound; intersection a lower bound.
    EXPECT_TRUE(a.Union(b).Contains(a));
    EXPECT_TRUE(a.Union(b).Contains(b));
    EXPECT_TRUE(a.Contains(a.Intersection(b)));
    // Idempotence.
    EXPECT_EQ(a.Union(a), a);
    EXPECT_EQ(a.Intersection(a), a);
    // Associativity of union.
    EXPECT_EQ(a.Union(b).Union(c), a.Union(b.Union(c)));
    // Volumes: |a ∪ b| >= max(|a|, |b|); |a ∩ b| <= min(|a|, |b|).
    EXPECT_GE(a.Union(b).Volume(), std::max(a.Volume(), b.Volume()) - 1e-9);
    EXPECT_LE(a.Intersection(b).Volume(),
              std::min(a.Volume(), b.Volume()) + 1e-9);
    // Intersects consistency.
    EXPECT_EQ(a.Intersects(b), !a.Intersection(b).IsEmpty());
    // Enlargement is non-negative and zero iff contained.
    EXPECT_GE(a.Enlargement(b), -1e-12);
    if (a.Contains(b)) {
      EXPECT_NEAR(a.Enlargement(b), 0.0, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxAlgebraTest, ::testing::Values(1, 2, 3));

// --- Grid -------------------------------------------------------------------

TEST(GridTest, BlockIdRoundTrip) {
  const GridPartition grid(MakeBox2(0, 0, 100, 100), 10, 8);
  EXPECT_EQ(grid.block_count(), 80);
  for (int64_t id = 0; id < grid.block_count(); ++id) {
    EXPECT_EQ(grid.BlockId(grid.BlockCoordOf(id)), id);
  }
}

TEST(GridTest, BlockOfPoint) {
  const GridPartition grid(MakeBox2(0, 0, 100, 100), 10, 10);
  EXPECT_EQ(grid.BlockOfPoint({5, 5}), (BlockCoord{0, 0}));
  EXPECT_EQ(grid.BlockOfPoint({95, 15}), (BlockCoord{9, 1}));
  // Outside points clamp to edge blocks.
  EXPECT_EQ(grid.BlockOfPoint({-5, 50}), (BlockCoord{0, 5}));
  EXPECT_EQ(grid.BlockOfPoint({500, 500}), (BlockCoord{9, 9}));
}

TEST(GridTest, BlockBoxTilesTheSpace) {
  const GridPartition grid(MakeBox2(0, 0, 60, 30), 6, 3);
  double total = 0;
  for (int64_t id = 0; id < grid.block_count(); ++id) {
    total += grid.BlockBox(id).Volume();
  }
  EXPECT_DOUBLE_EQ(total, 60.0 * 30.0);
  EXPECT_EQ(grid.BlockBox(BlockCoord{0, 0}), MakeBox2(0, 0, 10, 10));
  EXPECT_EQ(grid.BlockBox(BlockCoord{5, 2}), MakeBox2(50, 20, 60, 30));
}

TEST(GridTest, BlocksIntersectingWindow) {
  const GridPartition grid(MakeBox2(0, 0, 100, 100), 10, 10);
  const auto blocks = grid.BlocksIntersecting(MakeBox2(15, 15, 35, 25));
  // Covers x blocks 1..3, y blocks 1..2 -> 6 blocks.
  EXPECT_EQ(blocks.size(), 6u);
}

TEST(GridTest, WindowOnBlockBoundaryDoesNotSpill) {
  const GridPartition grid(MakeBox2(0, 0, 100, 100), 10, 10);
  const auto blocks = grid.BlocksIntersecting(MakeBox2(10, 10, 20, 20));
  EXPECT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], grid.BlockId(BlockCoord{1, 1}));
}

TEST(GridTest, WindowOutsideSpaceClipped) {
  const GridPartition grid(MakeBox2(0, 0, 100, 100), 10, 10);
  EXPECT_TRUE(grid.BlocksIntersecting(MakeBox2(200, 200, 300, 300)).empty());
  const auto blocks = grid.BlocksIntersecting(MakeBox2(-50, -50, 5, 5));
  EXPECT_EQ(blocks.size(), 1u);
}

// Ids of every block with positive overlap area with `window`, ascending.
// The grid treats boundary-only contact as non-membership (a window ending
// exactly on a block edge does not claim the next block), so the oracle
// requires positive overlap area.
std::vector<int64_t> OverlappingBlocks(const GridPartition& grid,
                                       const Box2& window) {
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < grid.block_count(); ++id) {
    const Box2 overlap = grid.BlockBox(id).Intersection(window);
    if (!overlap.IsEmpty() && overlap.Volume() > 1e-9) ids.push_back(id);
  }
  return ids;
}

// ForEachBlockIntersecting's visits, in order.
std::vector<int64_t> VisitedBlocks(const GridPartition& grid,
                                   const Box2& window) {
  std::vector<int64_t> visited;
  const auto visit = [&visited](int64_t id) { visited.push_back(id); };
  grid.ForEachBlockIntersecting(window, visit);
  return visited;
}

// The visits must be BlocksIntersecting's ids, in its order, and both the
// oracle's ascending ids.
void ExpectVisitsOverlappingBlocks(const GridPartition& grid,
                                   const Box2& window) {
  const std::vector<int64_t> visited = VisitedBlocks(grid, window);
  EXPECT_EQ(visited, grid.BlocksIntersecting(window)) << "window " << window;
  EXPECT_EQ(visited, OverlappingBlocks(grid, window)) << "window " << window;
}

TEST(GridTest, BlocksIntersectingMatchesBruteForce) {
  const GridPartition grid(MakeBox2(-10, 5, 90, 85), 13, 9);
  common::Rng rng(55);
  for (int iter = 0; iter < 300; ++iter) {
    const double x = rng.Uniform(-30, 100), y = rng.Uniform(-10, 100);
    const Box2 window =
        MakeBox2(x, y, x + rng.Uniform(0.5, 60), y + rng.Uniform(0.5, 60));
    ExpectVisitsOverlappingBlocks(grid, window);
  }
}

TEST(GridTest, BlocksIntersectingOnBlockEdgesAndOutside) {
  const GridPartition grid(MakeBox2(0, 0, 100, 100), 10, 10);
  // Windows starting and ending exactly on block edges, or inside blocks.
  for (const double lo : {0.0, 10.0, 25.0, 90.0}) {
    for (const double hi : {10.0, 30.0, 35.0, 100.0}) {
      if (hi <= lo) continue;
      ExpectVisitsOverlappingBlocks(grid, MakeBox2(lo, lo, hi, hi));
      ExpectVisitsOverlappingBlocks(grid, MakeBox2(lo, 0, hi, 100));
    }
  }
  // Windows outside the space, and windows straddling its edge.
  ExpectVisitsOverlappingBlocks(grid, MakeBox2(200, 200, 300, 300));
  ExpectVisitsOverlappingBlocks(grid, MakeBox2(-30, -30, -5, -5));
  ExpectVisitsOverlappingBlocks(grid, MakeBox2(-50, -50, 5, 5));
  ExpectVisitsOverlappingBlocks(grid, MakeBox2(95, 95, 150, 150));
  ExpectVisitsOverlappingBlocks(grid, MakeBox2(-20, 30, 120, 40));
  // A window touching the space only from outside clips to a zero-width
  // strip on its edge, which claims the edge blocks (no positive area, so
  // the oracle does not apply).
  const Box2 touching_right = MakeBox2(100, 0, 150, 100);
  const Box2 touching_left = MakeBox2(-20, 40, 0, 60);
  EXPECT_EQ(VisitedBlocks(grid, touching_right),
            grid.BlocksIntersecting(touching_right));
  EXPECT_EQ(VisitedBlocks(grid, touching_left),
            grid.BlocksIntersecting(touching_left));
}

TEST(GridTest, MembershipConsistency) {
  // Every point maps to a block whose box contains it.
  const GridPartition grid(MakeBox2(-20, 10, 80, 90), 7, 13);
  common::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p{rng.Uniform(-20, 80), rng.Uniform(10, 90)};
    const Box2 box = grid.BlockBox(grid.BlockOfPoint(p));
    EXPECT_TRUE(box.ContainsPoint({p.x, p.y}));
  }
}

}  // namespace
}  // namespace mars::geometry
