#include <cmath>

#include <gtest/gtest.h>

#include "client/distance_rings.h"
#include "common/rng.h"
#include "geometry/box.h"

namespace mars::client {
namespace {

using geometry::Box2;
using geometry::MakeBox2;
using geometry::Vec2;

TEST(DistanceRingsTest, SingleRingIsPlainQuery) {
  DistanceRingOptions options;
  options.rings = 1;
  const Box2 window = MakeBox2(0, 0, 10, 10);
  const auto plan = PlanDistanceRings(window, {5, 5}, 0.3, options);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].region, window);
  EXPECT_DOUBLE_EQ(plan[0].w_min, 0.3);
}

TEST(DistanceRingsTest, RingsTileTheWindow) {
  DistanceRingOptions options;
  options.rings = 3;
  const Box2 window = MakeBox2(0, 0, 12, 12);
  const auto plan = PlanDistanceRings(window, {6, 6}, 0.2, options);
  // Disjoint interiors covering the full window area.
  double area = 0.0;
  for (size_t i = 0; i < plan.size(); ++i) {
    area += plan[i].region.Volume();
    for (size_t j = i + 1; j < plan.size(); ++j) {
      EXPECT_LE(plan[i].region.Intersection(plan[j].region).Volume(), 1e-9);
    }
    EXPECT_TRUE(window.Contains(plan[i].region));
  }
  EXPECT_NEAR(area, window.Volume(), 1e-9);
}

TEST(DistanceRingsTest, ResolutionCoarsensOutward) {
  DistanceRingOptions options;
  options.rings = 4;
  const Box2 window = MakeBox2(0, 0, 16, 16);
  const Vec2 center{8, 8};
  const auto plan = PlanDistanceRings(window, center, 0.1, options);
  // The sub-query containing the client has the finest band; the corner
  // has the coarsest.
  double center_w = -1, corner_w = -1;
  for (const auto& sq : plan) {
    if (sq.region.ContainsPoint({8, 8})) center_w = sq.w_min;
    if (sq.region.ContainsPoint({0.01, 0.01})) corner_w = sq.w_min;
  }
  ASSERT_GE(center_w, 0.0);
  ASSERT_GE(corner_w, 0.0);
  EXPECT_DOUBLE_EQ(center_w, 0.1);
  EXPECT_GT(corner_w, center_w);
  // Every band is at least the base and at most 1.
  for (const auto& sq : plan) {
    EXPECT_GE(sq.w_min, 0.1);
    EXPECT_LE(sq.w_min, 1.0);
    EXPECT_DOUBLE_EQ(sq.w_max, 1.0);
  }
}

TEST(DistanceRingsTest, OffCenterClientClipsToWindow) {
  // A client at the window edge (e.g. when the window was clipped at the
  // space boundary) still gets a full tiling.
  DistanceRingOptions options;
  options.rings = 3;
  const Box2 window = MakeBox2(0, 0, 10, 10);
  const auto plan = PlanDistanceRings(window, {1, 1}, 0.4, options);
  double area = 0.0;
  for (const auto& sq : plan) {
    EXPECT_TRUE(window.Contains(sq.region));
    area += sq.region.Volume();
  }
  EXPECT_NEAR(area, window.Volume(), 1e-9);
}

TEST(DistanceRingsTest, FullSpeedDegeneratesToBaseMeshEverywhere) {
  DistanceRingOptions options;
  options.rings = 3;
  const auto plan =
      PlanDistanceRings(MakeBox2(0, 0, 10, 10), {5, 5}, 1.0, options);
  for (const auto& sq : plan) {
    EXPECT_DOUBLE_EQ(sq.w_min, 1.0);  // nothing finer than base anywhere
  }
}

TEST(DistanceRingsTest, RandomizedTilingProperty) {
  common::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    DistanceRingOptions options;
    options.rings = static_cast<int32_t>(rng.UniformInt(1, 6));
    const double x0 = rng.Uniform(0, 100), y0 = rng.Uniform(0, 100);
    const Box2 window =
        MakeBox2(x0, y0, x0 + rng.Uniform(1, 50), y0 + rng.Uniform(1, 50));
    const Vec2 pos{rng.Uniform(window.lo(0), window.hi(0)),
                   rng.Uniform(window.lo(1), window.hi(1))};
    const double base = rng.UniformDouble();
    const auto plan = PlanDistanceRings(window, pos, base, options);
    double area = 0.0;
    for (size_t i = 0; i < plan.size(); ++i) {
      area += plan[i].region.Volume();
      for (size_t j = i + 1; j < plan.size(); ++j) {
        EXPECT_LE(plan[i].region.Intersection(plan[j].region).Volume(),
                  1e-9);
      }
    }
    EXPECT_NEAR(area, window.Volume(), 1e-6);
  }
}

}  // namespace
}  // namespace mars::client
