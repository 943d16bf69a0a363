#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "workload/scene.h"
#include "workload/tour.h"

namespace mars::workload {
namespace {

// --- Scene -------------------------------------------------------------------

TEST(SceneTest, GeneratesRequestedObjectCount) {
  SceneOptions options;
  options.object_count = 12;
  options.levels = 2;
  options.space = geometry::MakeBox2(0, 0, 2000, 2000);
  auto db = GenerateScene(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->object_count(), 12);
  EXPECT_TRUE(db->finalized());
}

TEST(SceneTest, ObjectsStayInsideSpace) {
  SceneOptions options;
  options.object_count = 30;
  options.levels = 1;
  options.space = geometry::MakeBox2(0, 0, 2000, 2000);
  for (auto placement : {Placement::kUniform, Placement::kZipf}) {
    options.placement = placement;
    auto db = GenerateScene(options);
    ASSERT_TRUE(db.ok());
    for (const auto& bounds : db->object_bounds()) {
      // Displacement noise can push support regions slightly past the
      // footprint; allow a small margin.
      EXPECT_GE(bounds.lo(0), -kDisplacementAmplitude * 2);
      EXPECT_LE(bounds.hi(0),
                2000 + kMaxFootprint + kDisplacementAmplitude * 2);
    }
  }
}

TEST(SceneTest, DeterministicForSeed) {
  SceneOptions options;
  options.object_count = 5;
  options.levels = 2;
  options.seed = 99;
  auto a = GenerateScene(options);
  auto b = GenerateScene(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->records().size(), b->records().size());
  for (size_t i = 0; i < a->records().size(); ++i) {
    EXPECT_EQ(a->records()[i].w, b->records()[i].w);
    EXPECT_EQ(a->records()[i].position, b->records()[i].position);
  }
  EXPECT_EQ(a->total_bytes(), b->total_bytes());
}

TEST(SceneTest, DifferentSeedsDiffer) {
  SceneOptions options;
  options.object_count = 5;
  options.levels = 2;
  options.seed = 1;
  auto a = GenerateScene(options);
  options.seed = 2;
  auto b = GenerateScene(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->records()[0].position, b->records()[0].position);
}

TEST(SceneTest, DatasetSizingMatchesPaperScale) {
  // 100 objects should weigh roughly 20 MB (Sec. VII-A); we accept a broad
  // band since the wire-format constants are a model.
  SceneOptions options = SceneForDatasetSize(20);
  EXPECT_EQ(options.object_count, 100);
  options.object_count = 10;  // keep the test fast; scale the check
  auto db = GenerateScene(options);
  ASSERT_TRUE(db.ok());
  const double mb_per_object =
      static_cast<double>(db->total_bytes()) / db->object_count() /
      (1024.0 * 1024.0);
  EXPECT_GT(mb_per_object, 0.1);
  EXPECT_LT(mb_per_object, 0.4);  // ~0.2 MB per object
}

TEST(SceneTest, ZipfPlacementClusters) {
  // Zipf scenes concentrate objects: the mean nearest-neighbour distance
  // should be clearly below the uniform scene's.
  auto mean_nn = [](const server::ObjectDatabase& db) {
    double total = 0;
    for (int32_t i = 0; i < db.object_count(); ++i) {
      const auto ci = db.object_bounds()[i].Center();
      double best = 1e18;
      for (int32_t j = 0; j < db.object_count(); ++j) {
        if (i == j) continue;
        const auto cj = db.object_bounds()[j].Center();
        best = std::min(best, std::hypot(ci[0] - cj[0], ci[1] - cj[1]));
      }
      total += best;
    }
    return total / db.object_count();
  };
  SceneOptions options;
  options.object_count = 60;
  options.levels = 1;
  options.placement = Placement::kUniform;
  auto uniform = GenerateScene(options);
  options.placement = Placement::kZipf;
  auto zipf = GenerateScene(options);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(zipf.ok());
  EXPECT_LT(mean_nn(*zipf), mean_nn(*uniform));
}

TEST(SceneTest, InvalidOptionsRejected) {
  SceneOptions options;
  options.object_count = 0;
  EXPECT_FALSE(GenerateScene(options).ok());
  options = SceneOptions();
  options.levels = 0;
  EXPECT_FALSE(GenerateScene(options).ok());
}

TEST(SceneTest, LevelsControlCoefficientCount) {
  // Coefficients per object grow 4x per level (21 * 4^j for buildings).
  for (int levels : {1, 2, 3}) {
    SceneOptions options;
    options.object_count = 2;
    options.levels = levels;
    options.seed = 77;
    auto db = GenerateScene(options);
    ASSERT_TRUE(db.ok());
    int64_t expected = 0;
    for (int j = 0; j < levels; ++j) expected += 21LL << (2 * j);
    EXPECT_EQ(db->object(0).coefficient_count(), expected);
  }
}

TEST(SceneTest, RecordsScaleLinearlyWithObjects) {
  SceneOptions options;
  options.levels = 2;
  options.object_count = 4;
  auto small = GenerateScene(options);
  options.object_count = 8;
  auto large = GenerateScene(options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large->records().size(), 2 * small->records().size());
}

TEST(SceneTest, SingleZipfClusterStillWorks) {
  SceneOptions options;
  options.object_count = 10;
  options.levels = 1;
  options.placement = Placement::kZipf;
  options.zipf_clusters = 1;
  auto db = GenerateScene(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->object_count(), 10);
}

// --- Tours ------------------------------------------------------------------

TEST(TourTest, FrameCountRespected) {
  TourOptions options;
  options.frames = 123;
  const auto tour = GenerateTour(options);
  EXPECT_EQ(tour.size(), 123u);
}

TEST(TourTest, PositionsInsideSpace) {
  for (auto kind : {TourKind::kTram, TourKind::kPedestrian}) {
    TourOptions options;
    options.kind = kind;
    options.frames = 2000;
    options.target_speed = 0.9;
    const auto tour = GenerateTour(options);
    for (const TourPoint& p : tour) {
      EXPECT_GE(p.position.x, options.space.lo(0));
      EXPECT_LE(p.position.x, options.space.hi(0));
      EXPECT_GE(p.position.y, options.space.lo(1));
      EXPECT_LE(p.position.y, options.space.hi(1));
      EXPECT_GE(p.speed, 0.001);
      EXPECT_LE(p.speed, 1.0);
    }
  }
}

TEST(TourTest, DeterministicForSeed) {
  TourOptions options;
  options.frames = 200;
  options.seed = 5;
  const auto a = GenerateTour(options);
  const auto b = GenerateTour(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position, b[i].position);
    EXPECT_DOUBLE_EQ(a[i].speed, b[i].speed);
  }
}

TEST(TourTest, DistanceModeCoversRequestedDistance) {
  TourOptions options;
  options.distance = 2000.0;
  options.target_speed = 0.5;
  const auto tour = GenerateTour(options);
  // Step length ≈ 0.5 · 15 m: total within one step of the target.
  EXPECT_GE(TourDistance(tour), 2000.0 - 15.0);
}

TEST(TourTest, SimilarDistanceAcrossSpeeds) {
  // The Fig. 8 setup: same distance at different speeds means fewer
  // frames at higher speeds.
  TourOptions options;
  options.distance = 3000.0;
  options.kind = TourKind::kTram;
  options.target_speed = 0.1;
  const auto slow = GenerateTour(options);
  options.target_speed = 1.0;
  const auto fast = GenerateTour(options);
  EXPECT_NEAR(TourDistance(slow), TourDistance(fast),
              0.1 * TourDistance(slow));
  EXPECT_GT(slow.size(), fast.size() * 5);
}

TEST(TourTest, SpeedVariesAroundTarget) {
  TourOptions options;
  options.kind = TourKind::kPedestrian;
  options.target_speed = 0.5;
  options.frames = 2000;
  const auto tour = GenerateTour(options);
  double sum = 0;
  for (const auto& p : tour) sum += p.speed;
  EXPECT_NEAR(sum / tour.size(), 0.5, 0.1);
}

TEST(TourTest, TramStraighterThanPedestrian) {
  // Quantifies the predictability gap the paper relies on: mean absolute
  // heading change per frame is far lower for trams.
  auto mean_turn = [](TourKind kind) {
    TourOptions options;
    options.kind = kind;
    options.frames = 3000;
    options.target_speed = 0.5;
    options.seed = 31;
    const auto tour = GenerateTour(options);
    double total = 0;
    int count = 0;
    for (size_t i = 2; i < tour.size(); ++i) {
      const auto v1 = tour[i - 1].position - tour[i - 2].position;
      const auto v2 = tour[i].position - tour[i - 1].position;
      if (v1.Norm() < 1e-9 || v2.Norm() < 1e-9) continue;
      const double dot = std::clamp(
          v1.Dot(v2) / (v1.Norm() * v2.Norm()), -1.0, 1.0);
      total += std::acos(dot);
      ++count;
    }
    return total / count;
  };
  EXPECT_LT(mean_turn(TourKind::kTram), 0.5 * mean_turn(TourKind::kPedestrian));
}

TEST(TourTest, TimeStampsAdvanceByFrameInterval) {
  TourOptions options;
  options.frames = 50;
  options.frame_interval = 0.5;
  const auto tour = GenerateTour(options);
  for (size_t i = 1; i < tour.size(); ++i) {
    EXPECT_NEAR(tour[i].time - tour[i - 1].time, 0.5, 1e-12);
  }
}

TEST(TourTest, TramStopsDwell) {
  TourOptions options;
  options.kind = TourKind::kTram;
  options.frames = 2000;
  options.target_speed = 0.6;
  const auto tour = GenerateTour(options);
  int stopped = 0;
  for (const auto& p : tour) {
    if (p.speed <= 0.001) ++stopped;
  }
  EXPECT_GT(stopped, 0);  // scheduled stops exist
}

// ---------------------------------------------------------------------------
// GroupTourGenerator

TEST(GroupTourTest, MemberTourIndependentOfGroupSize) {
  // The determinism contract: member m's tour is a function of
  // (base options, m) only — generating a bigger group must not perturb
  // an existing member's trajectory.
  GroupTourGenerator::Options options;
  options.base.frames = 120;
  options.base.seed = 21;
  options.members = 2;
  const GroupTourGenerator small(options);
  options.members = 6;
  const GroupTourGenerator large(options);
  const auto a = small.Tour(1);
  const auto b = large.Tour(1);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position, b[i].position);
    EXPECT_DOUBLE_EQ(a[i].speed, b[i].speed);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
  }
}

TEST(GroupTourTest, MembersJitterAroundSharedBase) {
  GroupTourGenerator::Options options;
  options.base.kind = TourKind::kTram;
  options.base.frames = 200;
  options.base.seed = 9;
  options.members = 4;
  const GroupTourGenerator group(options);
  const auto& base = group.base();
  ASSERT_EQ(base.size(), 200u);
  for (int32_t m = 0; m < options.members; ++m) {
    const auto tour = group.Tour(m);
    ASSERT_EQ(tour.size(), base.size());
    for (size_t i = 0; i < tour.size(); ++i) {
      // Bounded drift: never further from the shared trajectory than the
      // jitter radius (boundary clamping only pulls positions inward).
      const double dx = tour[i].position.x - base[i].position.x;
      const double dy = tour[i].position.y - base[i].position.y;
      EXPECT_LE(std::hypot(dx, dy), kGroupPositionJitterM + 1e-9);
      // Still a valid tour: inside the space, speeds in range, shared
      // frame clock.
      EXPECT_GE(tour[i].position.x, options.base.space.lo(0));
      EXPECT_LE(tour[i].position.x, options.base.space.hi(0));
      EXPECT_GE(tour[i].position.y, options.base.space.lo(1));
      EXPECT_LE(tour[i].position.y, options.base.space.hi(1));
      EXPECT_GE(tour[i].speed, 0.001);
      EXPECT_LE(tour[i].speed, 1.0);
      EXPECT_DOUBLE_EQ(tour[i].time, base[i].time);
    }
  }
  // Distinct members ride distinct seats: their offsets differ.
  const auto first = group.Tour(0);
  const auto second = group.Tour(1);
  bool differs = false;
  for (size_t i = 0; i < first.size() && !differs; ++i) {
    differs = !(first[i].position == second[i].position);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace mars::workload
