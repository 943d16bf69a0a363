#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/grid.h"
#include "motion/grid_probability.h"
#include "motion/kalman.h"
#include "motion/matrix.h"
#include "motion/predictor.h"
#include "motion/rls.h"
#include "motion/sectors.h"

namespace mars::motion {
namespace {

// --- Matrix -----------------------------------------------------------------

TEST(MatrixTest, IdentityAndMultiply) {
  const Matrix i = Matrix::Identity(3);
  Matrix a(3, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 2) = 3;
  a(2, 0) = -1;
  const Matrix ai = a * i;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
    }
  }
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix a(2, 3), b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  int v = 1;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) a(r, c) = v++;
  v = 7;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 2; ++c) b(r, c) = v++;
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 58);
  EXPECT_DOUBLE_EQ(p(0, 1), 64);
  EXPECT_DOUBLE_EQ(p(1, 0), 139);
  EXPECT_DOUBLE_EQ(p(1, 1), 154);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a(2, 4);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c) a(r, c) = r * 10 + c;
  const Matrix att = a.Transpose().Transpose();
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
}

TEST(MatrixTest, InverseRecoversIdentity) {
  common::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix a(4, 4);
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) a(r, c) = rng.Uniform(-2, 2);
    for (int d = 0; d < 4; ++d) a(d, d) += 3.0;  // keep well-conditioned
    auto inv = a.Inverse();
    ASSERT_TRUE(inv.ok());
    const Matrix prod = a * *inv;
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-9);
      }
    }
  }
}

TEST(MatrixTest, SingularInverseFails) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_FALSE(a.Inverse().ok());
}

TEST(MatrixTest, PowZeroIsIdentity) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(1, 1) = 3;
  const Matrix p0 = a.Pow(0);
  EXPECT_DOUBLE_EQ(p0(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p0(1, 1), 1.0);
  const Matrix p3 = a.Pow(3);
  EXPECT_DOUBLE_EQ(p3(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(p3(1, 1), 27.0);
}

TEST(MatrixTest, ColumnVector) {
  const Matrix v = Matrix::ColumnVector({1, 2, 3});
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.cols(), 1);
  EXPECT_DOUBLE_EQ(v(2, 0), 3.0);
}

// --- RLS --------------------------------------------------------------------

TEST(RlsTest, RecoversPlantedTransition) {
  // y = A x with a known A; RLS must converge to it.
  Matrix a(3, 3);
  a(0, 0) = 0.9;
  a(0, 1) = 0.1;
  a(1, 1) = 1.0;
  a(1, 2) = -0.2;
  a(2, 0) = 0.3;
  a(2, 2) = 0.8;
  RlsEstimator rls(3, /*forgetting=*/1.0);
  common::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Matrix x(3, 1);
    for (int r = 0; r < 3; ++r) x(r, 0) = rng.Uniform(-5, 5);
    rls.Update(x, a * x);
  }
  EXPECT_LT((rls.transition() - a).Norm(), 1e-6);
  EXPECT_EQ(rls.update_count(), 500);
}

TEST(RlsTest, TracksDriftingSystemWithForgetting) {
  Matrix a1 = Matrix::Identity(2) * 0.5;
  Matrix a2 = Matrix::Identity(2) * 1.5;
  RlsEstimator rls(2, /*forgetting=*/0.9);
  common::Rng rng(9);
  auto feed = [&](const Matrix& a, int n) {
    for (int i = 0; i < n; ++i) {
      Matrix x(2, 1);
      x(0, 0) = rng.Uniform(-3, 3);
      x(1, 0) = rng.Uniform(-3, 3);
      rls.Update(x, a * x);
    }
  };
  feed(a1, 200);
  EXPECT_LT((rls.transition() - a1).Norm(), 1e-3);
  feed(a2, 200);
  EXPECT_LT((rls.transition() - a2).Norm(), 1e-3);
}

TEST(RlsTest, IdentityBeforeAnyUpdate) {
  RlsEstimator rls(4);
  EXPECT_LT((rls.transition() - Matrix::Identity(4)).Norm(), 1e-12);
}

// --- MotionPredictor --------------------------------------------------------

TEST(PredictorTest, LinearMotionPredictedExactly) {
  MotionPredictor predictor;
  // Constant velocity (3, -2) per step.
  for (int t = 0; t < 60; ++t) {
    predictor.Observe({3.0 * t, 100.0 - 2.0 * t});
  }
  ASSERT_TRUE(predictor.ready());
  for (int steps = 1; steps <= 5; ++steps) {
    const Prediction p = predictor.Predict(steps);
    EXPECT_NEAR(p.mean.x, 3.0 * (59 + steps), 0.5) << "steps " << steps;
    EXPECT_NEAR(p.mean.y, 100.0 - 2.0 * (59 + steps), 0.5);
  }
}

TEST(PredictorTest, UncertaintyGrowsWithHorizon) {
  MotionPredictor predictor;
  common::Rng rng(11);
  geometry::Vec2 pos{0, 0};
  double heading = 0.3;
  for (int t = 0; t < 200; ++t) {
    heading += rng.Normal(0, 0.2);  // noisy walker
    pos += geometry::Vec2{std::cos(heading), std::sin(heading)} * 5.0;
    predictor.Observe(pos);
  }
  const Prediction p1 = predictor.Predict(1);
  const Prediction p8 = predictor.Predict(8);
  EXPECT_GT(p8.cov_xx + p8.cov_yy, p1.cov_xx + p1.cov_yy);
}

TEST(PredictorTest, FallbackBeforeEnoughHistory) {
  MotionPredictor predictor;
  predictor.Observe({5, 7});
  const Prediction p = predictor.Predict(3);
  EXPECT_DOUBLE_EQ(p.mean.x, 5);
  EXPECT_DOUBLE_EQ(p.mean.y, 7);
  EXPECT_GE(p.cov_xx, 1e5);  // "don't trust me" covariance
}

TEST(PredictorTest, PredictOnEmptyPredictorIsSafe) {
  MotionPredictor predictor;
  const Prediction p = predictor.Predict(1);
  EXPECT_GE(p.cov_xx, 1e5);
}

TEST(PredictorTest, MeanStepDistanceTracksPace) {
  MotionPredictor predictor;
  EXPECT_DOUBLE_EQ(predictor.MeanStepDistance(), 0.0);
  for (int t = 0; t < 50; ++t) {
    predictor.Observe({4.0 * t, 0});
  }
  EXPECT_NEAR(predictor.MeanStepDistance(), 4.0, 1e-9);
  // Pace change is followed (EWMA).
  geometry::Vec2 pos{4.0 * 49, 0};
  for (int t = 0; t < 50; ++t) {
    pos += {10.0, 0};
    predictor.Observe(pos);
  }
  EXPECT_NEAR(predictor.MeanStepDistance(), 10.0, 0.1);
}

TEST(PredictorTest, TramLikePathMorePredictableThanWalk) {
  // The core premise behind the tram-vs-pedestrian gap in the paper's
  // buffer experiments.
  auto mean_error = [](double heading_sigma, uint64_t seed) {
    MotionPredictor predictor;
    common::Rng rng(seed);
    geometry::Vec2 pos{0, 0};
    double heading = 0.0;
    double err = 0.0;
    int count = 0;
    for (int t = 0; t < 300; ++t) {
      if (predictor.ready()) {
        const Prediction p = predictor.Predict(1);
        const geometry::Vec2 next =
            pos + geometry::Vec2{std::cos(heading), std::sin(heading)} * 5.0;
        err += (p.mean - next).Norm();
        ++count;
      }
      heading += rng.Normal(0, heading_sigma);
      pos += geometry::Vec2{std::cos(heading), std::sin(heading)} * 5.0;
      predictor.Observe(pos);
    }
    return err / count;
  };
  EXPECT_LT(mean_error(0.02, 1), mean_error(0.5, 1));
}

// --- Prediction paths -------------------------------------------------------

// 60 positions of a client moving 5 m per step whose heading random-walks
// with `heading_sigma` per step: small for a tram, large for a walker.
std::vector<geometry::Vec2> TourPositions(double heading_sigma, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<geometry::Vec2> positions;
  geometry::Vec2 pos{200, 300};
  double heading = 0.4;
  for (int t = 0; t < 60; ++t) {
    heading += rng.Normal(0, heading_sigma);
    pos += geometry::Vec2{std::cos(heading), std::sin(heading)} * 5.0;
    positions.push_back(pos);
  }
  return positions;
}

void ExpectSamePrediction(const Prediction& got, const Prediction& want) {
  EXPECT_EQ(got.mean.x, want.mean.x);
  EXPECT_EQ(got.mean.y, want.mean.y);
  EXPECT_EQ(got.cov_xx, want.cov_xx);
  EXPECT_EQ(got.cov_xy, want.cov_xy);
  EXPECT_EQ(got.cov_yy, want.cov_yy);
}

// Step i of a 48-step path must be bitwise the last step of an i-step
// path: a path must not depend on its horizon.
void ExpectPathIndependentOfHorizon(const PositionPredictor& predictor) {
  constexpr int32_t kHorizon = 48;
  const std::vector<Prediction> path = predictor.PredictPath(kHorizon);
  ASSERT_EQ(path.size(), static_cast<size_t>(kHorizon));
  for (int32_t i = 1; i <= kHorizon; ++i) {
    SCOPED_TRACE(testing::Message() << "step " << i);
    const std::vector<Prediction> prefix = predictor.PredictPath(i);
    ASSERT_EQ(prefix.size(), static_cast<size_t>(i));
    ExpectSamePrediction(path[i - 1], prefix.back());
    ExpectSamePrediction(path[i - 1], predictor.Predict(i));
  }
}

TEST(PredictPathTest, PathDoesNotDependOnHorizon) {
  for (const double heading_sigma : {0.02, 0.5}) {  // tram-like, walk-like
    SCOPED_TRACE(testing::Message() << "heading sigma " << heading_sigma);
    const std::vector<geometry::Vec2> positions =
        TourPositions(heading_sigma, 71);
    MotionPredictor rls;
    KalmanFilterPredictor kalman;
    {
      SCOPED_TRACE("no observations");
      ExpectPathIndependentOfHorizon(rls);
      ExpectPathIndependentOfHorizon(kalman);
    }
    rls.Observe(positions[0]);
    kalman.Observe(positions[0]);
    ASSERT_FALSE(rls.ready());
    ASSERT_FALSE(kalman.ready());
    {
      SCOPED_TRACE("before ready()");
      ExpectPathIndependentOfHorizon(rls);
      ExpectPathIndependentOfHorizon(kalman);
    }
    for (size_t t = 1; t < positions.size(); ++t) {
      rls.Observe(positions[t]);
      kalman.Observe(positions[t]);
    }
    ASSERT_TRUE(rls.ready());
    ASSERT_TRUE(kalman.ready());
    {
      SCOPED_TRACE("warm");
      ExpectPathIndependentOfHorizon(rls);
      ExpectPathIndependentOfHorizon(kalman);
    }
  }
}

// --- Grid probabilities -----------------------------------------------------

TEST(GridProbabilityTest, SumsToOne) {
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  common::Rng rng(13);
  const BlockProbabilities probs =
      ComputeBlockProbabilities(predictor, grid, GridProbabilityOptions(),
                                rng);
  ASSERT_FALSE(probs.empty());
  double total = 0;
  for (const auto& [block, p] : probs) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GridProbabilityTest, MassConcentratesAhead) {
  // Eastbound client: blocks to the east of the current position should
  // hold most of the mass.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  common::Rng rng(17);
  const BlockProbabilities probs =
      ComputeBlockProbabilities(predictor, grid, GridProbabilityOptions(),
                                rng);
  double east = 0, west = 0;
  const double current_x = 10.0 * 39;
  for (const auto& [block, p] : probs) {
    const auto center = grid.BlockBox(block).Center();
    (center[0] >= current_x ? east : west) += p;
  }
  EXPECT_GT(east, 0.9);
}

TEST(GridProbabilityTest, DeterministicGivenSeed) {
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({5.0 * t, 5.0 * t});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  common::Rng rng_a(21), rng_b(21);
  const auto a = ComputeBlockProbabilities(predictor, grid,
                                           GridProbabilityOptions(), rng_a);
  const auto b = ComputeBlockProbabilities(predictor, grid,
                                           GridProbabilityOptions(), rng_b);
  EXPECT_EQ(a.size(), b.size());
  for (const auto& [block, p] : a) {
    auto it = b.find(block);
    ASSERT_NE(it, b.end());
    EXPECT_DOUBLE_EQ(it->second, p);
  }
}

TEST(GridProbabilityTest, FrameFootprintSpreadsMass) {
  // With query-frame spreading, blocks well ahead of the predicted point
  // (but inside the predicted frame) receive mass.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({2.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);  // 50 m blocks
  GridProbabilityOptions point_options;
  GridProbabilityOptions frame_options;
  frame_options.frame_half_width = 150;
  frame_options.frame_half_height = 150;
  common::Rng rng_a(31), rng_b(31);
  const auto point_probs =
      ComputeBlockProbabilities(predictor, grid, point_options, rng_a);
  const auto frame_probs =
      ComputeBlockProbabilities(predictor, grid, frame_options, rng_b);
  EXPECT_GT(frame_probs.size(), point_probs.size());
  // The block 150 m ahead of the farthest point prediction gets frame
  // mass.
  double frame_max_x = 0, point_max_x = 0;
  for (const auto& [block, p] : frame_probs) {
    frame_max_x = std::max(frame_max_x, grid.BlockBox(block).hi(0));
  }
  for (const auto& [block, p] : point_probs) {
    point_max_x = std::max(point_max_x, grid.BlockBox(block).hi(0));
  }
  EXPECT_GT(frame_max_x, point_max_x);
}

TEST(GridProbabilityTest, OutOfSpaceMassDropped) {
  // A client heading straight at the boundary: probabilities stay
  // normalized using only in-space mass.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({25.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions options;
  options.horizon = 20;  // predictions fly off the east edge
  common::Rng rng(37);
  const auto probs = ComputeBlockProbabilities(predictor, grid, options, rng);
  double total = 0;
  for (const auto& [block, p] : probs) total += p;
  if (!probs.empty()) {
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

// The per-sample loop ComputeBlockProbabilities replaced: one Predict per
// step, BlocksIntersecting per sample, map increments, then normalise. Its
// table, iteration order included, is the reference the dense
// accumulation must rebuild exactly.
BlockProbabilities ReferenceBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options, common::Rng& rng) {
  BlockProbabilities probs;
  double weight = 1.0;
  double total = 0.0;
  for (int32_t step = 1; step <= options.horizon; ++step) {
    const Prediction pred = predictor.Predict(step);
    const double l11 = std::sqrt(std::max(pred.cov_xx, 1e-12));
    const double l21 = pred.cov_xy / l11;
    const double l22 = std::sqrt(std::max(pred.cov_yy - l21 * l21, 1e-12));
    const double sample_weight =
        weight / static_cast<double>(options.samples_per_step);
    for (int32_t s = 0; s < options.samples_per_step; ++s) {
      const double z1 = rng.Normal();
      const double z2 = rng.Normal();
      const geometry::Vec2 p{pred.mean.x + l11 * z1,
                             pred.mean.y + l21 * z1 + l22 * z2};
      if (options.frame_half_width > 0.0 ||
          options.frame_half_height > 0.0) {
        const geometry::Box2 frame = geometry::MakeBox2(
            p.x - options.frame_half_width, p.y - options.frame_half_height,
            p.x + options.frame_half_width,
            p.y + options.frame_half_height);
        for (int64_t block : grid.BlocksIntersecting(frame)) {
          probs[block] += sample_weight;
          total += sample_weight;
        }
      } else {
        if (!grid.space().ContainsPoint({p.x, p.y})) continue;
        const int64_t block = grid.BlockId(grid.BlockOfPoint(p));
        probs[block] += sample_weight;
        total += sample_weight;
      }
    }
    weight *= options.step_discount;
  }
  if (total > 0.0) {
    for (auto& [block, p] : probs) p /= total;
  }
  return probs;
}

// Runs both implementations from equal generators and compares the
// tables entry by entry in iteration order, with exact doubles, and the
// generators' states afterwards.
void ExpectMatchesReference(const PositionPredictor& predictor,
                            const geometry::GridPartition& grid,
                            const GridProbabilityOptions& options,
                            uint64_t seed) {
  common::Rng rng_got(seed), rng_want(seed);
  const BlockProbabilities got =
      ComputeBlockProbabilities(predictor, grid, options, rng_got);
  const BlockProbabilities want =
      ReferenceBlockProbabilities(predictor, grid, options, rng_want);
  ASSERT_EQ(got.size(), want.size());
  auto g = got.begin();
  for (auto w = want.begin(); w != want.end(); ++w, ++g) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(g->second, w->second) << "block " << w->first;
  }
  EXPECT_EQ(rng_got.NextUint64(), rng_want.NextUint64());
}

TEST(GridProbabilityTest, MatchesPerSampleReference) {
  // The client's geometry: 10 km space, 40 × 40 grid, 5% query frame.
  const geometry::GridPartition client_grid(
      geometry::MakeBox2(0, 0, 10000, 10000), 40, 40);
  // The interest tracker's: a 16 × 16 grid.
  const geometry::GridPartition tracker_grid(
      geometry::MakeBox2(0, 0, 10000, 10000), 16, 16);
  GridProbabilityOptions frame;
  frame.horizon = 48;
  frame.step_discount = std::pow(0.5, 1.0 / 48);
  frame.frame_half_width = frame.frame_half_height = 250;
  const GridProbabilityOptions point;  // H = 16, point sampling

  for (const double heading_sigma : {0.02, 0.5}) {  // tram-like, walk-like
    SCOPED_TRACE(testing::Message() << "heading sigma " << heading_sigma);
    // 40 m per step, starting near the middle of the space.
    MotionPredictor rls;
    KalmanFilterPredictor kalman;
    for (const geometry::Vec2& p : TourPositions(heading_sigma, 73)) {
      rls.Observe(p * 8.0 + geometry::Vec2{2000, 2000});
      kalman.Observe(p * 8.0 + geometry::Vec2{2000, 2000});
    }
    ExpectMatchesReference(rls, client_grid, frame, 1);
    ExpectMatchesReference(kalman, client_grid, frame, 2);
    ExpectMatchesReference(rls, tracker_grid, point, 3);
    ExpectMatchesReference(kalman, tracker_grid, point, 4);
  }
}

TEST(GridProbabilityTest, MatchesPerSampleReferenceLeavingTheSpace) {
  // Eastbound at 25 m per step toward the edge of a 1 km space: later
  // samples (and frames) fall partly or wholly outside it.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({25.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions point;
  point.horizon = 20;
  GridProbabilityOptions frame = point;
  frame.frame_half_width = frame.frame_half_height = 75;
  ExpectMatchesReference(predictor, grid, point, 5);
  ExpectMatchesReference(predictor, grid, frame, 6);
  // A predictor with no observations samples around the origin, a corner
  // of the space: about a quarter of its samples land inside.
  const MotionPredictor cold;
  ExpectMatchesReference(cold, grid, point, 7);
  ExpectMatchesReference(cold, grid, frame, 8);
}

// The normals one call consumes, drawn one at a time the way the
// sampling loop once drew them.
std::vector<double> DrawnOneByOne(const GridProbabilityOptions& options,
                                  common::Rng& rng) {
  std::vector<double> normals;
  for (int32_t step = 0; step < options.horizon; ++step) {
    for (int32_t s = 0; s < options.samples_per_step; ++s) {
      normals.push_back(rng.Normal());  // x
      normals.push_back(rng.Normal());  // y
    }
  }
  return normals;
}

void ExpectSameTables(const BlockProbabilities& got,
                      const BlockProbabilities& want) {
  ASSERT_EQ(got.size(), want.size());
  auto g = got.begin();
  for (auto w = want.begin(); w != want.end(); ++w, ++g) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(g->second, w->second) << "block " << w->first;
  }
}

TEST(GridProbabilityTest, SpanAndGeneratorFormsAgree) {
  // The span form fed normals drawn one by one, and the generator form
  // fed an equal generator, give the same table (iteration order and
  // bits) and leave the generators in the same state — including one
  // that holds a cached second Box–Muller value on entry.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({12.0 * t, 400 + 3.0 * t});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions point;
  point.horizon = 12;
  point.samples_per_step = 24;
  GridProbabilityOptions frame = point;
  frame.frame_half_width = 80;
  frame.frame_half_height = 40;
  for (const GridProbabilityOptions& options : {point, frame}) {
    for (const bool odd_start : {false, true}) {
      SCOPED_TRACE(testing::Message() << "frame " << options.frame_half_width
                                      << " odd start " << odd_start);
      common::Rng by_rng(43), by_span(43);
      if (odd_start) {
        by_rng.Normal();
        by_span.Normal();
      }
      const std::vector<double> normals = DrawnOneByOne(options, by_span);
      common::Rng copy = by_rng;
      ASSERT_EQ(DrawSampleNormals(options, copy), normals);
      const BlockProbabilities from_rng =
          ComputeBlockProbabilities(predictor, grid, options, by_rng);
      const BlockProbabilities from_span =
          ComputeBlockProbabilities(predictor, grid, options, normals);
      ExpectSameTables(from_span, from_rng);
      EXPECT_EQ(by_rng.Normal(), by_span.Normal());
      EXPECT_EQ(by_rng.NextUint64(), by_span.NextUint64());
      // Extra normals past the ones a call consumes are ignored.
      std::vector<double> longer = normals;
      longer.push_back(1e9);
      ExpectSameTables(
          ComputeBlockProbabilities(predictor, grid, options, longer),
          from_rng);
    }
  }
}

TEST(GridProbabilityTest, ZeroMassTouchesStayInTheTable) {
  // With no discount carry-over every step after the first samples with
  // zero weight; the blocks those samples touch first are still entries
  // (with mass 0) of the per-sample loop's table, in touch order.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions options;
  options.step_discount = 0.0;
  options.frame_half_width = options.frame_half_height = 60;
  common::Rng rng(9);
  const BlockProbabilities probs =
      ComputeBlockProbabilities(predictor, grid, options, rng);
  const auto zero_mass = [](const auto& entry) { return entry.second == 0.0; };
  EXPECT_TRUE(std::any_of(probs.begin(), probs.end(), zero_mass));
  ExpectMatchesReference(predictor, grid, options, 9);
}

// --- Sectors ----------------------------------------------------------------

TEST(SectorTest, PointSectorsForFourDirections) {
  SectorPartition partition({0, 0}, 4);
  EXPECT_EQ(partition.SectorOfPoint({10, 0}), 0);    // east
  EXPECT_EQ(partition.SectorOfPoint({0, 10}), 1);    // north
  EXPECT_EQ(partition.SectorOfPoint({-10, 0}), 2);   // west
  EXPECT_EQ(partition.SectorOfPoint({0, -10}), 3);   // south
  EXPECT_EQ(partition.SectorOfPoint({10, 1}), 0);
  EXPECT_EQ(partition.SectorOfPoint({1, 10}), 1);
}

TEST(SectorTest, EightDirections) {
  SectorPartition partition({0, 0}, 8);
  EXPECT_EQ(partition.SectorOfPoint({10, 0}), 0);
  EXPECT_EQ(partition.SectorOfPoint({10, 10}), 1);
  EXPECT_EQ(partition.SectorOfPoint({0, 10}), 2);
  EXPECT_EQ(partition.SectorOfPoint({-10, 10}), 3);
  EXPECT_EQ(partition.SectorOfPoint({-10, -10}), 5);
  EXPECT_EQ(partition.SectorOfPoint({0, -10}), 6);
}

TEST(SectorTest, BoundaryBlocksAlternate) {
  // Blocks centered exactly on the 45° partition line between sector 0
  // and 1 (for k = 4) must alternate between the two sectors.
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  SectorPartition partition({0, 0}, 4);
  std::vector<int32_t> sectors;
  for (int d = 1; d <= 6; ++d) {
    // Diagonal blocks (d, d) have centers on the 45° line from the origin.
    sectors.push_back(
        partition.SectorOfBlock(grid, grid.BlockId({d, d})));
  }
  int count0 = 0, count1 = 0;
  for (int32_t s : sectors) {
    EXPECT_TRUE(s == 0 || s == 1);
    (s == 0 ? count0 : count1)++;
  }
  EXPECT_EQ(count0, 3);
  EXPECT_EQ(count1, 3);
  // And they alternate pairwise.
  for (size_t i = 1; i < sectors.size(); ++i) {
    EXPECT_NE(sectors[i], sectors[i - 1]);
  }
}

TEST(SectorTest, AggregateNormalizes) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  SectorPartition partition({50, 50}, 4);
  BlockProbabilities probs;
  probs[grid.BlockId({8, 5})] = 0.6;  // east
  probs[grid.BlockId({5, 8})] = 0.3;  // north
  probs[grid.BlockId({1, 5})] = 0.1;  // west
  const auto dir = partition.Aggregate(grid, probs);
  ASSERT_EQ(dir.p.size(), 4u);
  EXPECT_NEAR(std::accumulate(dir.p.begin(), dir.p.end(), 0.0), 1.0, 1e-12);
  EXPECT_NEAR(dir.p[0], 0.6, 1e-12);
  EXPECT_NEAR(dir.p[1], 0.3, 1e-12);
  EXPECT_NEAR(dir.p[2], 0.1, 1e-12);
  EXPECT_NEAR(dir.p[3], 0.0, 1e-12);
  EXPECT_EQ(dir.block_sector.size(), 3u);
}

TEST(SectorTest, AggregateConservesProbability) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  common::Rng rng(61);
  for (int k : {1, 2, 4, 8}) {
    SectorPartition partition({50, 50}, k);
    BlockProbabilities probs;
    for (int i = 0; i < 30; ++i) {
      probs[rng.UniformInt(0, grid.block_count() - 1)] +=
          rng.UniformDouble();
    }
    const auto dir = partition.Aggregate(grid, probs);
    ASSERT_EQ(static_cast<int>(dir.p.size()), k);
    double total = 0;
    for (double p : dir.p) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(dir.block_sector.size(), probs.size());
    for (const auto& [block, sector] : dir.block_sector) {
      EXPECT_GE(sector, 0);
      EXPECT_LT(sector, k);
    }
  }
}

TEST(SectorTest, SingleSectorTakesEverything) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  SectorPartition partition({50, 50}, 1);
  BlockProbabilities probs;
  probs[3] = 0.7;
  probs[97] = 0.3;
  const auto dir = partition.Aggregate(grid, probs);
  ASSERT_EQ(dir.p.size(), 1u);
  EXPECT_DOUBLE_EQ(dir.p[0], 1.0);
}

TEST(MatrixTest, PowMatchesRepeatedMultiply) {
  common::Rng rng(67);
  Matrix a(3, 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) a(r, c) = rng.Uniform(-0.5, 0.5);
  }
  Matrix expected = Matrix::Identity(3);
  for (int k = 0; k <= 6; ++k) {
    EXPECT_LT((a.Pow(k) - expected).Norm(), 1e-12) << "k=" << k;
    expected = expected * a;
  }
}

TEST(MatrixTest, LeadingRowsOfPowerChainMatchPow) {
  // PredictPath evolves only rows 0–1 of Aⁱ = Aⁱ⁻¹·A and forms the mean
  // Aⁱ·s and the position block of Aⁱ·P·(Aⁱ)ᵀ from them; each must be
  // bitwise what the full Pow(i) gives. Zero entries exercise
  // operator*'s skip of zero terms.
  common::Rng rng(79);
  for (const int dim : {4, 6}) {
    Matrix a = Matrix::Identity(dim);
    Matrix p(dim, dim), s(dim, 1);
    for (int r = 0; r < dim; ++r) {
      s(r, 0) = rng.Uniform(-500, 500);
      for (int c = 0; c < dim; ++c) {
        if (!rng.Bernoulli(0.4)) a(r, c) += rng.Uniform(-0.3, 0.3);
        if (c >= r) p(r, c) = p(c, r) = rng.Uniform(-2, 2);
      }
    }
    Matrix rows(2, dim);
    rows(0, 0) = 1.0;
    rows(1, 1) = 1.0;
    for (int i = 1; i <= 48; ++i) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << ", i " << i);
      rows = rows * a;
      const Matrix full = a.Pow(i);
      const Matrix mean = rows * s;
      const Matrix full_mean = full * s;
      const Matrix block = rows * p * rows.Transpose();
      const Matrix full_block = full * p * full.Transpose();
      for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < dim; ++c) EXPECT_EQ(rows(r, c), full(r, c));
        EXPECT_EQ(mean(r, 0), full_mean(r, 0));
        for (int c = 0; c < 2; ++c) EXPECT_EQ(block(r, c), full_block(r, c));
      }
    }
  }
}

TEST(MatrixTest, OneByOneInverse) {
  Matrix a(1, 1);
  a(0, 0) = 4.0;
  auto inv = a.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_DOUBLE_EQ((*inv)(0, 0), 0.25);
}

TEST(SectorTest, EmptyProbabilitiesYieldUniform) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  SectorPartition partition({50, 50}, 4);
  const auto dir = partition.Aggregate(grid, {});
  for (double p : dir.p) EXPECT_DOUBLE_EQ(p, 0.25);
}

}  // namespace
}  // namespace mars::motion
