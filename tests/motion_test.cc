#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>
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

// A predictor whose path is given: step i is steps[min(i, size − 1)].
class FixedPath : public PositionPredictor {
 public:
  explicit FixedPath(std::vector<Prediction> steps)
      : steps_(std::move(steps)) {}
  void Observe(const geometry::Vec2&) override {}
  std::vector<Prediction> PredictPath(int32_t horizon) const override {
    std::vector<Prediction> path(static_cast<size_t>(horizon));
    for (size_t i = 0; i < path.size(); ++i) {
      path[i] = steps_[std::min(i, steps_.size() - 1)];
    }
    return path;
  }
  double MeanStepDistance() const override { return 0.0; }

 private:
  std::vector<Prediction> steps_;
};

Prediction Gaussian(double mx, double my, double sx, double sy, double rho) {
  Prediction p;
  p.mean = {mx, my};
  p.cov_xx = sx * sx;
  p.cov_yy = sy * sy;
  p.cov_xy = rho * sx * sy;
  return p;
}

// The field as one probability per block id.
std::vector<double> Dense(const BlockProbabilities& probs,
                          const geometry::GridPartition& grid) {
  std::vector<double> dense(static_cast<size_t>(grid.block_count()), 0.0);
  for (const auto& [block, p] : probs) dense[static_cast<size_t>(block)] = p;
  return dense;
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

TEST(GridProbabilityTest, SumsToOne) {
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  const BlockProbabilities probs =
      ComputeBlockProbabilities(predictor, grid, GridProbabilityOptions());
  ASSERT_FALSE(probs.empty());
  double total = 0;
  for (size_t i = 0; i < probs.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(probs[i - 1].first, probs[i].first);
    }
    EXPECT_GT(probs[i].second, 0.0);
    total += probs[i].second;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(GridProbabilityTest, MassConcentratesAhead) {
  // Eastbound client: blocks to the east of the current position should
  // hold most of the mass.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  const BlockProbabilities probs =
      ComputeBlockProbabilities(predictor, grid, GridProbabilityOptions());
  double east = 0, west = 0;
  const double current_x = 10.0 * 39;
  for (const auto& [block, p] : probs) {
    const auto center = grid.BlockBox(block).Center();
    (center[0] >= current_x ? east : west) += p;
  }
  EXPECT_GT(east, 0.9);
}

TEST(GridProbabilityTest, Deterministic) {
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({5.0 * t, 5.0 * t});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  const auto a =
      ComputeBlockProbabilities(predictor, grid, GridProbabilityOptions());
  const auto b =
      ComputeBlockProbabilities(predictor, grid, GridProbabilityOptions());
  EXPECT_EQ(a, b);
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
  const auto point_probs =
      ComputeBlockProbabilities(predictor, grid, point_options);
  const auto frame_probs =
      ComputeBlockProbabilities(predictor, grid, frame_options);
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
  const auto probs = ComputeBlockProbabilities(predictor, grid, options);
  double total = 0;
  for (const auto& [block, p] : probs) total += p;
  if (!probs.empty()) {
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

// The Monte-Carlo estimator the exact field replaced, kept as its oracle:
// per step, `samples` draws from the step's Gaussian (2 × 2 Cholesky
// factor), each adding the step's weight over `samples` to the block it
// lands in (point mode, in-space draws only) or to every block its query
// frame meets; then normalized. One probability per block id.
std::vector<double> MonteCarloBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options, int64_t samples,
    common::Rng& rng) {
  std::vector<double> mass(static_cast<size_t>(grid.block_count()), 0.0);
  double weight = 1.0;
  double total = 0.0;
  for (const Prediction& pred : predictor.PredictPath(options.horizon)) {
    const double l11 = std::sqrt(std::max(pred.cov_xx, 1e-12));
    const double l21 = pred.cov_xy / l11;
    const double l22 = std::sqrt(std::max(pred.cov_yy - l21 * l21, 1e-12));
    const double sample_weight = weight / static_cast<double>(samples);
    const auto add = [&](int64_t block) {
      mass[static_cast<size_t>(block)] += sample_weight;
      total += sample_weight;
    };
    for (int64_t s = 0; s < samples; ++s) {
      const double z1 = rng.Normal();
      const double z2 = rng.Normal();
      const geometry::Vec2 p{pred.mean.x + l11 * z1,
                             pred.mean.y + l21 * z1 + l22 * z2};
      if (options.frame_half_width > 0.0 ||
          options.frame_half_height > 0.0) {
        grid.ForEachBlockIntersecting(
            geometry::MakeBox2(p.x - options.frame_half_width,
                               p.y - options.frame_half_height,
                               p.x + options.frame_half_width,
                               p.y + options.frame_half_height),
            add);
      } else if (grid.space().ContainsPoint({p.x, p.y})) {
        add(grid.BlockId(grid.BlockOfPoint(p)));
      }
    }
    weight *= options.step_discount;
  }
  if (total > 0.0) {
    for (double& m : mass) m /= total;
  }
  return mass;
}

// L1 distance between the exact field and the oracle's at `samples` per
// step (seeded, so a fixed number).
double DistanceToMonteCarlo(const PositionPredictor& predictor,
                            const geometry::GridPartition& grid,
                            const GridProbabilityOptions& options,
                            int64_t samples, uint64_t seed) {
  common::Rng rng(seed);
  return L1(Dense(ComputeBlockProbabilities(predictor, grid, options), grid),
            MonteCarloBlockProbabilities(predictor, grid, options, samples,
                                         rng));
}

TEST(GridProbabilityTest, MonteCarloConvergesToTheExactField) {
  // The client's geometry (10 km space, 40 × 40 grid, 5% frame) and a
  // three-step path of correlated Gaussians, σ = (800, 500) m, ρ = 0.6.
  // Sixteen times the samples should cut the oracle's L1 distance about
  // four-fold (1/√n), down to the 4σ cut's share.
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 10000, 10000),
                                     40, 40);
  GridProbabilityOptions options;
  options.horizon = 3;
  options.frame_half_width = options.frame_half_height = 250;
  const FixedPath path({Gaussian(4000, 5000, 800, 500, 0.6),
                        Gaussian(4300, 5200, 850, 550, 0.6),
                        Gaussian(4600, 5400, 900, 600, 0.6)});
  std::vector<double> distance;
  for (const int64_t samples : {64, 1024, 16384, 262144}) {
    distance.push_back(DistanceToMonteCarlo(path, grid, options, samples, 3));
  }
  for (size_t i = 1; i < distance.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "L1 " << distance[i - 1] << " then "
                                    << distance[i]);
    EXPECT_GT(distance[i - 1] / distance[i], 2.5);
    EXPECT_LT(distance[i - 1] / distance[i], 7.0);
  }
  EXPECT_LT(distance.back(), 0.005);
}

// The oracle converges to the exact field: sixteen times the samples per
// step (4,096 → 65,536) cut its L1 distance by at least 2.5 (4 is
// 1/√n's), unless it is already down at the 4σ cut's share.
void ExpectMonteCarloConverges(const PositionPredictor& predictor,
                               const geometry::GridPartition& grid,
                               const GridProbabilityOptions& options,
                               uint64_t seed) {
  const double coarse =
      DistanceToMonteCarlo(predictor, grid, options, 4096, seed);
  const double fine =
      DistanceToMonteCarlo(predictor, grid, options, 65536, seed);
  EXPECT_LT(fine, std::max(coarse / 2.5, 0.004))
      << "L1 " << coarse << " then " << fine;
}

TEST(GridProbabilityTest, MatchesMonteCarloOnTours) {
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
  const GridProbabilityOptions point;  // H = 16, point mode

  for (const double heading_sigma : {0.02, 0.5}) {  // tram-like, walk-like
    SCOPED_TRACE(testing::Message() << "heading sigma " << heading_sigma);
    // 40 m per step, starting near the middle of the space.
    MotionPredictor rls;
    KalmanFilterPredictor kalman;
    for (const geometry::Vec2& p : TourPositions(heading_sigma, 73)) {
      rls.Observe(p * 8.0 + geometry::Vec2{2000, 2000});
      kalman.Observe(p * 8.0 + geometry::Vec2{2000, 2000});
    }
    ExpectMonteCarloConverges(rls, client_grid, frame, 1);
    ExpectMonteCarloConverges(kalman, client_grid, frame, 2);
    ExpectMonteCarloConverges(rls, tracker_grid, point, 3);
    ExpectMonteCarloConverges(kalman, tracker_grid, point, 4);
  }
}

TEST(GridProbabilityTest, MatchesMonteCarloForStrongCorrelation) {
  // ρ = −0.95 and 0.99 ridges, point and frame mode; with the sign of ρ
  // flipped the fields would be mirror images, far apart in L1.
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions point;
  point.horizon = 2;
  GridProbabilityOptions frame = point;
  frame.frame_half_width = 60;
  frame.frame_half_height = 35;
  for (const double rho : {-0.95, 0.99}) {
    SCOPED_TRACE(testing::Message() << "rho " << rho);
    const FixedPath path({Gaussian(480, 520, 200, 150, rho),
                          Gaussian(560, 470, 260, 190, rho)});
    const FixedPath mirrored({Gaussian(480, 520, 200, 150, -rho),
                              Gaussian(560, 470, 260, 190, -rho)});
    for (const GridProbabilityOptions& options : {point, frame}) {
      ExpectMonteCarloConverges(path, grid, options, 5);
      const auto exact = Dense(ComputeBlockProbabilities(path, grid, options),
                               grid);
      const auto mirror = Dense(
          ComputeBlockProbabilities(mirrored, grid, options), grid);
      EXPECT_GT(L1(exact, mirror), 0.5);
    }
  }
}

TEST(GridProbabilityTest, MatchesMonteCarloLeavingTheSpace) {
  // Eastbound at 25 m per step toward the edge of a 1 km space: later
  // steps (and frames) fall partly or wholly outside it.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({25.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions point;
  point.horizon = 20;
  GridProbabilityOptions frame = point;
  frame.frame_half_width = frame.frame_half_height = 75;
  ExpectMonteCarloConverges(predictor, grid, point, 5);
  ExpectMonteCarloConverges(predictor, grid, frame, 6);
  // A predictor with no observations predicts its 1 km prior around the
  // origin, a corner of the space: about a quarter of its mass is inside.
  const MotionPredictor cold;
  ExpectMonteCarloConverges(cold, grid, point, 7);
  ExpectMonteCarloConverges(cold, grid, frame, 8);
}

// P(U < h, V < k) by quadrature: ∫ φ(u) Φ((k − ρu)/s) du over u < h,
// composite Simpson on [−12, h] with steps far below the integrand's
// narrowest feature (s / |ρ| >= 0.04 here).
double BivariateByQuadrature(double h, double k, double rho) {
  const double s = std::sqrt((1 - rho) * (1 + rho));
  const auto f = [&](double u) {
    const double phi = std::exp(-u * u / 2) / std::sqrt(2 * M_PI);
    return phi * 0.5 * std::erfc(-((k - rho * u) / s) / std::sqrt(2.0));
  };
  const double a = -12.0;
  const int n = 200000;  // even
  const double step = (h - a) / n;
  double sum = f(a) + f(h);
  for (int i = 1; i < n; ++i) sum += f(a + i * step) * (i % 2 == 1 ? 4 : 2);
  return sum * step / 3;
}

TEST(GridProbabilityTest, BivariateNormalCdfMatchesQuadrature) {
  for (const double rho :
       {-0.999, -0.95, -0.6, -0.2, 0.0, 0.3, 0.8, 0.93, 0.99, 0.999}) {
    for (const double h : {-3.0, -1.0, -0.2, 0.0, 0.5, 2.0}) {
      for (const double k : {-2.5, -0.7, 0.0, 0.4, 1.5}) {
        EXPECT_NEAR(BivariateNormalCdf(h, k, rho),
                    BivariateByQuadrature(h, k, rho), 1e-10)
            << "h " << h << " k " << k << " rho " << rho;
      }
    }
  }
  // The limits: perfectly correlated and anti-correlated.
  const auto phi = [](double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
  };
  EXPECT_NEAR(BivariateNormalCdf(0.3, -0.4, 1.0), phi(-0.4), 1e-15);
  EXPECT_NEAR(BivariateNormalCdf(0.3, 0.4, -1.0), phi(0.3) + phi(0.4) - 1,
              1e-15);
  EXPECT_EQ(BivariateNormalCdf(-0.3, -0.4, -1.0), 0.0);
}

TEST(GridProbabilityTest, ZeroWeightStepsAddNothing) {
  // With no discount carry-over every step after the first weighs 0: the
  // field is the first step's alone.
  MotionPredictor predictor;
  for (int t = 0; t < 40; ++t) predictor.Observe({10.0 * t, 500});
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  GridProbabilityOptions options;
  options.step_discount = 0.0;
  options.frame_half_width = options.frame_half_height = 60;
  GridProbabilityOptions first = options;
  first.horizon = 1;
  EXPECT_EQ(ComputeBlockProbabilities(predictor, grid, options),
            ComputeBlockProbabilities(predictor, grid, first));
}

TEST(GridProbabilityTest, DivergedAndNonFiniteStepsAddNothing) {
  // A diverged step (mean 1e80 m, covariance 1e160 m²), a step whose
  // mean is not finite, one whose covariance is not finite and one far
  // off the space leave the field as the other steps make it.
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 1000, 1000),
                                     20, 20);
  const Prediction a = Gaussian(400, 500, 60, 40, 0.3);
  const Prediction b = Gaussian(450, 520, 80, 50, 0.0);
  Prediction diverged;
  diverged.mean = {1e80, 1e80};
  diverged.cov_xx = diverged.cov_yy = 1e160;
  diverged.cov_xy = 0.5e160;
  Prediction nan_mean = a;
  nan_mean.mean.x = std::nan("");
  Prediction inf_cov = a;
  inf_cov.cov_yy = std::numeric_limits<double>::infinity();
  const Prediction far = Gaussian(1e6, 500, 10, 10, 0.0);
  GridProbabilityOptions options;
  options.step_discount = 1.0;  // every step weighs 1
  for (const bool frame : {false, true}) {
    SCOPED_TRACE(testing::Message() << "frame " << frame);
    options.frame_half_width = options.frame_half_height = frame ? 70 : 0;
    options.horizon = 2;
    const auto want = ComputeBlockProbabilities(FixedPath({a, b}), grid,
                                                options);
    ASSERT_FALSE(want.empty());
    options.horizon = 6;
    EXPECT_EQ(ComputeBlockProbabilities(
                  FixedPath({a, diverged, nan_mean, inf_cov, far, b}), grid,
                  options),
              want);
    for (const Prediction& step : {diverged, nan_mean, inf_cov, far}) {
      EXPECT_TRUE(
          ComputeBlockProbabilities(FixedPath({step}), grid, options).empty());
    }
  }
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

// SectorOfBlock's 4 × 4 vote with its per-boundary alternation, without
// the four-corner shortcut: the reference the shortcut must agree with.
class SixteenPointVote {
 public:
  SixteenPointVote(const geometry::Vec2& center, int32_t k)
      : center_(center), k_(k), toggle_(k, false) {}

  int32_t SectorOfBlock(const geometry::GridPartition& grid, int64_t block) {
    const geometry::Box2 box = grid.BlockBox(block);
    const double span = 2 * M_PI / k_;
    std::vector<int32_t> votes(k_, 0);
    int32_t counted = 0;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        const double dx = box.lo(0) + box.Extent(0) * (i + 0.5) / 4 -
                          center_.x;
        const double dy = box.lo(1) + box.Extent(1) * (j + 0.5) / 4 -
                          center_.y;
        int32_t sector = 0;
        if (dx != 0.0 || dy != 0.0) {
          double shifted = std::atan2(dy, dx) + M_PI / k_;
          if (shifted < 0) shifted += 2 * M_PI;
          const double frac = std::fmod(shifted, span) / span;
          if (frac < 1e-9 || frac > 1.0 - 1e-9) continue;
          sector = static_cast<int32_t>(shifted / span) % k_;
        }
        ++votes[sector];
        ++counted;
      }
    }
    if (counted == 0) {
      return SectorPartition(center_, k_).SectorOfPoint(
          {box.lo(0) + box.Extent(0) / 2, box.lo(1) + box.Extent(1) / 2});
    }
    int32_t best = 0;
    for (int32_t s = 1; s < k_; ++s) {
      if (votes[s] > votes[best]) best = s;
    }
    for (int32_t s = 0; s < k_; ++s) {
      if (s == best || votes[s] != votes[best]) continue;
      const int32_t lo = std::min(s, best);
      const int32_t hi = std::max(s, best);
      int32_t boundary;
      if (hi == lo + 1) {
        boundary = lo;
      } else if (lo == 0 && hi == k_ - 1) {
        boundary = k_ - 1;
      } else {
        continue;
      }
      const bool flip = toggle_[boundary];
      toggle_[boundary] = !flip;
      return flip ? s : best;
    }
    return best;
  }

 private:
  geometry::Vec2 center_;
  int32_t k_;
  std::vector<bool> toggle_;
};

TEST(SectorTest, SectorOfBlockMatchesTheSixteenPointVote) {
  // Every block of a grid, in ascending id, for seeded random centres and
  // centres on block corners and edges (where lines run along block
  // sides and through corners), k = 1..8.
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  common::Rng rng(71);
  std::vector<geometry::Vec2> centers = {{0, 0}, {50, 50}, {55, 50},
                                         {50, 55}, {100, 100}, {-30, 40}};
  for (int i = 0; i < 40; ++i) {
    centers.push_back({rng.Uniform(-20, 120), rng.Uniform(-20, 120)});
  }
  for (const geometry::Vec2& center : centers) {
    for (int32_t k = 1; k <= 8; ++k) {
      SCOPED_TRACE(testing::Message() << "center " << center.x << ", "
                                      << center.y << " k " << k);
      SectorPartition partition(center, k);
      SixteenPointVote vote(center, k);
      for (int64_t block = 0; block < grid.block_count(); ++block) {
        ASSERT_EQ(partition.SectorOfBlock(grid, block),
                  vote.SectorOfBlock(grid, block))
            << "block " << block;
      }
    }
  }
  // The paper's example: blocks on the 45° line alternate, (5,5) to one
  // direction and (6,6) to the other, shortcut or not.
  SectorPartition partition({0, 0}, 4);
  SixteenPointVote vote({0, 0}, 4);
  for (int d = 0; d < 10; ++d) {
    const int64_t block = grid.BlockId({d, d});
    EXPECT_EQ(partition.SectorOfBlock(grid, block),
              vote.SectorOfBlock(grid, block));
  }
}

TEST(SectorTest, AggregateAssignsTiesInAscendingBlockId) {
  // Diagonal blocks tie between sectors 0 and 1; Aggregate walks the
  // field in its (ascending id) order, so they alternate outward from
  // the client whatever order the blocks were computed in.
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  BlockProbabilities probs;
  for (int d = 1; d <= 6; ++d) probs.emplace_back(grid.BlockId({d, d}), 0.1);
  SectorPartition partition({0, 0}, 4);
  const auto dir = partition.Aggregate(grid, probs);
  ASSERT_EQ(dir.sector.size(), probs.size());
  for (size_t i = 1; i < dir.sector.size(); ++i) {
    EXPECT_NE(dir.sector[i], dir.sector[i - 1]);
  }
  EXPECT_NEAR(dir.p[0], 0.5, 1e-12);
  EXPECT_NEAR(dir.p[1], 0.5, 1e-12);
}

TEST(SectorTest, AggregateNormalizes) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  SectorPartition partition({50, 50}, 4);
  const BlockProbabilities probs = {{grid.BlockId({1, 5}), 0.1},   // west
                                    {grid.BlockId({8, 5}), 0.6},   // east
                                    {grid.BlockId({5, 8}), 0.3}};  // north
  const auto dir = partition.Aggregate(grid, probs);
  ASSERT_EQ(dir.p.size(), 4u);
  EXPECT_NEAR(std::accumulate(dir.p.begin(), dir.p.end(), 0.0), 1.0, 1e-12);
  EXPECT_NEAR(dir.p[0], 0.6, 1e-12);
  EXPECT_NEAR(dir.p[1], 0.3, 1e-12);
  EXPECT_NEAR(dir.p[2], 0.1, 1e-12);
  EXPECT_NEAR(dir.p[3], 0.0, 1e-12);
  EXPECT_EQ(dir.sector, (std::vector<int32_t>{2, 0, 1}));
}

TEST(SectorTest, AggregateConservesProbability) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  common::Rng rng(61);
  for (int k : {1, 2, 4, 8}) {
    SectorPartition partition({50, 50}, k);
    std::map<int64_t, double> mass;
    for (int i = 0; i < 30; ++i) {
      mass[rng.UniformInt(0, grid.block_count() - 1)] += rng.UniformDouble();
    }
    const BlockProbabilities probs(mass.begin(), mass.end());
    const auto dir = partition.Aggregate(grid, probs);
    ASSERT_EQ(static_cast<int>(dir.p.size()), k);
    double total = 0;
    for (double p : dir.p) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(dir.sector.size(), probs.size());
    for (const int32_t sector : dir.sector) {
      EXPECT_GE(sector, 0);
      EXPECT_LT(sector, k);
    }
  }
}

TEST(SectorTest, SingleSectorTakesEverything) {
  const geometry::GridPartition grid(geometry::MakeBox2(0, 0, 100, 100),
                                     10, 10);
  SectorPartition partition({50, 50}, 1);
  const BlockProbabilities probs = {{3, 0.7}, {97, 0.3}};
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
