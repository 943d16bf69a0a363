#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "motion/kalman.h"

namespace mars::motion {
namespace {

TEST(KalmanTest, ConvergesOnLinearMotion) {
  KalmanFilterPredictor kf;
  for (int t = 0; t < 60; ++t) {
    kf.Observe({2.0 * t, 100.0 - 1.0 * t});
  }
  ASSERT_TRUE(kf.ready());
  EXPECT_NEAR(kf.velocity().x, 2.0, 0.05);
  EXPECT_NEAR(kf.velocity().y, -1.0, 0.05);
  for (int steps = 1; steps <= 8; ++steps) {
    const Prediction p = kf.Predict(steps);
    EXPECT_NEAR(p.mean.x, 2.0 * (59 + steps), 0.5) << steps;
    EXPECT_NEAR(p.mean.y, 100.0 - 1.0 * (59 + steps), 0.5) << steps;
  }
}

TEST(KalmanTest, FirstObservationSeedsPosition) {
  KalmanFilterPredictor kf;
  kf.Observe({10, 20});
  const Prediction p = kf.Predict(1);
  EXPECT_NEAR(p.mean.x, 10.0, 1.0);
  EXPECT_NEAR(p.mean.y, 20.0, 1.0);
  EXPECT_FALSE(kf.ready());
}

TEST(KalmanTest, PredictOnEmptyFilterIsSafe) {
  KalmanFilterPredictor kf;
  const Prediction p = kf.Predict(3);
  EXPECT_GE(p.cov_xx, 1e5);
}

TEST(KalmanTest, UncertaintyGrowsWithHorizon) {
  KalmanFilterPredictor kf;
  for (int t = 0; t < 40; ++t) kf.Observe({3.0 * t, 0});
  const Prediction p1 = kf.Predict(1);
  const Prediction p10 = kf.Predict(10);
  EXPECT_GT(p10.cov_xx + p10.cov_yy, p1.cov_xx + p1.cov_yy);
}

TEST(KalmanTest, FiltersMeasurementNoise) {
  // Noisy observations of linear motion, at the filter's measurement
  // noise (variance 0.25): the KF velocity estimate should be much closer
  // to the truth than a naive two-point difference.
  common::Rng rng(7);
  KalmanFilterPredictor kf;
  geometry::Vec2 prev_noisy{0, 0}, noisy{0, 0};
  for (int t = 0; t < 300; ++t) {
    prev_noisy = noisy;
    noisy = {5.0 * t + rng.Normal(0, 0.5), rng.Normal(0, 0.5)};
    kf.Observe(noisy);
  }
  const double kf_error = std::abs(kf.velocity().x - 5.0);
  const double naive_error = std::abs((noisy - prev_noisy).x - 5.0);
  EXPECT_LT(kf_error, 1.0);
  EXPECT_LT(kf_error, naive_error);
}

TEST(KalmanTest, TracksTurns) {
  KalmanFilterPredictor kf;
  geometry::Vec2 pos{0, 0};
  for (int t = 0; t < 50; ++t) {
    pos += {5, 0};
    kf.Observe(pos);
  }
  for (int t = 0; t < 50; ++t) {
    pos += {0, 5};
    kf.Observe(pos);
  }
  // After a long northbound stretch the velocity must have rotated.
  EXPECT_NEAR(kf.velocity().x, 0.0, 0.5);
  EXPECT_NEAR(kf.velocity().y, 5.0, 0.5);
}

TEST(KalmanTest, CovarianceSymmetricAndPositive) {
  KalmanFilterPredictor kf;
  common::Rng rng(11);
  geometry::Vec2 pos{0, 0};
  double heading = 0.5;
  for (int t = 0; t < 100; ++t) {
    heading += rng.Normal(0, 0.2);
    pos += {5 * std::cos(heading), 5 * std::sin(heading)};
    kf.Observe(pos);
    const Prediction p = kf.Predict(4);
    EXPECT_GT(p.cov_xx, 0.0);
    EXPECT_GT(p.cov_yy, 0.0);
    // 2x2 positive semidefinite: det >= 0.
    EXPECT_GE(p.cov_xx * p.cov_yy - p.cov_xy * p.cov_xy, -1e-9);
  }
}

}  // namespace
}  // namespace mars::motion
