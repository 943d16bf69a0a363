#include "motion/kalman.h"

#include "common/logging.h"

namespace mars::motion {

namespace {

// Time step between observations (the query-frame interval).
constexpr double kDt = 1.0;
// Process-noise intensity (white acceleration spectral density): how much
// the velocity may drift between frames.
constexpr double kProcessNoise = 0.5;
// Measurement-noise variance of the observed positions.
constexpr double kMeasurementNoise = 0.25;
// Initial state variance (positions are observed immediately, so this
// mostly governs how fast the velocity estimate settles).
constexpr double kInitialVariance = 100.0;

// Constant-velocity transition for time step dt.
Matrix TransitionMatrix(double dt) {
  Matrix f = Matrix::Identity(4);
  f(0, 2) = dt;
  f(1, 3) = dt;
  return f;
}

// Discrete white-noise-acceleration process covariance (per axis blocks
// [dt^4/4, dt^3/2; dt^3/2, dt^2] scaled by the noise intensity).
Matrix ProcessNoise(double dt, double intensity) {
  Matrix q(4, 4);
  const double dt2 = dt * dt;
  const double dt3 = dt2 * dt;
  const double dt4 = dt3 * dt;
  for (int axis = 0; axis < 2; ++axis) {
    const int p = axis;      // position index
    const int v = axis + 2;  // velocity index
    q(p, p) = dt4 / 4.0 * intensity;
    q(p, v) = dt3 / 2.0 * intensity;
    q(v, p) = dt3 / 2.0 * intensity;
    q(v, v) = dt2 * intensity;
  }
  return q;
}

}  // namespace

KalmanFilterPredictor::KalmanFilterPredictor()
    : f_(TransitionMatrix(kDt)),
      q_(ProcessNoise(kDt, kProcessNoise)),
      h_(Matrix(2, 4)),
      state_(Matrix(4, 1)),
      p_(Matrix::Identity(4) * kInitialVariance) {
  h_(0, 0) = 1.0;
  h_(1, 1) = 1.0;
}

void KalmanFilterPredictor::Observe(const geometry::Vec2& position) {
  if (observations_ > 0) {
    const double step = (position - last_position_).Norm();
    mean_step_distance_ = observations_ == 1
                              ? step
                              : 0.7 * mean_step_distance_ + 0.3 * step;
  }
  last_position_ = position;
  if (observations_ == 0) {
    state_(0, 0) = position.x;
    state_(1, 0) = position.y;
    ++observations_;
    return;
  }

  // Predict.
  state_ = f_ * state_;
  p_ = f_ * p_ * f_.Transpose() + q_;

  // Update: K = P Hᵀ (H P Hᵀ + R)⁻¹.
  Matrix s = h_ * p_ * h_.Transpose();
  s(0, 0) += kMeasurementNoise;
  s(1, 1) += kMeasurementNoise;
  auto s_inv = s.Inverse();
  MARS_CHECK(s_inv.ok()) << "innovation covariance singular";
  const Matrix k = p_ * h_.Transpose() * *s_inv;

  Matrix innovation(2, 1);
  innovation(0, 0) = position.x - state_(0, 0);
  innovation(1, 0) = position.y - state_(1, 0);
  state_ = state_ + k * innovation;
  p_ = (Matrix::Identity(4) - k * h_) * p_;
  ++observations_;
}

std::vector<Prediction> KalmanFilterPredictor::PredictPath(
    int32_t horizon) const {
  MARS_CHECK_GE(horizon, 1);
  std::vector<Prediction> path(static_cast<size_t>(horizon));
  if (observations_ == 0) {
    for (Prediction& out : path) out.cov_xx = out.cov_yy = 1e6;
    return path;
  }
  // Position block (xx, xy, yy) of one term F^j Q (F^j)ᵀ.
  struct NoiseTerm {
    double xx, xy, yy;
  };
  std::vector<NoiseTerm> noise;
  noise.reserve(static_cast<size_t>(horizon));
  // Rows 0–1 of Fⁱ along the chain I·F·F·…, which is Matrix::Pow's: row r
  // of a product depends on row r of its left factor alone, so these rows,
  // and the position blocks formed from them, are bitwise those of the
  // full matrices.
  Matrix f_i(2, 4);
  f_i(0, 0) = 1.0;
  f_i(1, 1) = 1.0;
  for (int32_t step = 1; step <= horizon; ++step) {
    // f_i is F^(step−1) here: the newest term of the noise sum.
    const Matrix q_term = f_i * q_ * f_i.Transpose();
    noise.push_back({q_term(0, 0), q_term(0, 1), q_term(1, 1)});
    f_i = f_i * f_;
    Prediction& out = path[static_cast<size_t>(step - 1)];
    const Matrix predicted = f_i * state_;
    out.mean = {predicted(0, 0), predicted(1, 0)};

    // Propagate covariance i steps: P_i = Fⁱ P (Fⁱ)ᵀ + Σ_{j<i} F^j Q
    // (F^j)ᵀ, summed from j = 0 up.
    const Matrix cov = f_i * p_ * f_i.Transpose();
    out.cov_xx = cov(0, 0);
    out.cov_xy = cov(0, 1);
    out.cov_yy = cov(1, 1);
    for (const NoiseTerm& term : noise) {
      out.cov_xx += term.xx;
      out.cov_xy += term.xy;
      out.cov_yy += term.yy;
    }
  }
  return path;
}

geometry::Vec2 KalmanFilterPredictor::velocity() const {
  return {state_(2, 0), state_(3, 0)};
}

}  // namespace mars::motion
