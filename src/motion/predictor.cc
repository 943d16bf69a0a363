#include "motion/predictor.h"

#include <algorithm>

#include "common/logging.h"

namespace mars::motion {

MotionPredictor::MotionPredictor() : MotionPredictor(Options()) {}

MotionPredictor::MotionPredictor(Options options)
    : options_(options),
      dim_(2 * options.history),
      rls_(dim_, options.forgetting),
      state_cov_(Matrix(dim_, dim_)) {
  MARS_CHECK_GE(options.history, 1);
}

Matrix MotionPredictor::StateFromHistory(size_t newest_offset) const {
  // State = [p(t−offset), p(t−offset−1), ...] stacked x, y.
  Matrix s(dim_, 1);
  for (int32_t i = 0; i < options_.history; ++i) {
    const geometry::Vec2& p = recent_[newest_offset + i];
    s(2 * i, 0) = p.x;
    s(2 * i + 1, 0) = p.y;
  }
  return s;
}

void MotionPredictor::Observe(const geometry::Vec2& position) {
  if (!recent_.empty()) {
    const double step = (position - recent_.front()).Norm();
    mean_step_distance_ = observations_ <= 1
                              ? step
                              : 0.7 * mean_step_distance_ + 0.3 * step;
  }
  recent_.push_front(position);
  ++observations_;
  const size_t needed = static_cast<size_t>(options_.history) + 1;
  while (recent_.size() > needed) {
    recent_.pop_back();
  }
  if (recent_.size() < needed) return;

  // One observed transition: state at t−1 -> state at t.
  const Matrix x = StateFromHistory(1);
  const Matrix y = StateFromHistory(0);

  // Track the one-step prediction error with the *pre-update* model so the
  // covariance reflects genuine out-of-sample error.
  if (rls_.update_count() > 0) {
    const Matrix predicted = rls_.transition() * x;
    const Matrix e = y - predicted;
    const double alpha = options_.covariance_smoothing;
    Matrix outer(dim_, dim_);
    for (int32_t r = 0; r < dim_; ++r) {
      for (int32_t c = 0; c < dim_; ++c) {
        outer(r, c) = e(r, 0) * e(c, 0);
      }
    }
    state_cov_ = state_cov_ * (1.0 - alpha) + outer * alpha;
  }
  rls_.Update(x, y);
}

std::vector<Prediction> MotionPredictor::PredictPath(int32_t horizon) const {
  MARS_CHECK_GE(horizon, 1);
  std::vector<Prediction> path(static_cast<size_t>(horizon));
  if (recent_.empty() || !ready() ||
      recent_.size() < static_cast<size_t>(options_.history)) {
    for (Prediction& out : path) {
      if (!recent_.empty()) out.mean = recent_.front();
      out.cov_xx = out.cov_yy = 1e6;
    }
    return path;
  }

  const Matrix s = StateFromHistory(0);
  const Matrix& a = rls_.transition();
  // Only the position rows 0–1 of Aⁱ reach the output, and row r of a
  // product depends on row r of its left factor alone. So these two rows
  // of the chain I·A·A·…, which is Matrix::Pow's, are bitwise the rows of
  // Pow(i), and so are the products formed from them below.
  Matrix a_i(2, dim_);
  a_i(0, 0) = 1.0;
  a_i(1, 1) = 1.0;
  for (int32_t step = 1; step <= horizon; ++step) {
    a_i = a_i * a;
    Prediction& out = path[static_cast<size_t>(step - 1)];
    const Matrix predicted = a_i * s;
    out.mean = {predicted(0, 0), predicted(1, 0)};

    // P_{t+i} = Aⁱ P_t (Aⁱ)ᵀ, plus a per-step noise floor.
    const Matrix cov = a_i * state_cov_ * a_i.Transpose();
    const double floor = options_.process_noise * step;
    out.cov_xx = std::max(cov(0, 0) + floor, floor);
    out.cov_yy = std::max(cov(1, 1) + floor, floor);
    out.cov_xy = cov(0, 1);
  }
  return path;
}

}  // namespace mars::motion
