#ifndef MARS_MOTION_PREDICTOR_H_
#define MARS_MOTION_PREDICTOR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "geometry/vec.h"
#include "motion/matrix.h"
#include "motion/rls.h"

namespace mars::motion {

// A predicted client position i steps ahead with its 2 × 2 error
// covariance (paper Eq. 3: P(s) ~ N(ŝ, P_t)).
struct Prediction {
  geometry::Vec2 mean;
  // Row-major 2 × 2 covariance of the position estimate.
  double cov_xx = 0.0;
  double cov_xy = 0.0;
  double cov_yy = 0.0;
};

// Interface shared by the motion models: feed positions, ask for a
// Gaussian position forecast. Implemented by MotionPredictor (RLS-learned
// dynamics, the paper's approach) and KalmanFilterPredictor
// (constant-velocity Kalman filter).
class PositionPredictor {
 public:
  virtual ~PositionPredictor() = default;

  // Feeds the client position at the next timestamp.
  virtual void Observe(const geometry::Vec2& position) = 0;

  // Predicts the positions 1, 2, ..., `horizon` >= 1 timestamps ahead in
  // one pass: element i − 1 is the i-step prediction, bit for bit the
  // same whatever the horizon. Costs O(horizon), so a consumer that needs
  // every step asks for the path once.
  virtual std::vector<Prediction> PredictPath(int32_t horizon) const = 0;

  // Predicts the position `steps` >= 1 timestamps ahead.
  Prediction Predict(int32_t steps) const { return PredictPath(steps).back(); }

  // Smoothed per-timestamp displacement (meters per frame).
  virtual double MeanStepDistance() const = 0;
};

// State-estimation motion predictor (paper Sec. V-B). The state s_t stacks
// the h most recent positions, s_t = [p(t), p(t−1), ..., p(t−h+1)]ᵀ; the
// one-step predictor A is learned online by recursive least squares, and
// multi-step predictions use ŝ_{t+i} = Aⁱ s_t. The state error covariance
// P_t is tracked as an exponentially weighted average of observed one-step
// prediction errors and propagated with P_{t+i} = Aⁱ P_t (Aⁱ)ᵀ. A path
// forms Aⁱ = Aⁱ⁻¹ A with one product per step.
class MotionPredictor : public PositionPredictor {
 public:
  struct Options {
    // Number of recent positions per state (h). State dimension = 2h.
    int32_t history = 3;
    // RLS forgetting factor.
    double forgetting = 0.98;
    // EWMA weight for the state error covariance update.
    double covariance_smoothing = 0.2;
    // Covariance floor added per prediction step so that probabilities
    // never collapse to a point even for perfectly linear motion (in
    // squared space units).
    double process_noise = 1e-4;
  };

  MotionPredictor();  // default options
  explicit MotionPredictor(Options options);

  // Feeds the client position at the next timestamp.
  void Observe(const geometry::Vec2& position) override;

  // True once enough positions have been observed to form a state and at
  // least one RLS update has run.
  bool ready() const { return rls_.update_count() > 0; }

  // Before ready(), every step falls back to the last observed position
  // (zero velocity) with a large covariance.
  std::vector<Prediction> PredictPath(int32_t horizon) const override;

  // Number of positions observed so far.
  int64_t observations() const { return observations_; }

  // Smoothed per-timestamp displacement (meters per frame); 0 before two
  // observations. The prefetcher uses it to convert a desired look-ahead
  // distance into a prediction horizon in steps.
  double MeanStepDistance() const override { return mean_step_distance_; }

  const Matrix& transition() const { return rls_.transition(); }

 private:
  Matrix StateFromHistory(size_t newest_offset) const;

  Options options_;
  int32_t dim_;  // 2 * history
  std::deque<geometry::Vec2> recent_;  // newest at front
  RlsEstimator rls_;
  Matrix state_cov_;  // dim × dim EWMA of one-step error outer products
  int64_t observations_ = 0;
  double mean_step_distance_ = 0.0;
};

}  // namespace mars::motion

#endif  // MARS_MOTION_PREDICTOR_H_
