#ifndef MARS_MOTION_KALMAN_H_
#define MARS_MOTION_KALMAN_H_

#include <cstdint>
#include <vector>

#include "geometry/vec.h"
#include "motion/matrix.h"
#include "motion/predictor.h"

namespace mars::motion {

// Classic discrete Kalman filter (Welch & Bishop, the paper's reference
// [21]) with a constant-velocity motion model: state [x, y, vx, vy],
// position measurements. Serves as an alternative to the RLS-learned
// transition of MotionPredictor — the KF assumes the dynamics, the RLS
// learns them; `bench_ablation_prediction` compares the two on the tour
// workloads.
class KalmanFilterPredictor : public PositionPredictor {
 public:
  KalmanFilterPredictor();

  // Feeds the client position observed at the next timestamp (runs one
  // predict + update cycle).
  void Observe(const geometry::Vec2& position) override;

  // Predicts the positions 1 ... `horizon` timestamps ahead with their
  // 2 × 2 covariances; matches MotionPredictor::PredictPath's contract.
  std::vector<Prediction> PredictPath(int32_t horizon) const override;

  // Smoothed per-timestamp displacement (meters per frame).
  double MeanStepDistance() const override { return mean_step_distance_; }

  bool ready() const { return observations_ >= 2; }
  int64_t observations() const { return observations_; }

  // Current velocity estimate.
  geometry::Vec2 velocity() const;

 private:
  Matrix f_;  // 4x4 transition
  Matrix q_;  // 4x4 process noise
  Matrix h_;  // 2x4 measurement
  Matrix state_;  // 4x1
  Matrix p_;      // 4x4 covariance
  int64_t observations_ = 0;
  geometry::Vec2 last_position_;
  double mean_step_distance_ = 0.0;
};

}  // namespace mars::motion

#endif  // MARS_MOTION_KALMAN_H_
