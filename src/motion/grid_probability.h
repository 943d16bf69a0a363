#ifndef MARS_MOTION_GRID_PROBABILITY_H_
#define MARS_MOTION_GRID_PROBABILITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/grid.h"
#include "motion/predictor.h"

namespace mars::motion {

// Probability of each grid block being visited by the client's query frame
// over the prediction horizon (paper Sec. V-B, Fig. 4(b)): (block id,
// probability) pairs in ascending block id, every probability positive,
// summing to 1. Empty when no predicted step reaches the grid.
using BlockProbabilities = std::vector<std::pair<int64_t, double>>;

// A step's support: the blocks whose box, grown by the frame's
// half-extents, meets the ellipse of Mahalanobis distance kSupportSigmas
// around the step's mean. The mass beyond it, e^{-8} ≈ 3.4e-4 of the
// step's, is dropped.
inline constexpr double kSupportSigmas = 4.0;

// Options for spreading the predicted Gaussians over grid blocks.
struct GridProbabilityOptions {
  // How many future timestamps to iterate (Q_{t+1} ... Q_{t+horizon}).
  // Deep enough that predictions span several grid blocks at cruising
  // speed.
  int32_t horizon = 16;
  // Geometric discount per step: nearer predictions weigh more.
  double step_discount = 0.9;

  // Half-extents of the client's query frame. When non-zero, a future
  // position contributes mass to every block its *query frame* would
  // cover — the paper predicts where the frame Q_{t+i} will be (Fig.
  // 4(a)), not just the client point. Zero reduces to the block holding
  // the point.
  double frame_half_width = 0.0;
  double frame_half_height = 0.0;
};

// P(U < h, V < k) for standard normals U, V with correlation `rho` in
// [-1, 1], by Genz's algorithm after Drezner and Wesolowsky (whose
// stated accuracy is about 1e-15).
double BivariateNormalCdf(double h, double k, double rho);

// Computes visit probabilities for blocks of `grid` from one
// PredictPath(horizon) call. Step i weighs step_discount^(i−1) and gives
// each block the probability that its Gaussian N(mean_i, cov_i) puts the
// query frame on the block: that the position lies in the block grown by
// the frame's half-extents. The probability is exact (a product of normal
// CDF differences when cov_xy is 0, bivariate normal CDFs otherwise) over
// the step's support (kSupportSigmas); a step with a non-finite mean or
// covariance adds nothing. The paper computes probabilities for
// "different blocks that can be visited by a client" rather than
// per-point probabilities for exactly this reason — cell-level
// integration is cheap.
BlockProbabilities ComputeBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options);

}  // namespace mars::motion

#endif  // MARS_MOTION_GRID_PROBABILITY_H_
