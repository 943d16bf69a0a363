#ifndef MARS_MOTION_GRID_PROBABILITY_H_
#define MARS_MOTION_GRID_PROBABILITY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "geometry/grid.h"
#include "motion/predictor.h"

namespace mars::motion {

// Probability of each grid block being visited by the client's query frame
// over the prediction horizon (paper Sec. V-B, Fig. 4(b)). Values are
// normalized to sum to 1 over the returned map.
using BlockProbabilities = std::unordered_map<int64_t, double>;

// Options for spreading the predicted Gaussians over grid blocks.
struct GridProbabilityOptions {
  // How many future timestamps to iterate (Q_{t+1} ... Q_{t+horizon}).
  // Deep enough that predictions span several grid blocks at cruising
  // speed.
  int32_t horizon = 16;
  // Geometric discount per step: nearer predictions weigh more.
  double step_discount = 0.9;
  // Monte-Carlo samples per step used to integrate the Gaussian over the
  // grid. Deterministic given the seed.
  int32_t samples_per_step = 64;

  // Half-extents of the client's query frame. When non-zero, each sampled
  // future position contributes mass to every block its *query frame*
  // would cover — the paper predicts where the frame Q_{t+i} will be
  // (Fig. 4(a)), not just the client point. Zero reduces to point
  // sampling.
  double frame_half_width = 0.0;
  double frame_half_height = 0.0;
};

// The standard normals one ComputeBlockProbabilities call consumes: two
// per sample (x, then y), samples_per_step samples per step, steps in
// order — 2 × horizon × samples_per_step values drawn from `rng`.
std::vector<double> DrawSampleNormals(const GridProbabilityOptions& options,
                                      common::Rng& rng);

// Computes visit probabilities for blocks of `grid`, by sampling the
// predictor's Gaussian N(mean_i, cov_i) at each future step i of one
// PredictPath(horizon) call and accumulating discounted sample mass per
// block. Blocks enter the map in the order samples first touch them, so
// its iteration order is a pure function of the inputs. The paper computes
// probabilities for "different blocks that can be visited by a client"
// rather than per-point probabilities for exactly this reason — cell-level
// integration is cheap.
//
// The samples' standard normals come from `normals`, laid out as
// DrawSampleNormals draws them; it must hold at least that many.
BlockProbabilities ComputeBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options, std::span<const double> normals);

// The same, drawing the normals from `rng` first (DrawSampleNormals): the
// table and the generator's state afterwards equal drawing each sample's
// pair as it is placed.
BlockProbabilities ComputeBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options, common::Rng& rng);

}  // namespace mars::motion

#endif  // MARS_MOTION_GRID_PROBABILITY_H_
