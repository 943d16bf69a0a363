#include "motion/grid_probability.h"

#include <cmath>
#include <vector>

#include "common/logging.h"

namespace mars::motion {

namespace {

// 2 × 2 Cholesky factor L (lower triangular) of the covariance, with a
// defensive floor for non-positive-definite numerical corner cases.
struct Chol2 {
  double l11, l21, l22;
};

Chol2 Cholesky2(double xx, double xy, double yy) {
  const double floor = 1e-12;
  xx = std::max(xx, floor);
  Chol2 c;
  c.l11 = std::sqrt(xx);
  c.l21 = xy / c.l11;
  const double rest = yy - c.l21 * c.l21;
  c.l22 = std::sqrt(std::max(rest, floor));
  return c;
}

}  // namespace

BlockProbabilities ComputeBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options, common::Rng& rng) {
  MARS_CHECK_GE(options.horizon, 1);
  MARS_CHECK_GE(options.samples_per_step, 1);

  // Sample mass per block id, and the blocks in the order samples first
  // touched them (a touch may carry zero mass once the discount
  // underflows, so touches are tracked apart from the mass).
  std::vector<double> mass(static_cast<size_t>(grid.block_count()), 0.0);
  std::vector<bool> touched(mass.size(), false);
  std::vector<int64_t> first_touch;
  double total = 0.0;
  double sample_weight = 0.0;  // of the current step's samples
  const auto add = [&](int64_t block) {
    const size_t b = static_cast<size_t>(block);
    if (!touched[b]) {
      touched[b] = true;
      first_touch.push_back(block);
    }
    mass[b] += sample_weight;
    total += sample_weight;
  };

  const std::vector<Prediction> path = predictor.PredictPath(options.horizon);
  double weight = 1.0;
  for (const Prediction& pred : path) {
    const Chol2 chol = Cholesky2(pred.cov_xx, pred.cov_xy, pred.cov_yy);
    sample_weight = weight / static_cast<double>(options.samples_per_step);
    for (int32_t s = 0; s < options.samples_per_step; ++s) {
      const double z1 = rng.Normal();
      const double z2 = rng.Normal();
      const geometry::Vec2 p{pred.mean.x + chol.l11 * z1,
                             pred.mean.y + chol.l21 * z1 + chol.l22 * z2};
      if (options.frame_half_width > 0.0 ||
          options.frame_half_height > 0.0) {
        // Spread the sample over the predicted query frame's blocks
        // (clipped to the space).
        const geometry::Box2 frame = geometry::MakeBox2(
            p.x - options.frame_half_width, p.y - options.frame_half_height,
            p.x + options.frame_half_width,
            p.y + options.frame_half_height);
        grid.ForEachBlockIntersecting(frame, add);
      } else {
        // Point sampling; mass predicted outside the data space is
        // dropped (not clamped to the boundary blocks, which would
        // concentrate phantom probability at the edges for long
        // horizons).
        if (!grid.space().ContainsPoint({p.x, p.y})) continue;
        add(grid.BlockId(grid.BlockOfPoint(p)));
      }
    }
    weight *= options.step_discount;
  }

  // Inserting in first-touch order builds the same table, iteration
  // order included, as accumulating into the map sample by sample;
  // SectorPartition::Aggregate's tie alternation and sums follow that
  // order (DESIGN 5b).
  BlockProbabilities probs;
  for (int64_t block : first_touch) {
    const double m = mass[static_cast<size_t>(block)];
    probs.emplace(block, total > 0.0 ? m / total : m);
  }
  return probs;
}

}  // namespace mars::motion
