#ifndef MARS_BUFFER_PREFETCHER_H_
#define MARS_BUFFER_PREFETCHER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geometry/grid.h"
#include "geometry/vec.h"
#include "motion/grid_probability.h"
#include "motion/predictor.h"
#include "motion/sectors.h"

namespace mars::buffer {

// Blocks a prefetcher wants resident, most valuable first.
struct PrefetchPlan {
  struct Item {
    int64_t block = 0;
    // Eviction priority (predicted visit probability for the motion-aware
    // scheme).
    double priority = 0.0;
    // Resolution to prefetch: the motion-aware multiresolution strategy
    // buffers lower resolutions when moving fast (paper Sec. V, last
    // paragraph).
    double w_min = 0.0;
  };
  std::vector<Item> items;

  // Collapses duplicate blocks (e.g. a block reachable from two direction
  // sectors) into one item carrying the higher priority and the finer
  // (smaller) w_min, then re-sorts by priority. A duplicate-free plan is
  // left exactly as-is, ordering included.
  void Dedupe();
};

// Motion-aware prefetcher (paper Sec. V): predicts the client's path,
// derives per-block visit probabilities, aggregates them into k direction
// probabilities, splits the block budget across directions with the
// Eq.-2-based allocator, and picks each direction's most probable blocks.
class MotionAwarePrefetcher {
 public:
  struct Options {
    int32_t directions = 4;  // k
    motion::GridProbabilityOptions probability;
    // Ring search limit when a sector has fewer predicted blocks than its
    // allocation (Chebyshev radius in blocks).
    int32_t max_ring_radius = 12;
    // Adaptive horizon: the prediction depth (in timestamps) is chosen so
    // the predicted path spans roughly budget_blocks / blocks_per_depth_unit
    // grid blocks — "to fill a large buffer, a client pre-fetches more
    // data by predicting positions of the query frame far into the future"
    // (paper Sec. VII-C) — clamped to [min_horizon, max_horizon].
    double blocks_per_depth_unit = 8.0;
    int32_t min_horizon = 4;
    int32_t max_horizon = 48;
  };

  MotionAwarePrefetcher();  // default options
  explicit MotionAwarePrefetcher(Options options);

  // Plans up to `budget_blocks` blocks around `position`; `w_min` (in
  // [0, 1]) is the prefetch resolution the caller's QoS policy mapped
  // from the current speed (qos::ResolutionPolicy).
  PrefetchPlan Plan(const motion::PositionPredictor& predictor,
                    const geometry::GridPartition& grid,
                    const geometry::Vec2& position, double w_min,
                    int32_t budget_blocks, common::Rng& rng) const;

 private:
  Options options_;
};

// Baseline prefetcher (paper Sec. VII-C): "all the surrounding regions of a
// query frame are buffered with equal probabilities" — fills the budget
// ring by ring around the client, uniformly.
class NaivePrefetcher {
 public:
  PrefetchPlan Plan(const geometry::GridPartition& grid,
                    const geometry::Vec2& position, double w_min,
                    int32_t budget_blocks) const;
};

}  // namespace mars::buffer

#endif  // MARS_BUFFER_PREFETCHER_H_
