#ifndef MARS_MOTION_SECTORS_H_
#define MARS_MOTION_SECTORS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/grid.h"
#include "motion/grid_probability.h"

namespace mars::motion {

// Partition of the plane around the client into k equally sized angular
// sectors — the k "possible directions" of the buffer-allocation model
// (paper Sec. V-A, Fig. 4(b), k = 4). Sector i spans angles
// [i·2π/k − π/k, i·2π/k + π/k) around the client, so sector 0 is centered
// on +x, sector 1 on +y for k = 4, etc.
class SectorPartition {
 public:
  // `center` is the client position; k >= 1.
  SectorPartition(const geometry::Vec2& center, int32_t k);

  int32_t k() const { return k_; }
  const geometry::Vec2& center() const { return center_; }

  // Sector of an arbitrary point.
  int32_t SectorOfPoint(const geometry::Vec2& p) const;

  // Sector of a grid block. Blocks that straddle a partition line are
  // assigned to the side owning the larger share of the block; exact ties
  // alternate between the two adjacent sectors (paper Sec. V-B: "if the
  // blocks (5,5) and (7,7) are assigned for direction 1, then the blocks
  // (6,6) and (8,8) are assigned for direction 2"). The alternation state
  // is per-partition-line and mutates, hence non-const.
  int32_t SectorOfBlock(const geometry::GridPartition& grid, int64_t block);

  // Aggregates per-block visit probabilities into per-sector direction
  // probabilities p_1..p_k, normalized to sum to 1 (uniform if the input is
  // empty). Also returns the block -> sector assignment used, for the
  // prefetcher.
  struct DirectionProbabilities {
    std::vector<double> p;  // size k, sums to 1
    std::unordered_map<int64_t, int32_t> block_sector;
  };
  DirectionProbabilities Aggregate(const geometry::GridPartition& grid,
                                   const BlockProbabilities& probs);

 private:
  geometry::Vec2 center_;
  int32_t k_;
  // Toggle per boundary line (boundary b sits between sectors b and b+1
  // mod k).
  std::vector<bool> boundary_toggle_;
  // SectorOfBlock's per-sector vote counts, reused across calls.
  std::vector<int32_t> votes_;
};

}  // namespace mars::motion

#endif  // MARS_MOTION_SECTORS_H_
