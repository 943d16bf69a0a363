#ifndef MARS_MOTION_SECTORS_H_
#define MARS_MOTION_SECTORS_H_

#include <cstdint>
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

  // Sector of a grid block. A block whose four corners lie inside one
  // sector lies wholly in it (blocks and, for k >= 2, sectors are convex).
  // Blocks that straddle a partition line are assigned to the side owning
  // the larger share of the block; exact ties alternate between the two
  // adjacent sectors (paper Sec. V-B: "if the blocks (5,5) and (7,7) are
  // assigned for direction 1, then the blocks (6,6) and (8,8) are assigned
  // for direction 2"). The alternation state is per-partition-line and
  // mutates, hence non-const.
  int32_t SectorOfBlock(const geometry::GridPartition& grid, int64_t block);

  // Aggregates per-block visit probabilities into per-sector direction
  // probabilities p_1..p_k, normalized to sum to 1 (uniform if the input is
  // empty). Blocks are assigned in the order of `probs`, ascending id, so
  // tied boundary blocks alternate in that canonical order. Also returns
  // the sector of each block, for the prefetcher.
  struct DirectionProbabilities {
    std::vector<double> p;  // size k, sums to 1
    std::vector<int32_t> sector;  // sector[i] is probs[i]'s
  };
  DirectionProbabilities Aggregate(const geometry::GridPartition& grid,
                                   const BlockProbabilities& probs);

 private:
  geometry::Vec2 center_;
  int32_t k_;
  // Sector of the offset (dx, dy) ≠ 0 from the center, or −1 when it lies
  // within a 1e-9 share of a sector's angle of a partition line.
  int32_t SectorOffLine(double dx, double dy) const;

  // Toggle per boundary line (boundary b sits between sectors b and b+1
  // mod k).
  std::vector<bool> boundary_toggle_;
  // SectorOfBlock's per-sector vote counts, reused across calls.
  std::vector<int32_t> votes_;
};

}  // namespace mars::motion

#endif  // MARS_MOTION_SECTORS_H_
