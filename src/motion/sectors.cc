#include "motion/sectors.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mars::motion {

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
}  // namespace

SectorPartition::SectorPartition(const geometry::Vec2& center, int32_t k)
    : center_(center), k_(k), boundary_toggle_(k, false), votes_(k, 0) {
  MARS_CHECK_GE(k, 1);
}

int32_t SectorPartition::SectorOfPoint(const geometry::Vec2& p) const {
  const double dx = p.x - center_.x;
  const double dy = p.y - center_.y;
  if (dx == 0.0 && dy == 0.0) return 0;
  double angle = std::atan2(dy, dx);  // (−π, π]
  // Shift so sector i spans [i·2π/k − π/k, i·2π/k + π/k).
  angle += M_PI / k_;
  if (angle < 0) angle += kTwoPi;
  const int32_t sector = static_cast<int32_t>(angle / (kTwoPi / k_));
  return sector % k_;
}

int32_t SectorPartition::SectorOfBlock(const geometry::GridPartition& grid,
                                       int64_t block) {
  const geometry::Box2 box = grid.BlockBox(block);
  // Vote with a 4 × 4 sample lattice over the block. The majority sector
  // approximates "the partition that owns the maximum region of that
  // block"; samples landing (numerically) on a partition line abstain, so
  // a block bisected by a line produces an exact tie, which falls to the
  // per-boundary alternation rule.
  std::fill(votes_.begin(), votes_.end(), 0);
  constexpr int kSamples = 4;
  const double sector_span = kTwoPi / k_;
  int32_t counted = 0;
  for (int i = 0; i < kSamples; ++i) {
    for (int j = 0; j < kSamples; ++j) {
      const geometry::Vec2 p{
          box.lo(0) + box.Extent(0) * (i + 0.5) / kSamples,
          box.lo(1) + box.Extent(1) * (j + 0.5) / kSamples};
      const double dx = p.x - center_.x;
      const double dy = p.y - center_.y;
      // SectorOfPoint(p), sharing its angle with the boundary test.
      int32_t sector = 0;
      if (dx != 0.0 || dy != 0.0) {
        double shifted = std::atan2(dy, dx) + M_PI / k_;
        if (shifted < 0) shifted += kTwoPi;
        const double frac =
            std::fmod(shifted, sector_span) / sector_span;
        if (frac < 1e-9 || frac > 1.0 - 1e-9) continue;  // on a boundary
        sector = static_cast<int32_t>(shifted / sector_span) % k_;
      }
      ++votes_[sector];
      ++counted;
    }
  }
  if (counted == 0) {
    // Degenerate: the whole lattice sat on boundaries; the block takes
    // its center point's sector, without alternation.
    const geometry::Vec2 c{box.lo(0) + box.Extent(0) / 2,
                           box.lo(1) + box.Extent(1) / 2};
    return SectorOfPoint(c);
  }
  int32_t best = 0;
  for (int32_t s = 1; s < k_; ++s) {
    if (votes_[s] > votes_[best]) best = s;
  }
  // Exact tie between two adjacent sectors: alternate along the boundary.
  for (int32_t s = 0; s < k_; ++s) {
    if (s == best) continue;
    if (votes_[s] != votes_[best]) continue;
    // Identify the boundary between the tied sectors.
    const int32_t lo = std::min(s, best);
    const int32_t hi = std::max(s, best);
    int32_t boundary;
    if (hi == lo + 1) {
      boundary = lo;
    } else if (lo == 0 && hi == k_ - 1) {
      boundary = k_ - 1;  // wraparound boundary
    } else {
      continue;  // non-adjacent tie; keep the smaller-index winner
    }
    const bool flip = boundary_toggle_[boundary];
    boundary_toggle_[boundary] = !flip;
    return flip ? s : best;
  }
  return best;
}

SectorPartition::DirectionProbabilities SectorPartition::Aggregate(
    const geometry::GridPartition& grid, const BlockProbabilities& probs) {
  DirectionProbabilities out;
  out.p.assign(k_, 0.0);
  double total = 0.0;
  for (const auto& [block, prob] : probs) {
    const int32_t sector = SectorOfBlock(grid, block);
    out.block_sector[block] = sector;
    out.p[sector] += prob;
    total += prob;
  }
  if (total <= 0.0) {
    std::fill(out.p.begin(), out.p.end(), 1.0 / k_);
  } else {
    for (double& p : out.p) p /= total;
  }
  return out;
}

}  // namespace mars::motion
