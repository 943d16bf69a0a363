#include "buffer/prefetcher.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "buffer/sector_allocator.h"
#include "common/logging.h"

namespace mars::buffer {

namespace {

using geometry::BlockCoord;
using geometry::GridPartition;

// Calls `fn(coord)` for every valid block on the Chebyshev ring of radius
// `r` around `center` (r = 0 is the center block itself).
template <typename Fn>
void ForRing(const GridPartition& grid, const BlockCoord& center, int32_t r,
             Fn&& fn) {
  if (r == 0) {
    if (grid.IsValidCoord(center)) fn(center);
    return;
  }
  for (int32_t dx = -r; dx <= r; ++dx) {
    for (int32_t dy = -r; dy <= r; ++dy) {
      if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
      const BlockCoord c{center.i + dx, center.j + dy};
      if (grid.IsValidCoord(c)) fn(c);
    }
  }
}

struct Candidate {
  int64_t block = 0;
  double probability = 0.0;
  int32_t ring = 0;
};

}  // namespace

void PrefetchPlan::Dedupe() {
  std::unordered_map<int64_t, size_t> first;
  std::vector<Item> unique;
  unique.reserve(items.size());
  for (const Item& item : items) {
    const auto [it, inserted] = first.emplace(item.block, unique.size());
    if (inserted) {
      unique.push_back(item);
      continue;
    }
    Item& kept = unique[it->second];
    // Merge: the stronger claim wins the eviction priority; the finer
    // resolution request wins the band (fetching coarser than any
    // requester wanted would leave a hole).
    kept.priority = std::max(kept.priority, item.priority);
    kept.w_min = std::min(kept.w_min, item.w_min);
  }
  if (unique.size() == items.size()) return;  // already duplicate-free
  items = std::move(unique);
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.priority > b.priority;
  });
}

MotionAwarePrefetcher::MotionAwarePrefetcher()
    : MotionAwarePrefetcher(Options()) {}

MotionAwarePrefetcher::MotionAwarePrefetcher(Options options)
    : options_(options) {
  MARS_CHECK_GE(options.directions, 1);
}

PrefetchPlan MotionAwarePrefetcher::Plan(
    const motion::PositionPredictor& predictor, const GridPartition& grid,
    const geometry::Vec2& position, double w_min, int32_t budget_blocks,
    common::Rng& rng) const {
  PrefetchPlan plan;
  if (budget_blocks <= 0) return plan;

  // (i) Estimate the client's path: per-block visit probabilities, with a
  // look-ahead deep enough to span the buffer's worth of blocks at the
  // client's current pace (bigger buffers predict farther into the
  // future, as in the paper's Sec. VII-C discussion).
  motion::GridProbabilityOptions prob_options = options_.probability;
  const double depth_blocks =
      std::max(1.0, budget_blocks / options_.blocks_per_depth_unit);
  const double step_m = std::max(predictor.MeanStepDistance(), 1e-6);
  const double block_span = 0.5 * (grid.block_width() + grid.block_height());
  prob_options.horizon = std::clamp(
      static_cast<int32_t>(depth_blocks * block_span / step_m),
      options_.min_horizon, options_.max_horizon);
  // Keep half of the sampling weight alive at the far end of the horizon.
  prob_options.step_discount = std::pow(0.5, 1.0 / prob_options.horizon);
  const motion::BlockProbabilities probs = motion::ComputeBlockProbabilities(
      predictor, grid, prob_options, rng);

  // (ii) Aggregate into k direction probabilities and split the budget.
  motion::SectorPartition partition(position, options_.directions);
  const auto directions = partition.Aggregate(grid, probs);
  const std::vector<int32_t> allocation =
      AllocateBuffer(directions.p, budget_blocks);

  // (iii) Gather per-sector candidates: every block with predicted mass.
  std::vector<std::vector<Candidate>> candidates(options_.directions);
  const BlockCoord center = grid.BlockOfPoint(position);
  const int64_t center_id = grid.BlockId(center);
  for (const auto& [block, p] : probs) {
    if (block == center_id) continue;  // current block is demand territory
    auto it = directions.block_sector.find(block);
    const int32_t sector = it != directions.block_sector.end()
                               ? it->second
                               : partition.SectorOfBlock(grid, block);
    const BlockCoord c = grid.BlockCoordOf(block);
    const int32_t ring = std::max(std::abs(c.i - center.i),
                                  std::abs(c.j - center.j));
    candidates[sector].push_back(Candidate{block, p, ring});
  }
  // A predictor with no mass in the space (a cold start) gets the rings
  // around the client instead, so the sectors can still fill their
  // allocation. Step (iv) stops at the first zero-mass candidate whenever
  // `probs` is non-empty, so ring candidates are only ever taken here.
  // Rings of distinct radii are disjoint and never hold the center.
  for (int32_t r = 1; probs.empty() && r <= options_.max_ring_radius; ++r) {
    bool all_full = true;
    for (int32_t s = 0; s < options_.directions; ++s) {
      if (static_cast<int32_t>(candidates[s].size()) < allocation[s]) {
        all_full = false;
      }
    }
    if (all_full) break;
    ForRing(grid, center, r, [&](const BlockCoord& c) {
      const int64_t block = grid.BlockId(c);
      const int32_t sector = partition.SectorOfBlock(grid, block);
      candidates[sector].push_back(Candidate{block, 0.0, r});
    });
  }

  // (iv) Per sector, keep the most promising blocks up to the allocation.
  for (int32_t s = 0; s < options_.directions; ++s) {
    std::vector<Candidate>& list = candidates[s];
    std::sort(list.begin(), list.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                if (a.ring != b.ring) return a.ring < b.ring;
                return a.block < b.block;
              });
    const int32_t take =
        std::min<int32_t>(allocation[s], static_cast<int32_t>(list.size()));
    for (int32_t i = 0; i < take; ++i) {
      // Ring-fill candidates carry no predicted mass; once the predictor
      // is producing real probabilities, spending budget on them only
      // wastes bandwidth (they exist to bootstrap a cold predictor).
      if (list[i].probability <= 0.0 && !probs.empty()) break;
      plan.items.push_back(PrefetchPlan::Item{
          list[i].block,
          // Nearer rings break probability ties in eviction decisions.
          list[i].probability + 1e-6 / (1.0 + list[i].ring),
          std::clamp(w_min, 0.0, 1.0)});
    }
  }
  std::sort(plan.items.begin(), plan.items.end(),
            [](const PrefetchPlan::Item& a, const PrefetchPlan::Item& b) {
              return a.priority > b.priority;
            });
  // The per-sector candidate sets are disjoint by construction today (each
  // block is gathered once, into one sector), but a block
  // reachable from two direction sectors must never be fetched twice —
  // enforce it here rather than relying on upstream invariants.
  plan.Dedupe();
  return plan;
}

PrefetchPlan NaivePrefetcher::Plan(const GridPartition& grid,
                                   const geometry::Vec2& position,
                                   double w_min,
                                   int32_t budget_blocks) const {
  PrefetchPlan plan;
  if (budget_blocks <= 0) return plan;
  const BlockCoord center = grid.BlockOfPoint(position);
  const int64_t center_id = grid.BlockId(center);
  for (int32_t r = 1;
       static_cast<int32_t>(plan.items.size()) < budget_blocks &&
       r <= std::max(grid.nx(), grid.ny());
       ++r) {
    ForRing(grid, center, r, [&](const BlockCoord& c) {
      if (static_cast<int32_t>(plan.items.size()) >= budget_blocks) return;
      const int64_t block = grid.BlockId(c);
      if (block == center_id) return;
      // Equal probabilities: every surrounding block gets the same
      // priority; only the ring order decides what fits in the budget.
      plan.items.push_back(PrefetchPlan::Item{
          block, 0.5, std::clamp(w_min, 0.0, 1.0)});
    });
  }
  // Disjoint rings cannot duplicate a block; a no-op that keeps the
  // ring-order guarantee, present for the same invariant as the
  // motion-aware path.
  plan.Dedupe();
  return plan;
}

}  // namespace mars::buffer
