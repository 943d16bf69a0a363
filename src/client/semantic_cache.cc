#include "client/semantic_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "geometry/rect_diff.h"

namespace mars::client {

namespace {

// A still-unanswered fragment of the current query: `region` needs the
// coefficient band [w_lo, w_hi].
struct Piece {
  geometry::Box2 region;
  double w_lo = 0.0;
  double w_hi = 1.0;
};

// Cap on query fragmentation: beyond this, remaining pieces are sent
// untrimmed (correct, merely less parsimonious).
constexpr size_t kMaxPieces = 256;

}  // namespace

std::vector<server::SubQuery> SemanticCache::PlanAndInsert(
    const geometry::Box2& window, double w_min) {
  MARS_CHECK(!window.IsEmpty());
  MARS_CHECK_GE(w_min, 0.0);
  MARS_CHECK_LE(w_min, 1.0);

  std::vector<Piece> pieces = {Piece{window, w_min, 1.0}};

  // Trim the query against every cached semantic region, most recently
  // used first.
  for (const Entry& entry : entries_) {
    std::vector<Piece> next;
    bool overflow = false;
    for (const Piece& piece : pieces) {
      if (next.size() > kMaxPieces) {
        overflow = true;
        next.push_back(piece);
        continue;
      }
      const geometry::Box2 overlap =
          piece.region.Intersection(entry.region);
      if (overlap.IsEmpty()) {
        next.push_back(piece);
        continue;
      }
      // Outside the entry: unchanged need.
      for (const geometry::Box2& rest :
           geometry::Difference(piece.region, entry.region)) {
        next.push_back(Piece{rest, piece.w_lo, piece.w_hi});
      }
      // Inside the entry: the band [entry.w_min, 1] is already held.
      if (entry.w_min <= piece.w_lo) {
        // Fully covered; nothing left for this overlap.
      } else if (entry.w_min < piece.w_hi) {
        next.push_back(Piece{overlap, piece.w_lo, entry.w_min});
      } else {
        // The entry's band starts above this piece's need: no help.
        next.push_back(Piece{overlap, piece.w_lo, piece.w_hi});
      }
    }
    pieces = std::move(next);
    if (overflow) break;
  }

  // Coverage metric: how much of the query's (area × band) volume was
  // answered locally.
  const double band = std::max(1.0 - w_min, 1e-9);
  const double total_volume = window.Volume() * band;
  double missing = 0.0;
  for (const Piece& piece : pieces) {
    missing += piece.region.Volume() * (piece.w_hi - piece.w_lo);
  }
  last_coverage_ =
      total_volume > 0 ? std::clamp(1.0 - missing / total_volume, 0.0, 1.0)
                       : 1.0;

  // Install the new semantics: drop entries this query dominates, then
  // push to the front (MRU) and evict beyond capacity.
  entries_.remove_if([&](const Entry& e) {
    return window.Contains(e.region) && w_min <= e.w_min;
  });
  entries_.push_front(Entry{window, w_min});
  while (static_cast<int32_t>(entries_.size()) > kMaxEntries) {
    entries_.pop_back();
  }

  std::vector<server::SubQuery> plan;
  plan.reserve(pieces.size());
  for (const Piece& piece : pieces) {
    plan.push_back(server::SubQuery{piece.region, piece.w_lo, piece.w_hi});
  }
  return plan;
}

double SemanticCache::CoverageVolume() const {
  // Upper bound (entries may overlap); used as a size indicator only.
  double total = 0.0;
  for (const Entry& e : entries_) {
    total += e.region.Volume() * (1.0 - e.w_min);
  }
  return total;
}

}  // namespace mars::client
