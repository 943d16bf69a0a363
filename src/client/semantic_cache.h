#ifndef MARS_CLIENT_SEMANTIC_CACHE_H_
#define MARS_CLIENT_SEMANTIC_CACHE_H_

#include <cstdint>
#include <list>
#include <vector>

#include "geometry/box.h"
#include "server/server.h"

namespace mars::client {

// Semantic cache over (region × resolution band) descriptions — the
// location-dependent caching style of Zheng & Lee (paper reference [8]),
// provided as an alternative to the block-granular buffer. Instead of
// fixed grid blocks, the cache remembers exactly which *query semantics*
// it has answered: each entry says "I hold every coefficient whose support
// intersects `region` with w in [w_min, 1]".
//
// A new query Q(R, w_min) is trimmed against the cache: the parts of R
// already covered at a sufficient resolution are answered locally, and
// only the *remainder* sub-queries (new rectangles, or resolution-upgrade
// bands over covered rectangles) go to the server. This is Algorithm 1
// generalized from one previous frame to the whole cached history.
class SemanticCache {
 public:
  // Bound on the number of cached semantic regions; the least recently
  // used entries are dropped beyond it (their data is discarded).
  static constexpr int32_t kMaxEntries = 64;

  // Plans the server sub-queries needed to answer Q(window, w_min, 1.0)
  // given the cached semantics, and installs the query's semantics into
  // the cache (assuming the caller executes the plan). The returned
  // sub-queries are disjoint from cached coverage up to resolution bands.
  std::vector<server::SubQuery> PlanAndInsert(const geometry::Box2& window,
                                              double w_min);

  // Fraction of the latest query's area that was answered locally,
  // weighted by band width (1 = fully cached).
  double last_coverage() const { return last_coverage_; }

  size_t entry_count() const { return entries_.size(); }

  // Total area-band volume currently described by the cache.
  double CoverageVolume() const;

 private:
  struct Entry {
    geometry::Box2 region;
    double w_min = 0.0;  // holds band [w_min, 1] over region
  };

  // Most recently used first.
  std::list<Entry> entries_;
  double last_coverage_ = 0.0;
};

}  // namespace mars::client

#endif  // MARS_CLIENT_SEMANTIC_CACHE_H_
