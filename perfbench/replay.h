#ifndef MARS_PERFBENCH_REPLAY_H_
#define MARS_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"
#include "trace.h"
#include "workload/tour.h"
#include "workloads.h"

namespace perfbench {

// Counts gathered while replaying a workload's inputs through single
// public calls; the matching times are the replay's spans.
struct ReplayCounts {
  int64_t plan_frames = 0;  // frames replayed through the prefetch planner
  int64_t frames = 0;       // frames replayed through Server::Execute
  int64_t queries = 0;
  int64_t node_accesses = 0;
  int64_t shards_touched = 0;
  std::vector<double> max_shard_accesses;  // per query
  int64_t delivered = 0;  // records Server::Execute delivered (and encoded)
  int64_t filtered = 0;   // records its session filter dropped
  // Streaming clients only: replayed Execute results that differ from what
  // the traced client received for the same frame.
  int64_t client_mismatches = 0;
};

// Re-issues `tours` single-threaded through the public calls of each layer,
// one span per call: MotionPredictor::Observe and MotionAwarePrefetcher::
// Plan as the buffered client calls them (over the first `plan_frames`
// frames, planning `plan_budget` blocks), PlanContinuousRetrieval,
// Server::Execute, ShardedCoefficientIndex::QueryProfiled per sub-query and
// EncodeRecords, then MotionInterestTracker::Observe/Snapshot with every
// tour as one client. `client_records`, when not empty, holds the records
// the streaming client received per tour, for the mismatch count.
ReplayCounts Replay(const Workload& workload, const mars::core::System& system,
                    const std::vector<std::vector<mars::workload::TourPoint>>&
                        tours,
                    int64_t plan_frames, int32_t plan_budget,
                    const std::vector<int64_t>& client_records,
                    Tracer* tracer);

// Streaming clients stepped standalone over `tours` against `system`, one
// client.step span per frame: the client-step figure of fleet workloads,
// whose steps run inside FleetEngine::Run.
void ReplayStreamingSteps(
    const Workload& workload, mars::core::System* system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours,
    Tracer* tracer);

// A sample of the window queries the tours issue, checked against a
// brute-force scan of db().records(); returns a description of the first
// difference, or "" when all match.
std::string CheckQueriesAgainstScan(
    const Workload& workload, const mars::core::System& system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours);

// Disk workloads: the same sample through `system`'s paged index and
// through a memory-mode index built over the same records with the same
// shard options must return the same records and node accesses.
std::string CheckDiskAgainstMemory(
    const Workload& workload, const mars::core::System& system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours);

}  // namespace perfbench

#endif  // MARS_PERFBENCH_REPLAY_H_
