#ifndef MARS_PERFBENCH_WORKLOADS_H_
#define MARS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/buffered_client.h"
#include "client/streaming_client.h"
#include "core/metrics.h"
#include "core/system.h"
#include "fleet/fleet_engine.h"
#include "geometry/box.h"
#include "trace.h"
#include "workload/tour.h"

namespace perfbench {

// Which public entry point a workload drives.
enum class Driver {
  kBuffered,   // one client::BufferedClient per tour
  kStreaming,  // one client::StreamingClient per tour
  kFleet,      // fleet::FleetEngine::Run over every client spec
};

// Every thread a run may start, counted against nproc. common::ThreadPool
// counts its caller: the benchmark's own thread is one of the fleet
// workers and of the fan-out workers, and the warmer's coordinator thread
// is one of its I/O workers.
struct ThreadBudget {
  int32_t nproc = 1;
  int32_t fleet_workers = 1;   // FleetOptions::workers
  int32_t fanout_workers = 1;  // System::Config::fanout_workers
  int32_t warm_workers = 0;    // StorageConfig::warm_workers (0: no warmer)
  int32_t total() const {
    return fleet_workers + (fanout_workers - 1) + warm_workers;
  }
};

// One scene of a workload and the clients that tour it. A run covers
// several scenes: how much data lies near the tours differs a lot from one
// generated city to the next, and averaging over scenes keeps a run's
// figures close to those of any other seed.
struct Part {
  uint64_t seed = 0;  // this part's stream of the workload seed
  mars::core::System::Config config;
  // Single-client workloads: one tour per entry; the space is filled in
  // from the System (FromDatabase widens it to the data's extent).
  std::vector<mars::workload::TourOptions> tours;
  // Fleet workloads.
  std::vector<mars::fleet::ClientSpec> specs;
};

// The generated inputs of one workload: a function of (name, seed) only.
// The thread budget changes wall-clock time and nothing else.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  Driver driver = Driver::kBuffered;
  ThreadBudget threads;
  // The run mutates server state a second pass would inherit (rebalanced
  // shard map, warm pools), so every pass gets a System of its own.
  bool fresh_system_per_pass = false;
  std::vector<Part> parts;
  mars::client::BufferedClient::Options buffered;
  mars::client::StreamingClient::Options streaming;
  mars::fleet::FleetOptions fleet;
};

std::vector<std::string> WorkloadNames();

// Builds the named workload from the seed; nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     int32_t nproc);

// Re-seeds every tour of `part` (single-client tours, fleet clients) so
// the starts are stratified over the start region of `space`, the space of
// the System the part runs on.
void StratifyTours(const Workload& workload, const mars::geometry::Box2& space,
                   Part* part);

// A ready System plus what building it cost.
struct Setup {
  std::unique_ptr<mars::core::System> system;
  double scene_s = 0.0;  // workload::GenerateScene
  double build_s = 0.0;  // core::System::FromDatabase, page writes included
  int64_t page_writes = 0;
};

// Generates the part's scene and builds its System. Disk workloads write
// their page files under `page_dir`, which must exist and be empty.
Setup BuildSystem(const Part& part, const std::string& page_dir,
                  Tracer* tracer);

// The part's tours against `system`'s space: the single-client tours, or
// each fleet client's tour as FleetEngine generates it (no client of a
// measured pass is a co-moving group member).
std::vector<std::vector<mars::workload::TourPoint>> PartTours(
    const Workload& workload, const Part& part,
    const mars::core::System& system);

// Sum of every shard pool's counters (all zero in memory mode).
mars::storage::PoolStats SumPools(const mars::core::System& system);

// Outcome of one pass over one part.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Merge of every client's metrics; its response_histogram holds one
  // sample per demand exchange.
  mars::core::RunMetrics metrics;
  int64_t wire_bytes = 0;  // demand + prefetch, or bytes charged to cells
  int64_t records = 0;     // coefficient records delivered
  // Buffered clients: blocks fetched on demand (needed minus buffer hits).
  int64_t demand_blocks = 0;
  std::optional<mars::fleet::FleetResult> fleet;
  mars::storage::PoolStats pool_before;
  mars::storage::PoolStats pool_after;
  int64_t rebalance_ops = 0;
  // Single-client drivers: per-tour metrics, for the System::Run* check.
  std::vector<mars::core::RunMetrics> per_tour;
  // FNV-1a over the deterministic outputs. Pool counters are left out:
  // they depend on when warm reads land.
  uint64_t digest = 0;
};

// Runs every client of `part` once on `system`. With the tracer on, each
// client step (or FleetEngine::Run) is a span.
Pass RunPass(const Workload& workload, const Part& part,
             mars::core::System* system,
             const std::vector<std::vector<mars::workload::TourPoint>>& tours,
             Tracer* tracer);

// Fleet workloads, traced runs: the part's clients paired into co-moving
// groups and run over four cells with admission control, coalescing and
// the adaptive resolution ladder, cell `part_index % 4` dying for 15 s
// mid-run. This measures the shared-state, network and QoS layers, which
// the measured passes leave off (see README.md).
mars::fleet::FleetResult RunSharedStatePass(const Workload& workload,
                                            const Part& part,
                                            size_t part_index,
                                            const mars::core::System& system,
                                            Tracer* tracer);

// The tour through System::RunBuffered / RunStreaming, for comparison with
// the benchmark's own frame loop.
mars::core::RunMetrics RunThroughSystem(
    const Workload& workload, const Part& part, mars::core::System* system,
    size_t tour_index, const std::vector<mars::workload::TourPoint>& tour);

}  // namespace perfbench

#endif  // MARS_PERFBENCH_WORKLOADS_H_
