#ifndef MARS_CORE_SYSTEM_H_
#define MARS_CORE_SYSTEM_H_

#include <memory>
#include <vector>

#include "client/buffered_client.h"
#include "client/naive_client.h"
#include "client/streaming_client.h"
#include "common/statusor.h"
#include "core/frame_client.h"
#include "core/metrics.h"
#include "index/rtree.h"
#include "net/fault.h"
#include "net/link.h"
#include "server/server.h"
#include "storage/storage_manager.h"
#include "workload/scene.h"
#include "workload/tour.h"

namespace mars::core {

// One instantiated testbed: a generated scene, its server (with a chosen
// coefficient index), and a link model. Building the scene and the index
// is the expensive part, so a System is created once and then reused to
// run many tours with different client configurations — exactly how the
// paper's parameter sweeps are structured.
class System {
 public:
  struct Config {
    workload::SceneOptions scene;
    server::Server::IndexKind index_kind =
        server::Server::IndexKind::kSupportRegion;
    index::RTreeOptions rtree;
    // Ground-plane shard count of the server's coefficient index; the
    // default 1 is bit-identical to the historical single-tree server.
    int32_t shards = 1;
    // Worker budget for parallel per-shard query fan-out (1 = sequential).
    int32_t fanout_workers = 1;
    // Index node storage: memory passthrough (default, bit-identical to
    // the historical build) or page-based disk storage behind motion- or
    // LRU-evicting buffer pools.
    storage::StorageConfig storage;
    // Load-adaptive shard rebalancing. Disabled (the default) is a
    // strict bit-identical passthrough; enabled, every frame's
    // Server::Tick() ticks the rebalancer.
    server::RebalanceOptions rebalance;
    net::SimulatedLink::Options link;
    // Deterministic outage/burst/dip schedule. All-zero rates (the
    // default) disable the fault layer entirely; each Run* call then
    // behaves bit-identically to a fault-free build.
    net::FaultSchedule::Options fault;
  };

  // Generates the scene and builds the indexes.
  static common::StatusOr<std::unique_ptr<System>> Create(
      const Config& config);

  // Builds a system around an existing (e.g. persisted and re-loaded)
  // database; config.scene is only consulted for the space bounds, which
  // are overridden by the database's actual extent when it is larger.
  static std::unique_ptr<System> FromDatabase(const Config& config,
                                              server::ObjectDatabase db);

  // Pure motion-aware incremental retrieval (Sec. IV), no buffer: the
  // Figs. 8/9 and 12/13 configuration.
  RunMetrics RunStreaming(const std::vector<workload::TourPoint>& tour,
                          const client::StreamingClient::Options& options);

  // Full motion-aware system: multiresolution retrieval + motion-aware
  // (or naive, per options) buffer management. Figs. 10/11/14/15.
  RunMetrics RunBuffered(const std::vector<workload::TourPoint>& tour,
                         const client::BufferedClient::Options& options);

  // Fully naive baseline: full-resolution objects + LRU (Sec. VII-E).
  RunMetrics RunNaiveObject(const std::vector<workload::TourPoint>& tour,
                            const client::NaiveObjectClient::Options& options);

  const server::Server& server() const { return *server_; }
  // For callers that drive their own clients and frame loop over this
  // system's server; its non-const calls belong in serial phases.
  server::Server* mutable_server() { return server_.get(); }
  const server::ObjectDatabase& db() const { return *db_; }
  const geometry::Box2& space() const { return config_.scene.space; }
  const Config& config() const { return config_; }

 private:
  System(const Config& config,
         std::unique_ptr<server::ObjectDatabase> db);

  // The single-client frame loop behind every Run* call: per frame, the
  // client's position feeds the server's motion predictor, Server::Tick()
  // runs, then the client steps on its private link, whose measured delay
  // is the frame's response time.
  RunMetrics Run(const std::vector<workload::TourPoint>& tour,
                 const FrameClient::Options& options);

  Config config_;
  std::unique_ptr<server::ObjectDatabase> db_;
  std::unique_ptr<server::Server> server_;
};

}  // namespace mars::core

#endif  // MARS_CORE_SYSTEM_H_
