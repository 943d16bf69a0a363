#include "core/system.h"

#include <utility>

namespace mars::core {

common::StatusOr<std::unique_ptr<System>> System::Create(
    const Config& config) {
  auto scene = workload::GenerateScene(config.scene);
  if (!scene.ok()) return scene.status();
  auto db = std::make_unique<server::ObjectDatabase>(
      std::move(scene).value());
  return std::unique_ptr<System>(new System(config, std::move(db)));
}

std::unique_ptr<System> System::FromDatabase(const Config& config,
                                             server::ObjectDatabase db) {
  auto owned = std::make_unique<server::ObjectDatabase>(std::move(db));
  Config adjusted = config;
  // Make sure the configured space covers the data.
  geometry::Box2 extent = adjusted.scene.space;
  for (const geometry::Box3& b : owned->object_bounds()) {
    extent.Extend(geometry::Box2({b.lo(0), b.lo(1)}, {b.hi(0), b.hi(1)}));
  }
  adjusted.scene.space = extent;
  return std::unique_ptr<System>(new System(adjusted, std::move(owned)));
}

System::System(const Config& config,
               std::unique_ptr<server::ObjectDatabase> db)
    : config_(config), db_(std::move(db)) {
  server::Server::Options options;
  options.kind = config.index_kind;
  options.rtree = config.rtree;
  options.shards = config.shards;
  options.fanout_workers = config.fanout_workers;
  options.storage = config.storage;
  options.rebalance = config.rebalance;
  server_ = std::make_unique<server::Server>(db_.get(), options);
}

RunMetrics System::RunStreaming(
    const std::vector<workload::TourPoint>& tour,
    const client::StreamingClient::Options& options) {
  return Run(tour, options);
}

RunMetrics System::RunBuffered(
    const std::vector<workload::TourPoint>& tour,
    const client::BufferedClient::Options& options) {
  return Run(tour, options);
}

RunMetrics System::RunNaiveObject(
    const std::vector<workload::TourPoint>& tour,
    const client::NaiveObjectClient::Options& options) {
  return Run(tour, options);
}

RunMetrics System::Run(const std::vector<workload::TourPoint>& tour,
                       const FrameClient::Options& options) {
  net::SimulatedLink link(config_.link);
  net::FaultSchedule fault(config_.fault);
  if (fault.enabled()) link.AttachFaultSchedule(&fault);
  FrameClient cl(options, space(), server_.get(), &link);
  RunMetrics metrics;
  for (const workload::TourPoint& point : tour) {
    server_->ObserveClientMotion(0, point.position);
    server_->Tick();
    const Frame frame = cl.Step(point.position, point.speed, &metrics);
    metrics.total_response_seconds += frame.response_seconds;
    if (frame.response_seconds > 0.0) ++metrics.demand_exchanges;
  }
  cl.Finish(&metrics);
  // Settle the trailing speculative batch so post-run pool stats are
  // stable (and deterministic) whenever the caller prints them.
  server_->WarmPoolsJoin();
  metrics.tour_distance = workload::TourDistance(tour);
  return metrics;
}

}  // namespace mars::core
