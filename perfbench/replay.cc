#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "buffer/prefetcher.h"
#include "client/continuous.h"
#include "client/viewport.h"
#include "common/rng.h"
#include "geometry/grid.h"
#include "index/shard_map.h"
#include "index/sharded_index.h"
#include "motion/predictor.h"
#include "net/link.h"
#include "server/motion_interest.h"
#include "server/server.h"
#include "server/wire_codec.h"

namespace perfbench {

namespace {

// The window and resolution band a streaming client asks for at `point`.
struct Frame {
  mars::geometry::Box2 window;
  double w_min = 0.0;
};

Frame StreamingFrame(const Workload& w, const mars::core::System& system,
                     const mars::workload::TourPoint& point) {
  const mars::client::Viewport viewport(system.space(),
                                        w.streaming.query_fraction,
                                        w.streaming.query_fraction);
  return {viewport.WindowAt(point.position),
          w.streaming.speed_map.MapSpeedToResolution(point.speed)};
}

// Algorithm 1's sub-queries for every frame of `tour`, as a streaming
// client on a loss-free link plans them.
std::vector<std::vector<mars::server::SubQuery>> PlanTour(
    const Workload& w, const mars::core::System& system,
    const std::vector<mars::workload::TourPoint>& tour, Tracer* tracer) {
  std::vector<std::vector<mars::server::SubQuery>> plans;
  std::optional<mars::geometry::Box2> prev;
  double prev_w = 0.0;
  for (const mars::workload::TourPoint& point : tour) {
    const Frame frame = StreamingFrame(w, system, point);
    ScopedSpan span(tracer, "client.plan");
    plans.push_back(mars::client::PlanContinuousRetrieval(
        frame.window, frame.w_min, prev, prev_w));
    prev = frame.window;
    prev_w = frame.w_min;
  }
  return plans;
}

// Every `stride`-th tour's first frames, as the index sees them.
std::vector<mars::server::SubQuery> SampleQueries(
    const Workload& w, const mars::core::System& system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours) {
  constexpr size_t kWanted = 48;
  constexpr size_t kFramesPerTour = 6;
  std::vector<mars::server::SubQuery> sample;
  const size_t stride = std::max<size_t>(1, tours.size() / 8);
  for (size_t t = 0; t < tours.size() && sample.size() < kWanted;
       t += stride) {
    std::vector<mars::workload::TourPoint> head(
        tours[t].begin(),
        tours[t].begin() + std::min(kFramesPerTour, tours[t].size()));
    Tracer off(false);
    for (const auto& plan : PlanTour(w, system, head, &off)) {
      for (const mars::server::SubQuery& q : plan) {
        if (sample.size() < kWanted) sample.push_back(q);
      }
    }
  }
  return sample;
}

std::string Describe(const char* what, const mars::server::SubQuery& q) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s for window [%.1f,%.1f]x[%.1f,%.1f] band [%.4f,%.4f]", what,
                q.region.lo(0), q.region.hi(0), q.region.lo(1),
                q.region.hi(1), q.w_min, q.w_max);
  return buf;
}

}  // namespace

ReplayCounts Replay(const Workload& w, const mars::core::System& system,
                    const std::vector<std::vector<mars::workload::TourPoint>>&
                        tours,
                    int64_t plan_frames, int32_t plan_budget,
                    const std::vector<int64_t>& client_records,
                    Tracer* tracer) {
  ReplayCounts counts;
  const mars::server::Server& server = system.server();
  const mars::index::ShardedCoefficientIndex& index = server.sharded_index();

  // Motion prediction and prefetch planning, as BufferedClient::Step calls
  // them: a fresh predictor per tour, a plan every frame.
  const mars::client::BufferedClient::Options& bo = w.buffered;
  const mars::geometry::GridPartition grid(system.space(), bo.grid_nx,
                                           bo.grid_ny);
  mars::buffer::MotionAwarePrefetcher::Options po = bo.prefetch;
  po.probability.frame_half_width =
      system.space().Extent(0) * bo.query_fraction / 2.0;
  po.probability.frame_half_height =
      system.space().Extent(1) * bo.query_fraction / 2.0;
  const mars::buffer::MotionAwarePrefetcher prefetcher(po);
  for (size_t t = 0; t < tours.size() && counts.plan_frames < plan_frames;
       ++t) {
    mars::motion::MotionPredictor predictor;
    mars::common::Rng rng(t + 1);
    for (const mars::workload::TourPoint& point : tours[t]) {
      {
        ScopedSpan span(tracer, "motion.observe");
        predictor.Observe(point.position);
      }
      const double w_t = bo.speed_map.MapSpeedToResolution(point.speed);
      ScopedSpan span(tracer, "buffer.plan");
      prefetcher.Plan(predictor, grid, point.position, w_t, plan_budget, rng);
      ++counts.plan_frames;
    }
  }

  // The streaming retrieval path: plan, execute, index, encode.
  int64_t frame_id = 0;
  for (size_t t = 0; t < tours.size(); ++t) {
    const auto plans = PlanTour(w, system, tours[t], tracer);
    mars::server::ClientSession session;
    int64_t tour_records = 0;
    for (const auto& plan : plans) {
      const int64_t id = frame_id++;
      mars::server::QueryResult result;
      {
        ScopedSpan span(tracer, "server.execute", id);
        result = server.Execute(plan, &session);
      }
      mars::server::AckPending(&session);
      for (const mars::server::SubQuery& q : plan) {
        std::vector<mars::index::RecordId> out;
        mars::index::ShardedCoefficientIndex::FanoutProfile profile;
        int64_t accesses = 0;
        {
          ScopedSpan span(tracer, "index.query", id);
          accesses =
              index.QueryProfiled(q.region, q.w_min, q.w_max, &out, &profile);
        }
        ++counts.queries;
        counts.node_accesses += accesses;
        counts.shards_touched += profile.shards_touched;
        counts.max_shard_accesses.push_back(
            static_cast<double>(profile.max_shard_accesses));
      }
      {
        ScopedSpan span(tracer, "server.encode", id);
        mars::server::EncodeRecords(server.db(), result.records);
      }
      counts.delivered += static_cast<int64_t>(result.records.size());
      counts.filtered += result.filtered_duplicates;
      tour_records += static_cast<int64_t>(result.records.size());
      ++counts.frames;
    }
    if (t < client_records.size() && client_records[t] != tour_records) {
      ++counts.client_mismatches;
    }
  }

  // Server-side motion interest with every tour as one client, a tick per
  // frame, as the fleet's serial phase drives it.
  mars::server::MotionInterestTracker tracker(
      mars::index::ShardMap::GroundBounds(server.db().records()),
      mars::server::MotionInterestTracker::Options());
  size_t ticks = 0;
  for (const auto& tour : tours) ticks = std::max(ticks, tour.size());
  for (size_t tick = 0; tick < ticks; ++tick) {
    {
      ScopedSpan span(tracer, "server.interest_observe",
                      static_cast<int64_t>(tick));
      for (size_t c = 0; c < tours.size(); ++c) {
        if (tick < tours[c].size()) {
          tracker.Observe(static_cast<int32_t>(c), tours[c][tick].position);
        }
      }
    }
    ScopedSpan span(tracer, "server.interest_snapshot",
                    static_cast<int64_t>(tick));
    tracker.Snapshot();
  }
  return counts;
}

void ReplayStreamingSteps(
    const Workload& w, mars::core::System* system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours,
    Tracer* tracer) {
  int64_t frame_id = 0;
  for (const auto& tour : tours) {
    mars::net::SimulatedLink link(system->config().link);
    mars::client::StreamingClient cl(w.streaming, system->space(),
                                     system->mutable_server(), &link);
    for (const mars::workload::TourPoint& point : tour) {
      ScopedSpan span(tracer, "client.step", frame_id++);
      cl.Step(point.position, point.speed);
    }
  }
}

std::string CheckQueriesAgainstScan(
    const Workload& w, const mars::core::System& system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours) {
  const auto& records = system.db().records();
  const auto sample = SampleQueries(w, system, tours);
  if (sample.empty()) return "no queries sampled";
  for (const mars::server::SubQuery& q : sample) {
    std::vector<mars::index::RecordId> got;
    system.server().sharded_index().Query(q.region, q.w_min, q.w_max, &got);
    std::sort(got.begin(), got.end());
    std::vector<mars::index::RecordId> want;
    for (size_t i = 0; i < records.size(); ++i) {
      const mars::index::CoeffRecord& r = records[i];
      if (r.w < q.w_min || r.w > q.w_max) continue;
      const mars::geometry::Box2 support(
          {r.support_bounds.lo(0), r.support_bounds.lo(1)},
          {r.support_bounds.hi(0), r.support_bounds.hi(1)});
      if (support.Intersects(q.region)) {
        want.push_back(static_cast<mars::index::RecordId>(i));
      }
    }
    if (got != want) return Describe("index differs from a scan", q);
  }
  return "";
}

std::string CheckDiskAgainstMemory(
    const Workload& w, const mars::core::System& system,
    const std::vector<std::vector<mars::workload::TourPoint>>& tours) {
  const mars::core::System::Config& config = system.config();
  mars::index::ShardedIndexOptions options;
  options.shards = config.shards;
  options.rtree = config.rtree;
  mars::index::ShardedCoefficientIndex memory(options);
  memory.Build(system.db().records());
  const auto& disk = system.server().sharded_index();
  if (!disk.disk_store()) return "the System is not disk-backed";
  for (const mars::server::SubQuery& q : SampleQueries(w, system, tours)) {
    std::vector<mars::index::RecordId> from_disk, from_memory;
    const int64_t disk_io = disk.Query(q.region, q.w_min, q.w_max, &from_disk);
    const int64_t memory_io =
        memory.Query(q.region, q.w_min, q.w_max, &from_memory);
    if (from_disk != from_memory) {
      return Describe("disk records differ from memory", q);
    }
    if (disk_io != memory_io) {
      return Describe("disk node accesses differ from memory", q);
    }
  }
  return "";
}

}  // namespace perfbench
