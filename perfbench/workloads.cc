#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "net/fault.h"
#include "net/link.h"
#include "server/server.h"
#include "storage/storage_manager.h"
#include "workload/scene.h"

namespace perfbench {

namespace {

using mars::fleet::ClientKind;
using mars::workload::TourKind;

// Scenes per run: each is also one set-up sample.
constexpr int32_t kParts = 6;

// The paper's query frame for the response-time figures (Figs. 14/15):
// 5% of the space per side.
constexpr double kQueryFraction = 0.05;

// SplitMix64 finalizer: every input of a run is a distinct stream of the
// workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Seed for trajectory `index` of `count` whose first point falls in
// stratum `index` of a grid over the region GenerateTour starts in (the
// central 60% of the space). Rejection over a seed stream keeps every tour
// a plain GenerateTour output; the grid only spreads the starts evenly.
uint64_t StratifiedTourSeed(mars::workload::TourOptions tour,
                            const mars::geometry::Box2& space, uint64_t seed,
                            int32_t index, int32_t count) {
  int32_t g = 1;
  while ((g + 1) * (g + 1) <= count) ++g;
  const int32_t cells = g * g;
  // Cells in a seeded order (7919 is prime, so this is a permutation), so
  // neighbouring indices, which share a tour kind or speed, land apart.
  const int32_t cell = static_cast<int32_t>(
      (static_cast<uint64_t>(index % cells) * 7919 + Mix(seed, 17)) % cells);
  const double w = space.Extent(0) * 0.6 / g;
  const double h = space.Extent(1) * 0.6 / g;
  const double x0 = space.lo(0) + space.Extent(0) * 0.2 + w * (cell % g);
  const double y0 = space.lo(1) + space.Extent(1) * 0.2 + h * (cell / g);
  tour.space = space;
  tour.frames = 1;
  for (uint64_t attempt = 0;; ++attempt) {
    tour.seed = Mix(seed, (static_cast<uint64_t>(index) << 32) + attempt);
    const mars::geometry::Vec2 p =
        mars::workload::GenerateTour(tour).front().position;
    if (p.x >= x0 && p.x < x0 + w && p.y >= y0 && p.y < y0 + h) {
      return tour.seed;
    }
  }
}

// The paper's tours: tram and pedestrian routes alternating, cycling
// through the evaluation's normalized speed ladder.
std::vector<mars::workload::TourOptions> PaperTours(int32_t count,
                                                    int32_t frames) {
  const std::vector<double> speeds = mars::core::StandardSpeeds();
  std::vector<mars::workload::TourOptions> tours;
  for (int32_t i = 0; i < count; ++i) {
    mars::workload::TourOptions tour;
    tour.kind = i % 2 == 0 ? TourKind::kTram : TourKind::kPedestrian;
    tour.target_speed = speeds[static_cast<size_t>(i / 2) % speeds.size()];
    tour.frames = frames;
    tours.push_back(tour);
  }
  return tours;
}

// Fleet members use the upper half of the speed ladder, so every client
// keeps moving into new territory.
double FleetSpeed(int32_t index) {
  static constexpr double kSpeeds[] = {0.25, 0.5, 0.75, 1.0};
  return kSpeeds[index % 4];
}

// Streaming fleet clients, each on its own trajectory.
std::vector<mars::fleet::ClientSpec> StreamingFleet(uint64_t seed,
                                                    int32_t clients,
                                                    int32_t frames) {
  std::vector<mars::fleet::ClientSpec> specs;
  for (int32_t i = 0; i < clients; ++i) {
    mars::fleet::ClientSpec spec;
    spec.id = i;
    spec.kind = ClientKind::kStreaming;
    spec.tour_kind = i % 2 == 0 ? TourKind::kTram : TourKind::kPedestrian;
    spec.speed = FleetSpeed(i / 2);
    spec.frames = frames;
    spec.seed = Mix(seed, 7000 + static_cast<uint64_t>(i));
    spec.query_fraction = kQueryFraction;
    spec.start_offset_seconds = 0.25 * static_cast<double>(i % 4);
    specs.push_back(spec);
  }
  return specs;
}

void PaperBuffered(Workload* w) {
  w->driver = Driver::kBuffered;
  w->buffered.query_fraction = kQueryFraction;
  w->buffered.buffer_bytes = 64 * 1024;
  for (Part& part : w->parts) part.tours = PaperTours(24, 150);
}

void PaperStreaming(Workload* w) {
  w->driver = Driver::kStreaming;
  w->streaming.query_fraction = kQueryFraction;
  // A streaming frame costs ~1/80 of a buffered one: more tours per scene.
  for (Part& part : w->parts) part.tours = PaperTours(160, 150);
}

// The fleet: a disk store behind motion-evicting, warmed buffer pools
// with load-adaptive rebalancing, serving streaming clients on one cell.
// One fleet worker and the warm coordinator, which does its own reads: a
// second worker made the run no faster (the fleet's serial phase holds
// most of the time) and its times spread more on a shared host.
void DiskMotion(Workload* w) {
  w->driver = Driver::kFleet;
  w->fresh_system_per_pass = true;
  w->threads.fleet_workers = 1;
  w->threads.warm_workers = 1;
  w->fleet.workers = w->threads.fleet_workers;
  for (Part& part : w->parts) {
    part.config.scene.placement = mars::workload::Placement::kZipf;
    part.config.shards = 8;
    part.config.storage.store = mars::storage::StoreKind::kDisk;
    part.config.storage.pool_pages = 512;
    part.config.storage.evict = mars::storage::EvictPolicy::kMotion;
    part.config.storage.warm = true;
    part.config.storage.warm_workers = w->threads.warm_workers;
    part.config.rebalance.enabled = true;
    part.specs = StreamingFleet(part.seed, 128, 30);
  }
}

void HashBytes(uint64_t* h, const std::string& text) {
  *h = mars::storage::Fnv1a64(
      reinterpret_cast<const uint8_t*>(text.data()), text.size(), *h);
}

void HashInt(uint64_t* h, int64_t value) {
  *h = mars::storage::Fnv1a64Mix(static_cast<uint64_t>(value), *h);
}

void HashHistogram(uint64_t* h, const mars::core::LatencyHistogram& hist) {
  for (int64_t count : hist.counts) HashInt(h, count);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// The per-frame server hooks, in System::Run*'s order: warm join first,
// then motion interest, the rebalancer tick, and warm dispatch last.
void ServerFramePrologue(mars::server::Server* server,
                         const mars::geometry::Vec2& position) {
  if (server->pool_warming_enabled()) server->WarmPoolsJoin();
  if (server->motion_interest_enabled()) {
    server->ObserveClientMotion(0, position);
    server->RefreshPoolInterest();
  }
  if (server->rebalance_enabled()) server->TickRebalancer();
  if (server->pool_warming_enabled()) server->WarmPoolsDispatch();
}

mars::client::BufferedClient::Options BufferedOptions(const Workload& w,
                                                      const Part& part,
                                                      size_t tour_index) {
  mars::client::BufferedClient::Options options = w.buffered;
  options.seed = Mix(part.tours[tour_index].seed, 2);
  return options;
}

// One client over one tour, mirroring System::RunBuffered / RunStreaming
// field for field, plus what those leave out: the response histogram and
// the buffered client's delivered records.
mars::core::RunMetrics RunTour(
    const Workload& w, const Part& part, mars::core::System* system,
    size_t tour_index, const std::vector<mars::workload::TourPoint>& tour,
    int64_t* frame_id, Pass* pass, Tracer* tracer) {
  mars::server::Server* server = system->mutable_server();
  mars::net::SimulatedLink link(system->config().link);
  mars::net::FaultSchedule fault(system->config().fault);
  if (fault.enabled()) link.AttachFaultSchedule(&fault);
  mars::core::RunMetrics m;
  if (w.driver == Driver::kBuffered) {
    mars::client::BufferedClient cl(BufferedOptions(w, part, tour_index),
                                    system->space(), server, &link);
    for (const mars::workload::TourPoint& point : tour) {
      ServerFramePrologue(server, point.position);
      mars::client::BufferedFrameReport report;
      {
        ScopedSpan span(tracer, "client.step", (*frame_id)++);
        report = cl.Step(point.position, point.speed);
      }
      m.demand_bytes += report.demand_bytes;
      m.prefetch_bytes += report.prefetch_bytes;
      m.node_accesses += report.node_accesses;
      m.total_response_seconds += report.response_seconds;
      if (report.response_seconds > 0.0) {
        ++m.demand_exchanges;
        m.response_histogram.Add(report.response_seconds);
      }
      m.retries += report.retries;
      m.timeouts += report.timeouts;
      ++m.frames;
      pass->records += static_cast<int64_t>(report.records.size());
      pass->demand_blocks += report.blocks_needed - report.block_hits;
    }
    if (server->pool_warming_enabled()) server->WarmPoolsJoin();
    m.cache_hit_rate = cl.buffer_stats().HitRate();
    m.data_utilization = cl.buffer_stats().Utilization();
    m.outage_frames = cl.outage_frames();
    m.stale_frames = cl.stale_frames();
    m.max_stale_run_frames = cl.max_stale_run_frames();
  } else {
    mars::client::StreamingClient cl(w.streaming, system->space(), server,
                                     &link);
    int64_t stale_run = 0;
    for (const mars::workload::TourPoint& point : tour) {
      ServerFramePrologue(server, point.position);
      mars::client::StreamingFrameReport report;
      {
        ScopedSpan span(tracer, "client.step", (*frame_id)++);
        report = cl.Step(point.position, point.speed);
      }
      m.demand_bytes += report.response_bytes;
      m.node_accesses += report.node_accesses;
      m.records_delivered += report.new_records;
      m.total_response_seconds += report.response_seconds;
      if (report.response_seconds > 0.0) {
        ++m.demand_exchanges;
        m.response_histogram.Add(report.response_seconds);
      }
      m.retries += report.retries;
      if (!report.status.ok()) {
        ++m.timeouts;
        ++m.outage_frames;
        ++m.stale_frames;
        ++stale_run;
        m.max_stale_run_frames = std::max(m.max_stale_run_frames, stale_run);
      } else {
        stale_run = 0;
      }
      ++m.frames;
    }
    cl.FlushAck();
    if (server->pool_warming_enabled()) server->WarmPoolsJoin();
    pass->records += m.records_delivered;
  }
  m.tour_distance = mars::workload::TourDistance(tour);
  return m;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"paper_buffered", "paper_streaming", "disk_motion"};
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     int32_t nproc) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.threads.nproc = nproc;
  w.parts.resize(kParts);
  for (int32_t k = 0; k < kParts; ++k) {
    Part& part = w.parts[static_cast<size_t>(k)];
    part.seed = Mix(seed, 100 + static_cast<uint64_t>(k));
    part.config.scene.seed = Mix(part.seed, 1);
  }
  if (name == "paper_buffered") {
    PaperBuffered(&w);
  } else if (name == "paper_streaming") {
    PaperStreaming(&w);
  } else if (name == "disk_motion") {
    DiskMotion(&w);
  } else {
    return std::nullopt;
  }
  w.threads.fanout_workers = w.parts.front().config.fanout_workers;
  return w;
}

void StratifyTours(const Workload& w, const mars::geometry::Box2& space,
                   Part* part) {
  const int32_t tours = static_cast<int32_t>(part->tours.size());
  for (int32_t i = 0; i < tours; ++i) {
    mars::workload::TourOptions& tour = part->tours[static_cast<size_t>(i)];
    tour.seed = StratifiedTourSeed(tour, space, part->seed, i, tours);
  }
  const int32_t clients = static_cast<int32_t>(part->specs.size());
  for (int32_t i = 0; i < clients; ++i) {
    mars::fleet::ClientSpec& spec = part->specs[static_cast<size_t>(i)];
    mars::workload::TourOptions tour;
    tour.kind = spec.tour_kind;
    tour.target_speed = spec.speed;
    tour.frame_interval = w.fleet.frame_interval_seconds;
    spec.tour_seed = StratifiedTourSeed(tour, space, part->seed, i, clients);
  }
}

Setup BuildSystem(const Part& part, const std::string& page_dir,
                  Tracer* tracer) {
  mars::core::System::Config config = part.config;
  if (config.storage.store == mars::storage::StoreKind::kDisk) {
    config.storage.path = page_dir + "/index.pages";
  }
  // Objects go where tours start (GenerateTour starts in the central 60%
  // of the space), so every object is about as likely to be seen and a
  // run sees the same share of the data whatever the seed. The System
  // keeps the full space: windows and buffer blocks stay the paper's size.
  mars::workload::SceneOptions scene = config.scene;
  scene.space = mars::geometry::MakeBox2(
      scene.space.lo(0) + 0.2 * scene.space.Extent(0),
      scene.space.lo(1) + 0.2 * scene.space.Extent(1),
      scene.space.hi(0) - 0.2 * scene.space.Extent(0),
      scene.space.hi(1) - 0.2 * scene.space.Extent(1));
  Setup setup;
  const double t0 = NowSeconds();
  auto db = [&] {
    ScopedSpan span(tracer, "workload.scene");
    return mars::workload::GenerateScene(scene);
  }();
  if (!db.ok()) {
    std::fprintf(stderr, "perfbench: GenerateScene failed: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  const double t1 = NowSeconds();
  {
    ScopedSpan span(tracer, "index.build");
    setup.system =
        mars::core::System::FromDatabase(config, std::move(db).value());
  }
  setup.scene_s = t1 - t0;
  setup.build_s = NowSeconds() - t1;
  setup.page_writes = SumPools(*setup.system).disk_writes;
  return setup;
}

std::vector<std::vector<mars::workload::TourPoint>> PartTours(
    const Workload& w, const Part& part, const mars::core::System& system) {
  std::vector<std::vector<mars::workload::TourPoint>> tours;
  for (mars::workload::TourOptions options : part.tours) {
    options.space = system.space();
    tours.push_back(mars::workload::GenerateTour(options));
  }
  for (const mars::fleet::ClientSpec& spec : part.specs) {
    mars::workload::TourOptions tour;
    tour.kind = spec.tour_kind;
    tour.space = system.space();
    tour.target_speed = spec.speed;
    tour.frames = spec.frames;
    tour.frame_interval = w.fleet.frame_interval_seconds;
    tour.seed = spec.tour_seed;
    tours.push_back(mars::workload::GenerateTour(tour));
  }
  return tours;
}

mars::storage::PoolStats SumPools(const mars::core::System& system) {
  mars::storage::PoolStats total;
  for (const auto& shard : system.server().PoolStats()) {
    total.hits += shard.pool.hits;
    total.misses += shard.pool.misses;
    total.evictions += shard.pool.evictions;
    total.disk_reads += shard.pool.disk_reads;
    total.disk_writes += shard.pool.disk_writes;
    total.resident += shard.pool.resident;
    total.resident_pages += shard.pool.resident_pages;
    total.prefetch_issued += shard.pool.prefetch_issued;
    total.prefetch_hits += shard.pool.prefetch_hits;
    total.prefetch_wasted += shard.pool.prefetch_wasted;
    total.prefetch_dropped += shard.pool.prefetch_dropped;
  }
  return total;
}

Pass RunPass(const Workload& w, const Part& part, mars::core::System* system,
             const std::vector<std::vector<mars::workload::TourPoint>>& tours,
             Tracer* tracer) {
  Pass pass;
  pass.pool_before = SumPools(*system);
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  if (w.driver == Driver::kFleet) {
    mars::fleet::FleetEngine engine(*system, w.fleet, part.specs);
    {
      ScopedSpan span(tracer, "fleet.run");
      pass.fleet = engine.Run();
    }
    pass.metrics = pass.fleet->aggregate;
    pass.wire_bytes = pass.fleet->cell_bytes;
    pass.records = pass.fleet->aggregate.records_delivered;
  } else {
    int64_t frame_id = 0;
    for (size_t t = 0; t < tours.size(); ++t) {
      pass.per_tour.push_back(
          RunTour(w, part, system, t, tours[t], &frame_id, &pass, tracer));
      pass.metrics.Merge(pass.per_tour.back());
      pass.wire_bytes += pass.per_tour.back().total_bytes();
    }
  }
  pass.wall_s = NowSeconds() - t0;
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.pool_after = SumPools(*system);
  pass.rebalance_ops = system->server().rebalance_ops();

  uint64_t digest = mars::storage::kFnvOffset;
  for (const mars::core::RunMetrics& m : pass.per_tour) {
    HashBytes(&digest, mars::core::RunMetricsJson(m));
    HashHistogram(&digest, m.response_histogram);
  }
  HashBytes(&digest, mars::core::RunMetricsJson(pass.metrics));
  HashHistogram(&digest, pass.metrics.response_histogram);
  if (pass.fleet) {
    const mars::fleet::FleetResult& r = *pass.fleet;
    for (int64_t v :
         {r.cell_bytes, r.encode_calls, r.hot_hits, r.hot_misses,
          r.coalesce_hits, r.coalesce_attaches, r.coalesce_refused,
          r.admitted_exchanges, r.deferred_exchanges, r.shed_exchanges,
          r.peak_cell_backlog_bytes, r.handovers, r.failovers,
          r.reissued_transfers, r.abr_step_ups, r.abr_top_ups}) {
      HashInt(&digest, v);
    }
    for (const mars::fleet::ClientResult& c : r.clients) {
      HashInt(&digest, c.cell_bytes);
      HashInt(&digest, c.final_cell);
    }
  }
  HashInt(&digest, pass.rebalance_ops);
  pass.digest = digest;
  return pass;
}

mars::fleet::FleetResult RunSharedStatePass(const Workload& w,
                                            const Part& part,
                                            size_t part_index,
                                            const mars::core::System& system,
                                            Tracer* tracer) {
  mars::fleet::FleetOptions options = w.fleet;
  options.cells = 4;
  options.cell.discipline =
      mars::net::SharedMediumLink::Discipline::kWeightedFair;
  options.admission.enabled = true;
  options.coalesce.enabled = true;
  options.abr.enabled = true;
  options.cell_outages = {
      {static_cast<int32_t>(part_index % 4), 20.0, 15.0}};
  std::vector<mars::fleet::ClientSpec> specs = part.specs;
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].tour_seed = part.specs[i - i % 2].tour_seed;
    specs[i].group_member = static_cast<int32_t>(i % 2);
  }
  mars::fleet::FleetEngine engine(system, options, specs);
  ScopedSpan span(tracer, "fleet.run_shared");
  return engine.Run();
}

mars::core::RunMetrics RunThroughSystem(
    const Workload& w, const Part& part, mars::core::System* system,
    size_t tour_index, const std::vector<mars::workload::TourPoint>& tour) {
  if (w.driver == Driver::kBuffered) {
    return system->RunBuffered(tour, BufferedOptions(w, part, tour_index));
  }
  return system->RunStreaming(tour, w.streaming);
}

}  // namespace perfbench
