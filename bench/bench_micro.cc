// Microbenchmarks (google-benchmark) for the hot building blocks: R*-tree
// insert/query/STR bulk load at the experimental node parameters, scene
// set-up (1:4 subdivision, wavelet analysis, a 30-object scene) and wavelet
// synthesis, window-difference decomposition, Kalman/RLS
// prediction, the Eq.-2 buffer allocator, the motion-prediction layers
// that dominate a buffered client's frame and the server's interest
// refresh (predicted paths, block probabilities, sector assignment,
// prefetch plans, interest snapshots), the disk fleet's hot path (the
// wire encoding of a response, the pool's prefetch-candidate scan, the
// page checksum, a shard's directory fingerprint, a page file's
// store/load/erase and paged-tree queries through warm and cold pools),
// and the shared cell's per-tick work (a WFQ Advance over a backlogged
// fleet and the coalescing table's probe). These are not paper figures;
// they document the substrate costs behind the figure benches.

#include <unistd.h>

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "buffer/prefetcher.h"
#include "buffer/sector_allocator.h"
#include "client/continuous.h"
#include "common/rng.h"
#include "geometry/grid.h"
#include "geometry/rect_diff.h"
#include "index/access.h"
#include "index/rtree.h"
#include "index/sharded_index.h"
#include "mesh/primitives.h"
#include "mesh/subdivide.h"
#include "motion/grid_probability.h"
#include "motion/kalman.h"
#include "motion/predictor.h"
#include "motion/sectors.h"
#include "net/shared_link.h"
#include "server/inflight_table.h"
#include "server/motion_interest.h"
#include "server/wire_codec.h"
#include "storage/buffer_pool.h"
#include "storage/disk_storage.h"
#include "storage/memory_storage.h"
#include "wavelet/decompose.h"
#include "wavelet/reconstruct.h"
#include "workload/scene.h"

namespace mars {
namespace {

geometry::Box3 RandomBox3(common::Rng& rng) {
  const double x = rng.Uniform(0, 10000), y = rng.Uniform(0, 10000);
  const double w = rng.UniformDouble();
  return geometry::Box3({x, y, w}, {x + rng.Uniform(1, 40),
                                    y + rng.Uniform(1, 40), w});
}

void BM_RTreeInsert(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    index::RTree3 tree;
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(RandomBox3(rng), i);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

void BM_RTreeWindowQuery(benchmark::State& state) {
  common::Rng rng(2);
  index::RTree3 tree;
  for (int64_t i = 0; i < state.range(0); ++i) {
    tree.Insert(RandomBox3(rng), i);
  }
  std::vector<int64_t> out;
  for (auto _ : state) {
    out.clear();
    const double x = rng.Uniform(0, 9000), y = rng.Uniform(0, 9000);
    tree.Query(geometry::Box3({x, y, 0.5}, {x + 1000, y + 1000, 1.0}), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeWindowQuery)->Arg(10000)->Arg(100000);

// Sort-Tile-Recursive bulk load, the build every index shard and every
// rebalancer split runs (copying the input is not timed).
void BM_StrBulkLoad(benchmark::State& state) {
  common::Rng rng(3);
  std::vector<index::RTree3::Entry> entries;
  for (int64_t i = 0; i < state.range(0); ++i) {
    entries.push_back({RandomBox3(rng), i});
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<index::RTree3::Entry> input = entries;
    state.ResumeTiming();
    auto tree = index::RTree3::BulkLoad(std::move(input));
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrBulkLoad)->Arg(10000)->Arg(100000);

// Four 1:4 subdivisions of the building base mesh (14 faces to 3,584): the
// scene generator makes eight per object, four to displace and four that
// the analysis re-derives.
void BM_Subdivide(benchmark::State& state) {
  const mesh::Mesh base = mesh::MakeBuilding(30, 40, 20, 6);
  for (auto _ : state) {
    mesh::Mesh m = base;
    for (int j = 0; j < 4; ++j) m = mesh::Subdivide(m).mesh;
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_Subdivide);

void BM_WaveletDecompose(benchmark::State& state) {
  const int levels = static_cast<int>(state.range(0));
  const mesh::Mesh base = mesh::MakeBuilding(30, 40, 20, 6);
  common::Rng rng(4);
  mesh::Mesh fine = base;
  for (int j = 0; j < levels; ++j) {
    mesh::Subdivision sub = mesh::Subdivide(fine);
    for (const mesh::OddVertex& odd : sub.odd_vertices) {
      sub.mesh.mutable_vertex(odd.vertex) +=
          geometry::Vec3{rng.Normal(), rng.Normal(), rng.Normal()} * 0.3;
    }
    fine = std::move(sub.mesh);
  }
  for (auto _ : state) {
    auto mr = wavelet::Decompose(fine, base, levels);
    benchmark::DoNotOptimize(mr);
  }
}
BENCHMARK(BM_WaveletDecompose)->Arg(2)->Arg(4);

// A whole 30-object scene at the default four levels: buildings,
// displacement, analysis and the record table (perfbench's workload.scene_s
// generates 300).
void BM_GenerateScene(benchmark::State& state) {
  workload::SceneOptions options;
  options.object_count = 30;
  for (auto _ : state) {
    auto db = workload::GenerateScene(options);
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_GenerateScene)->Unit(benchmark::kMillisecond);

void BM_WaveletReconstruct(benchmark::State& state) {
  const int levels = 4;
  const mesh::Mesh base = mesh::MakeBuilding(30, 40, 20, 6);
  common::Rng rng(5);
  mesh::Mesh fine = base;
  for (int j = 0; j < levels; ++j) {
    mesh::Subdivision sub = mesh::Subdivide(fine);
    for (const mesh::OddVertex& odd : sub.odd_vertices) {
      sub.mesh.mutable_vertex(odd.vertex) +=
          geometry::Vec3{rng.Normal(), rng.Normal(), rng.Normal()} * 0.3;
    }
    fine = std::move(sub.mesh);
  }
  auto mr = wavelet::Decompose(fine, base, levels);
  const double w_min = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto mesh = wavelet::Reconstruct(*mr, w_min);
    benchmark::DoNotOptimize(mesh);
  }
}
BENCHMARK(BM_WaveletReconstruct)->Arg(0)->Arg(50)->Arg(100);

void BM_WindowDifference(benchmark::State& state) {
  common::Rng rng(6);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    const auto a = geometry::MakeBox2(x, y, x + 50, y + 50);
    const auto b = geometry::MakeBox2(x + 5, y + 7, x + 55, y + 57);
    auto pieces = geometry::Difference(a, b);
    benchmark::DoNotOptimize(pieces);
  }
}
BENCHMARK(BM_WindowDifference);

void BM_ContinuousPlan(benchmark::State& state) {
  common::Rng rng(7);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    const auto prev = geometry::MakeBox2(x, y, x + 50, y + 50);
    const auto cur = geometry::MakeBox2(x + 3, y + 2, x + 53, y + 52);
    auto plan = client::PlanContinuousRetrieval(cur, 0.3, prev, 0.6);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ContinuousPlan);

void BM_PredictorObserve(benchmark::State& state) {
  motion::MotionPredictor predictor;
  common::Rng rng(8);
  double x = 0, y = 0;
  for (auto _ : state) {
    x += rng.Uniform(4, 6);
    y += rng.Uniform(-1, 1);
    predictor.Observe({x, y});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorObserve);

void BM_PredictorPredict(benchmark::State& state) {
  motion::MotionPredictor predictor;
  for (int t = 0; t < 100; ++t) {
    predictor.Observe({5.0 * t, 2.0 * t});
  }
  for (auto _ : state) {
    auto p = predictor.Predict(static_cast<int32_t>(state.range(0)));
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PredictorPredict)->Arg(1)->Arg(8)->Arg(16);

// --- Motion prediction ------------------------------------------------------
//
// The client's geometry in the perfbench paper_buffered workload: a 10 km
// space, a 40 × 40 block grid and a 5% query frame.

const geometry::Box2 kMotionSpace = geometry::MakeBox2(0, 0, 10000, 10000);

// Feeds `predictor` 100 positions of a tram-like drive (20 m per step,
// heading drifting slowly) and returns the last one.
geometry::Vec2 WarmUp(motion::PositionPredictor& predictor) {
  common::Rng rng(9);
  geometry::Vec2 position{3000, 3000};
  double heading = 0.3;
  for (int t = 0; t < 100; ++t) {
    heading += rng.Normal(0, 0.05);
    position += geometry::Vec2{std::cos(heading), std::sin(heading)} * 20.0;
    predictor.Observe(position);
  }
  return position;
}

// 0 = RLS-learned dynamics (the paper's), 1 = Kalman filter.
std::unique_ptr<motion::PositionPredictor> MakePredictor(int64_t kalman) {
  if (kalman != 0) return std::make_unique<motion::KalmanFilterPredictor>();
  return std::make_unique<motion::MotionPredictor>();
}

// Args: predictor (MakePredictor's), horizon.
void BM_PredictPath(benchmark::State& state) {
  const auto predictor = MakePredictor(state.range(0));
  WarmUp(*predictor);
  const int32_t horizon = static_cast<int32_t>(state.range(1));
  for (auto _ : state) {
    auto path = predictor->PredictPath(horizon);
    benchmark::DoNotOptimize(path);
  }
  state.SetItemsProcessed(state.iterations() * horizon);
}
BENCHMARK(BM_PredictPath)->ArgsProduct({{0, 1}, {16, 48}});

// A fixed Gaussian path: step i has mean `mean`, standard deviations
// sigma·(1 + 0.01·i) and correlation rho, so no two steps are equal.
class FixedGaussianPath : public motion::PositionPredictor {
 public:
  FixedGaussianPath(geometry::Vec2 mean, double sigma, double rho)
      : mean_(mean), sigma_(sigma), rho_(rho) {}
  void Observe(const geometry::Vec2&) override {}
  std::vector<motion::Prediction> PredictPath(int32_t horizon) const override {
    std::vector<motion::Prediction> path(static_cast<size_t>(horizon));
    for (int32_t i = 0; i < horizon; ++i) {
      const double var = std::pow(sigma_ * (1.0 + 0.01 * i), 2);
      path[i].mean = mean_;
      path[i].cov_xx = path[i].cov_yy = var;
      path[i].cov_xy = rho_ * var;
    }
    return path;
  }
  double MeanStepDistance() const override { return 0.0; }

 private:
  geometry::Vec2 mean_;
  double sigma_;
  double rho_;
};

// Arg field: 0 = the client's frame mode (40 × 40 grid, 5% frame, H 48);
// 1 = the interest tracker's point mode (16 × 16 grid, H 16); 2 = the
// client's cold start (its zero-velocity prior, σ 1 km, ρ 0, at the
// client's frame geometry); 3 = a diverged predictor's wide ridge (σ 3 km
// growing 1% a step, ρ 0.99, the mean just outside a corner of the space,
// frame geometry).
void BM_BlockProbabilities(benchmark::State& state) {
  const int64_t field = state.range(0);
  const int32_t blocks = field == 1 ? 16 : 40;
  const geometry::GridPartition grid(kMotionSpace, blocks, blocks);
  motion::GridProbabilityOptions options;
  if (field != 1) {
    options.horizon = 48;
    options.step_discount = std::pow(0.5, 1.0 / options.horizon);
    options.frame_half_width = kMotionSpace.Extent(0) * 0.05 / 2.0;
    options.frame_half_height = kMotionSpace.Extent(1) * 0.05 / 2.0;
  }
  motion::MotionPredictor rls;
  if (field == 2) {
    rls.Observe({3000, 3000});
  } else {
    WarmUp(rls);
  }
  const FixedGaussianPath ridge({-200, -200}, 3000, 0.99);
  const motion::PositionPredictor& predictor =
      field == 3 ? static_cast<const motion::PositionPredictor&>(ridge) : rls;
  size_t entries = 0;
  for (auto _ : state) {
    auto probs = motion::ComputeBlockProbabilities(predictor, grid, options);
    entries = probs.size();
    benchmark::DoNotOptimize(probs);
  }
  state.counters["entries"] = static_cast<double>(entries);
  state.SetItemsProcessed(state.iterations() * options.horizon);
}
BENCHMARK(BM_BlockProbabilities)->ArgName("field")->DenseRange(0, 3);

// Sector assignment of a field that holds every block of the client's
// 40 × 40 grid, around the warmed-up client's position.
void BM_SectorAggregate(benchmark::State& state) {
  const geometry::GridPartition grid(kMotionSpace, 40, 40);
  motion::BlockProbabilities probs;
  for (int64_t block = 0; block < grid.block_count(); ++block) {
    probs.emplace_back(block, 1.0 / static_cast<double>(grid.block_count()));
  }
  motion::MotionPredictor predictor;
  const geometry::Vec2 position = WarmUp(predictor);
  for (auto _ : state) {
    motion::SectorPartition partition(position, 4);
    auto directions = partition.Aggregate(grid, probs);
    benchmark::DoNotOptimize(directions);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probs.size()));
}
BENCHMARK(BM_SectorAggregate);

// One buffered-client plan at the client's geometry, by block budget.
void BM_MotionAwarePlan(benchmark::State& state) {
  const geometry::GridPartition grid(kMotionSpace, 40, 40);
  buffer::MotionAwarePrefetcher::Options options;
  options.probability.frame_half_width = kMotionSpace.Extent(0) * 0.05 / 2.0;
  options.probability.frame_half_height = kMotionSpace.Extent(1) * 0.05 / 2.0;
  const buffer::MotionAwarePrefetcher prefetcher(options);
  motion::MotionPredictor predictor;
  const geometry::Vec2 position = WarmUp(predictor);
  const int32_t budget = static_cast<int32_t>(state.range(0));
  common::Rng rng(11);
  for (auto _ : state) {
    auto plan = prefetcher.Plan(predictor, grid, position, 0.5, budget, rng);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MotionAwarePlan)->ArgName("budget")->Arg(1)->Arg(32);

// The server's interest refresh for a 128-client fleet of which a quarter
// report a new position between snapshots (clients circle the space, each
// on its own ring).
void BM_InterestSnapshot(benchmark::State& state) {
  constexpr int32_t kClients = 128;
  server::MotionInterestTracker tracker(kMotionSpace, {});
  const auto position = [](int32_t client, int64_t tick) {
    const double radius = 1000.0 + 25.0 * client;
    const double angle = 0.01 * static_cast<double>(tick) + 0.05 * client;
    const double x = 5000.0 + radius * std::cos(angle);
    const double y = 5000.0 + radius * std::sin(angle);
    return geometry::Vec2{x, y};
  };
  int64_t tick = 0;
  for (; tick < 8; ++tick) {
    for (int32_t c = 0; c < kClients; ++c) {
      tracker.Observe(c, position(c, tick));
    }
  }
  tracker.Snapshot();
  for (auto _ : state) {
    for (int32_t c = static_cast<int32_t>(tick % 4); c < kClients; c += 4) {
      tracker.Observe(c, position(c, tick));
    }
    ++tick;
    auto grid = tracker.Snapshot();
    benchmark::DoNotOptimize(grid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterestSnapshot);

// --- Disk fleet hot path ----------------------------------------------------

// Arg 0: one coefficient record, as the fleet's hot cache encodes each
// miss. Arg 1: a 64-record response spread over 4 objects. Objects are
// the perfbench buildings (4 levels, about 1,800 coefficients each).
void BM_EncodeRecords(benchmark::State& state) {
  workload::SceneOptions scene;
  scene.object_count = 4;
  scene.seed = 12;
  auto db = workload::GenerateScene(scene);
  if (!db.ok()) {
    state.SkipWithError("scene generation failed");
    return;
  }
  std::vector<index::RecordId> ids;
  if (state.range(0) == 0) {
    ids.push_back(1);  // object 0's first coefficient
  } else {
    common::Rng rng(13);
    const int64_t last = static_cast<int64_t>(db->records().size()) - 1;
    for (int k = 0; k < 64; ++k) ids.push_back(rng.UniformInt(0, last));
  }
  for (auto _ : state) {
    auto bytes = server::EncodeRecords(*db, ids);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_EncodeRecords)->ArgName("response")->Arg(0)->Arg(1);

// The warmer's per-tick candidate scan over one disk_motion shard's pool:
// about 3,500 registered node pages (of which 64 are resident) scored
// against a 16 x 16 interest grid.
void BM_PoolPrefetchCandidates(benchmark::State& state) {
  constexpr int kPages = 3500;
  constexpr int kResident = 64;
  storage::MemoryStorageManager manager(4096);
  storage::BufferPool pool(&manager, kResident, storage::EvictPolicy::kMotion);
  common::Rng rng(14);
  const std::vector<uint8_t> node(1024, 0);
  for (int i = 0; i < kPages; ++i) {
    storage::PageId id = storage::kInvalidPage;
    if (!manager.Store(&id, node).ok()) {
      state.SkipWithError("page store failed");
      return;
    }
    const double x = rng.Uniform(0, 9800), y = rng.Uniform(0, 9800);
    pool.SetPageRegion(id, geometry::MakeBox2(x, y, x + rng.Uniform(20, 200),
                                              y + rng.Uniform(20, 200)));
  }
  storage::PageBytes out;
  for (int i = 0; i < kResident; ++i) {
    if (!pool.Fetch(i * (kPages / kResident), &out).ok()) {
      state.SkipWithError("page fetch failed");
      return;
    }
  }
  storage::InterestGrid interest;
  interest.space = kMotionSpace;
  interest.nx = 16;
  interest.ny = 16;
  interest.score.assign(256, 0.0);
  for (double& v : interest.score) {
    if (rng.Bernoulli(0.5)) v = rng.UniformDouble();
  }
  pool.UpdateInterest(interest);
  for (auto _ : state) {
    auto candidates = pool.PrefetchCandidates();
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations() * kPages);
}
BENCHMARK(BM_PoolPrefetchCandidates);

// The checksum a page file verifies on every page read and computes on
// every page write. Arg bytes: 1,141, what a full node page of the 3-D
// index checks (16 page-header bytes and a 1,125-byte payload), or 4,088,
// a 4 KB page with a full 4,072-byte payload. Arg word_lanes 1 is the
// page file's PageChecksum; 0 is byte-wise FNV-1a, the checksum of
// version 1 page files, over the same bytes.
void BM_PageChecksum(benchmark::State& state) {
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const bool word_lanes = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes);
    uint64_t sum = word_lanes
                       ? storage::PageChecksum(bytes.data(), bytes.size())
                       : storage::Fnv1a64(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageChecksum)
    ->ArgNames({"bytes", "word_lanes"})
    ->ArgsProduct({{1141, 4088}, {0, 1}});

// The fingerprint a shard directory records, over 67,000 records, about
// one disk_motion shard. A split computes two of them over the whole
// shard, and set-up one per shard.
void BM_ShardFingerprint(benchmark::State& state) {
  constexpr int64_t kRecords = 67000;
  common::Rng rng(18);
  std::vector<index::CoeffRecord> table;
  std::vector<index::RecordId> ids;
  for (int64_t i = 0; i < kRecords; ++i) {
    index::CoeffRecord r;
    r.object_id = static_cast<int32_t>(i / 1800);
    r.coeff_id = static_cast<int32_t>(i % 1800);
    r.w = rng.UniformDouble();
    const geometry::Box3 box = RandomBox3(rng);
    r.position = {box.lo(0), box.lo(1), 0.0};
    r.support_bounds = box;
    table.push_back(r);
    ids.push_back(i);
  }
  for (auto _ : state) {
    uint64_t fingerprint = index::FingerprintTable(table, ids);
    benchmark::DoNotOptimize(fingerprint);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_ShardFingerprint);

// One 1.1 KB node (an R*-tree page of the 3-D index) stored, loaded and
// erased through a page file of 4 KB pages: a page write, a page read,
// and the page-header write that frees the page (Erase follows the chain
// link the store kept, so it reads nothing). The file lives in the temp
// directory and is removed at the end.
void BM_DiskPageRoundTrip(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mars_bench_roundtrip." + std::to_string(getpid()) + ".pages"))
          .string();
  {
    auto manager = storage::DiskStorageManager::Open(path, 4096,
                                                     /*truncate=*/true);
    if (!manager.ok()) {
      state.SkipWithError("page file open failed");
      return;
    }
    std::vector<uint8_t> node(1100);
    for (size_t i = 0; i < node.size(); ++i) {
      node[i] = static_cast<uint8_t>(i * 31);
    }
    std::vector<uint8_t> out;
    for (auto _ : state) {
      storage::PageId id = storage::kInvalidPage;
      if (!(*manager)->Store(&id, node).ok() ||
          !(*manager)->Load(id, &out).ok() || !(*manager)->Erase(id).ok()) {
        state.SkipWithError("page round trip failed");
        break;
      }
      benchmark::DoNotOptimize(out);
    }
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskPageRoundTrip);

// Window queries of a 10,000-entry paged R*-tree (4 KB pages) through a
// buffer pool. Arg 0: a warm pool holding every page, so each node access
// is a hit that decodes the pool's own buffer in place. Arg 1: a cold
// pool of one page, so nearly every access reads its page from the store
// into a new buffer first.
void BM_PagedTreeQuery(benchmark::State& state) {
  common::Rng rng(15);
  std::vector<index::RTree3::Entry> entries;
  for (int64_t i = 0; i < 10000; ++i) entries.push_back({RandomBox3(rng), i});
  const index::RTree3 tree = index::RTree3::BulkLoad(std::move(entries));
  storage::MemoryStorageManager manager(4096);
  const bool warm = state.range(0) == 0;
  storage::BufferPool pool(&manager, warm ? int64_t{1} << 20 : 1,
                           storage::EvictPolicy::kLru);
  index::PagedTree3 paged(&pool);
  if (!paged.Write(tree, index::GroundScale()).ok()) {
    state.SkipWithError("paged tree write failed");
    return;
  }
  std::vector<geometry::Box3> windows;
  for (int k = 0; k < 64; ++k) {
    const double x = rng.Uniform(0, 9000), y = rng.Uniform(0, 9000);
    windows.push_back(geometry::Box3({x, y, 0.5}, {x + 1000, y + 1000, 1.0}));
  }
  std::vector<int64_t> out;
  for (const geometry::Box3& window : windows) paged.Query(window, &out);
  paged.ResetStats();
  size_t next = 0;
  for (auto _ : state) {
    out.clear();
    paged.Query(windows[next], &out);
    benchmark::DoNotOptimize(out);
    next = (next + 1) % windows.size();
  }
  state.SetItemsProcessed(state.iterations());
  const double pages = static_cast<double>(paged.node_accesses());
  const auto per_query = benchmark::Counter::kAvgIterations;
  state.counters["pages_per_query"] = benchmark::Counter(pages, per_query);
}
BENCHMARK(BM_PagedTreeQuery)->ArgName("cold")->Arg(0)->Arg(1);

// --- Shared cell -------------------------------------------------------------

// One 50 ms Advance of a weighted-fair cell with 128 backlogged clients at
// the default 2 Mbps: each completion is resubmitted, so every client
// stays backlogged and every step rates all 128 queue heads.
void BM_SharedLinkAdvance(benchmark::State& state) {
  constexpr int kClients = 128;
  net::SharedMediumLink cell;
  common::Rng rng(16);
  const auto submit = [&](int32_t client) {
    cell.Submit(client, rng.UniformInt(500, 4000), rng.UniformDouble());
  };
  for (int32_t c = 0; c < kClients; ++c) {
    submit(c);
    submit(c);
  }
  int64_t completions = 0;
  for (auto _ : state) {
    const auto done = cell.Advance(0.05);
    for (const net::SharedMediumLink::Completion& c : done) submit(c.client);
    completions += static_cast<int64_t>(done.size());
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["completions"] = benchmark::Counter(
      static_cast<double>(completions), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SharedLinkAdvance);

// The coalescing table's phase-A probe: 1,024 record ids, half of them in
// flight, against a table of 16,384 registered records.
void BM_InflightProbe(benchmark::State& state) {
  constexpr int64_t kRegistered = 16384;
  server::InflightTable table(server::InflightTable::Options{true});
  common::Rng rng(17);
  for (int64_t id = 0; id < kRegistered; ++id) {
    table.Register(2 * id, static_cast<int32_t>(id % 128), id / 128,
                   rng.UniformInt(40, 400));
  }
  std::vector<index::RecordId> probes;
  for (int k = 0; k < 1024; ++k) {
    probes.push_back(rng.UniformInt(0, 2 * kRegistered - 1));
  }
  for (auto _ : state) {
    int64_t bytes = 0;
    for (const index::RecordId id : probes) bytes += table.Probe(id);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_InflightProbe);

void BM_BufferAllocation(benchmark::State& state) {
  const std::vector<double> probs = {0.4, 0.25, 0.2, 0.15};
  for (auto _ : state) {
    auto alloc = buffer::AllocateBuffer(probs, 64);
    benchmark::DoNotOptimize(alloc);
  }
}
BENCHMARK(BM_BufferAllocation);

}  // namespace
}  // namespace mars

BENCHMARK_MAIN();
