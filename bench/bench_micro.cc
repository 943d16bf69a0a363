// Microbenchmarks (google-benchmark) for the hot building blocks: R*-tree
// insert/query at the experimental node parameters, wavelet analysis and
// synthesis, window-difference decomposition, Kalman/RLS prediction, the
// Eq.-2 buffer allocator, the motion-prediction layers that dominate a
// buffered client's frame and the server's interest refresh (predicted
// paths, block probabilities, prefetch plans, interest snapshots), and two
// layers of the disk fleet's hot path (the wire encoding of a response and
// the pool's prefetch-candidate scan). These are not paper figures; they
// document the substrate costs behind the figure benches.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "buffer/prefetcher.h"
#include "buffer/sector_allocator.h"
#include "client/continuous.h"
#include "common/rng.h"
#include "geometry/grid.h"
#include "geometry/rect_diff.h"
#include "index/rtree.h"
#include "mesh/primitives.h"
#include "mesh/subdivide.h"
#include "motion/grid_probability.h"
#include "motion/kalman.h"
#include "motion/predictor.h"
#include "server/motion_interest.h"
#include "server/wire_codec.h"
#include "storage/buffer_pool.h"
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

void BM_GuttmanInsert(benchmark::State& state) {
  common::Rng rng(3);
  index::RTreeOptions options;
  options.split_policy = index::SplitPolicy::kGuttmanQuadratic;
  options.forced_reinsert = false;
  for (auto _ : state) {
    state.PauseTiming();
    index::RTree3 tree(options);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(RandomBox3(rng), i);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GuttmanInsert)->Arg(10000);

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

// Arg tracker: 0 = the client's frame mode (40 × 40 grid, 5% frame,
// H 48 × 64 samples); 1 = the interest tracker's point mode (16 × 16 grid,
// H 16 × 64 samples).
void BM_BlockProbabilities(benchmark::State& state) {
  const bool tracker = state.range(0) != 0;
  const int32_t blocks = tracker ? 16 : 40;
  const geometry::GridPartition grid(kMotionSpace, blocks, blocks);
  motion::GridProbabilityOptions options;
  if (!tracker) {
    options.horizon = 48;
    options.step_discount = std::pow(0.5, 1.0 / options.horizon);
    options.frame_half_width = kMotionSpace.Extent(0) * 0.05 / 2.0;
    options.frame_half_height = kMotionSpace.Extent(1) * 0.05 / 2.0;
  }
  motion::MotionPredictor rls;
  WarmUp(rls);
  common::Rng rng(10);
  for (auto _ : state) {
    auto probs = motion::ComputeBlockProbabilities(rls, grid, options, rng);
    benchmark::DoNotOptimize(probs);
  }
  const int64_t samples = int64_t{options.horizon} * options.samples_per_step;
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_BlockProbabilities)->ArgName("tracker")->Arg(0)->Arg(1);

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
  std::vector<uint8_t> out;
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
