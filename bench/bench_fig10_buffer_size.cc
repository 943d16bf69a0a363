// Reproduces Fig. 10 of the paper: "Effect of buffer size" on
// (a) cache hit rate and (b) data utilization, motion-aware vs naive
// buffer management, for tram and pedestrian tours.
//
// Expected shapes: hit rate rises with buffer size; the motion-aware
// scheme's hit rate and utilization beat the naive uniform-ring scheme;
// utilization falls as buffers grow (long-horizon prefetches are less
// certain); tram tours do better than pedestrian tours because they are
// more predictable.
//
// MARS_BENCH_SMOKE=1 runs a smaller preset (3 tours of 150 frames per
// setting) and MARS_BENCH_JSON=<path> writes every cell of the table;
// tools/figure_check.py checks the motion-aware-beats-naive shape on it.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/units.h"
#include "core/experiment.h"

int main() {
  using namespace mars;  // NOLINT

  auto system_or = core::System::Create(bench::DefaultConfig());
  if (!system_or.ok()) {
    std::fprintf(stderr, "%s\n", system_or.status().ToString().c_str());
    return 1;
  }
  core::System& system = **system_or;

  const bool smoke = bench::SmokeMode();
  const int32_t frames = smoke ? 150 : 300;
  const int tours_per_setting = smoke ? 3 : bench::kDefaultTours;
  constexpr double kSpeed = 0.5;

  struct Cell {
    double hit = 0.0;
    double util = 0.0;
  };
  // [kind][scheme][buffer index]
  const auto buffers = core::StandardBufferSizesKb();
  std::vector<std::vector<std::vector<Cell>>> results(
      2, std::vector<std::vector<Cell>>(2, std::vector<Cell>(buffers.size())));

  const workload::TourKind kinds[2] = {workload::TourKind::kTram,
                                       workload::TourKind::kPedestrian};
  for (int ki = 0; ki < 2; ++ki) {
    // Fixed cruise speed with the tours' natural jitter ("the speed of
    // the clients may also slightly vary at different parts of a tour",
    // Sec. VII-C). Full scheduled stops are excluded: a stop demands an
    // instant 500x resolution upgrade of the whole view, which swamps the
    // hit-rate statistic with misses no prefetcher could avoid.
    const auto tours = bench::MakeTours(kinds[ki], kSpeed, tours_per_setting,
                                        frames, -1.0, system.space());
    for (int scheme = 0; scheme < 2; ++scheme) {
      for (size_t bi = 0; bi < buffers.size(); ++bi) {
        client::BufferedClient::Options options;
        options.buffer_bytes = static_cast<int64_t>(buffers[bi]) * 1024;
        options.motion_aware = (scheme == 0);
        const core::RunMetrics metrics =
            bench::AverageBuffered(system, tours, options);
        results[ki][scheme][bi] =
            Cell{metrics.cache_hit_rate, metrics.data_utilization};
      }
    }
  }

  core::PrintTableTitle("Fig. 10(a) — cache hit rate (%) vs buffer size");
  core::PrintTableHeader({"buffer", "tram MA", "tram naive", "walk MA",
                          "walk naive"});
  for (size_t bi = 0; bi < buffers.size(); ++bi) {
    core::PrintTableRow({std::to_string(buffers[bi]) + "K",
                         core::Fmt(100 * results[0][0][bi].hit, 1),
                         core::Fmt(100 * results[0][1][bi].hit, 1),
                         core::Fmt(100 * results[1][0][bi].hit, 1),
                         core::Fmt(100 * results[1][1][bi].hit, 1)});
  }

  core::PrintTableTitle("Fig. 10(b) — data utilization (%) vs buffer size");
  core::PrintTableHeader({"buffer", "tram MA", "tram naive", "walk MA",
                          "walk naive"});
  for (size_t bi = 0; bi < buffers.size(); ++bi) {
    core::PrintTableRow({std::to_string(buffers[bi]) + "K",
                         core::Fmt(100 * results[0][0][bi].util, 1),
                         core::Fmt(100 * results[0][1][bi].util, 1),
                         core::Fmt(100 * results[1][0][bi].util, 1),
                         core::Fmt(100 * results[1][1][bi].util, 1)});
  }

  // hit_<kind>_<scheme>_<buffer>k and util_..., as fractions.
  std::vector<std::string> names;
  std::vector<double> values;
  for (int ki = 0; ki < 2; ++ki) {
    for (int scheme = 0; scheme < 2; ++scheme) {
      for (size_t bi = 0; bi < buffers.size(); ++bi) {
        const std::string cell =
            std::string("_") + bench::TourKindName(kinds[ki]) +
            (scheme == 0 ? "_ma_" : "_naive_") + std::to_string(buffers[bi]) +
            "k";
        names.push_back("hit" + cell);
        values.push_back(results[ki][scheme][bi].hit);
        names.push_back("util" + cell);
        values.push_back(results[ki][scheme][bi].util);
      }
    }
  }
  std::vector<bench::BenchMetric> metrics;
  for (size_t i = 0; i < names.size(); ++i) {
    metrics.push_back({names[i].c_str(), values[i], true});
  }
  return bench::WriteBenchJson("fig10_buffer_size", metrics) ? 0 : 1;
}
