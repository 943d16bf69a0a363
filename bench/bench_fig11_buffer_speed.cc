// Reproduces Fig. 11 of the paper: "Effect of varying speed" on the
// buffer-management metrics — cache hit rate and data utilization against
// client speed, motion-aware vs naive schemes, tram and pedestrian tours,
// at the default 64 KB buffer.
//
// Clients cover the same distance at every speed, so each run crosses the
// same number of grid-block frontiers regardless of how fast it moves
// (hit/miss events are counted when a new region is visited). The sweep
// starts at 0.05 rather than the 0.001 used elsewhere: a client at speed
// 0.001 covers ~45 m in any practical number of frames and simply never
// leaves its buffered region (see EXPERIMENTS.md).
//
// Expected shapes: hit rate rises with speed — fast clients buffer blocks
// at low resolution, so many more blocks fit in the same bytes (the paper
// reports 64% -> 91% for trams); utilization is lower at high speed
// (longer-distance predictions); the motion-aware scheme dominates the
// naive one on both metrics.
//
// MARS_BENCH_SMOKE=1 changes nothing: the shape check needs every speed,
// and fewer tours flip the sign of the motion-aware lead at the top
// walking speed, about a point (see EXPERIMENTS.md).
// MARS_BENCH_JSON=<path> writes every cell of the table;
// tools/figure_check.py checks the hit-rate shape on it.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace mars;  // NOLINT

  auto system_or = core::System::Create(bench::DefaultConfig());
  if (!system_or.ok()) {
    std::fprintf(stderr, "%s\n", system_or.status().ToString().c_str());
    return 1;
  }
  core::System& system = **system_or;

  constexpr double kDistance = 1500.0;  // meters, equal at every speed
  const std::vector<double> speeds = {0.05, 0.1, 0.25, 0.5, 0.75, 1.0};
  // hit_<kind>_<scheme>_<speed> and util_..., as fractions.
  std::vector<std::string> names;
  std::vector<double> values;

  core::PrintTableTitle(
      "Fig. 11 — hit rate and utilization (%) vs speed (64K buffer, equal "
      "distance)");
  core::PrintTableHeader({"speed", "kind", "MA hit", "naive hit", "MA util",
                          "naive util"});
  for (double speed : speeds) {
    for (auto kind :
         {workload::TourKind::kTram, workload::TourKind::kPedestrian}) {
      const auto tours = bench::MakeTours(kind, speed, bench::kDefaultTours,
                                          0, kDistance, system.space());
      client::BufferedClient::Options ma;
      ma.buffer_bytes = 64 * 1024;
      ma.motion_aware = true;
      client::BufferedClient::Options naive = ma;
      naive.motion_aware = false;
      const core::RunMetrics m = bench::AverageBuffered(system, tours, ma);
      const core::RunMetrics n =
          bench::AverageBuffered(system, tours, naive);
      core::PrintTableRow({core::Fmt(speed, 3), bench::TourKindName(kind),
                           core::Fmt(100 * m.cache_hit_rate, 1),
                           core::Fmt(100 * n.cache_hit_rate, 1),
                           core::Fmt(100 * m.data_utilization, 1),
                           core::Fmt(100 * n.data_utilization, 1)});
      const auto cell = [&](const char* metric, const char* scheme) {
        std::string name = metric;
        for (const std::string& part :
             {std::string(bench::TourKindName(kind)), std::string(scheme),
              core::Fmt(speed, 2)}) {
          name += '_';
          name += part;
        }
        return name;
      };
      for (const auto& [name, value] :
           {std::pair{cell("hit", "ma"), m.cache_hit_rate},
            std::pair{cell("hit", "naive"), n.cache_hit_rate},
            std::pair{cell("util", "ma"), m.data_utilization},
            std::pair{cell("util", "naive"), n.data_utilization}}) {
        names.push_back(name);
        values.push_back(value);
      }
    }
  }
  std::vector<bench::BenchMetric> metrics;
  for (size_t i = 0; i < names.size(); ++i) {
    metrics.push_back({names[i].c_str(), values[i], true});
  }
  return bench::WriteBenchJson("fig11_buffer_speed", metrics) ? 0 : 1;
}
