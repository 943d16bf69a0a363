// Reproduces Fig. 15 of the paper: "Query response time (Zipf)" — the
// overall system comparison of Fig. 14 repeated on a Zipf-placed scene
// (objects clustered around Zipf-weighted hotspots). Expected shapes match
// Fig. 14: the naive system degrades with speed, the motion-aware system
// stays roughly flat, and trams beat pedestrians slightly.
//
// CI runs this with MARS_BENCH_SMOKE=1 (shorter tours, two speeds) and
// MARS_BENCH_JSON=<path> for the artifact upload.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiment.h"

int main() {
  using namespace mars;  // NOLINT

  core::System::Config config = bench::DefaultConfig();
  config.scene.placement = workload::Placement::kZipf;
  auto system_or = core::System::Create(config);
  if (!system_or.ok()) {
    std::fprintf(stderr, "%s\n", system_or.status().ToString().c_str());
    return 1;
  }
  core::System& system = **system_or;

  const bool smoke = bench::SmokeMode();
  const int32_t frames = smoke ? 60 : 300;
  const int tours_per_setting = smoke ? 2 : 8;
  constexpr double kQueryFraction = 0.05;
  const std::vector<double> speeds =
      smoke ? std::vector<double>{0.25, 1.0} : core::StandardSpeeds();

  // Per tour kind (tram, walk): response times at the top speed, 1.0.
  double ma_top_speed[2] = {0.0, 0.0};
  double naive_top_speed[2] = {0.0, 0.0};
  core::PrintTableTitle(
      "Fig. 15 — mean query response time vs speed (Zipf data)");
  core::PrintTableHeader({"speed", "kind", "MA (s)", "naive (s)",
                          "speedup"});
  for (double speed : speeds) {
    for (auto kind :
         {workload::TourKind::kTram, workload::TourKind::kPedestrian}) {
      const auto tours = bench::MakeTours(kind, speed, tours_per_setting,
                                          frames, -1.0, system.space());
      client::BufferedClient::Options ma;
      ma.query_fraction = kQueryFraction;
      ma.buffer_bytes = 64 * 1024;
      client::NaiveObjectClient::Options naive;
      naive.query_fraction = kQueryFraction;
      naive.cache_bytes = 64 * 1024;
      const core::RunMetrics m = bench::AverageBuffered(system, tours, ma);
      const core::RunMetrics n =
          bench::AverageNaiveObject(system, tours, naive);
      // Per-query response time: averaged over the frames whose query
      // actually went to the server (locally served frames wait for
      // nothing), as the paper reports it.
      const double ma_resp = m.MeanResponsePerExchange();
      const double nv_resp = n.MeanResponsePerExchange();
      const double speedup = ma_resp > 0 ? nv_resp / ma_resp : 0.0;
      if (speed == speeds.back()) {
        const int k = kind == workload::TourKind::kTram ? 0 : 1;
        ma_top_speed[k] = ma_resp;
        naive_top_speed[k] = nv_resp;
      }
      core::PrintTableRow({core::Fmt(speed, 3), bench::TourKindName(kind),
                           core::Fmt(ma_resp, 3), core::Fmt(nv_resp, 3),
                           core::Fmt(speedup, 1) + "x"});
    }
  }

  const auto gain = [&](int k) {
    return ma_top_speed[k] > 0 ? naive_top_speed[k] / ma_top_speed[k] : 0.0;
  };
  if (!bench::WriteBenchJson(
          "fig15_response_zipf",
          {{"ma_response_tram_top_speed_seconds", ma_top_speed[0], false},
           {"naive_response_tram_top_speed_seconds", naive_top_speed[0],
            false},
           {"speedup_tram_top_speed", gain(0), true},
           {"ma_response_walk_top_speed_seconds", ma_top_speed[1], false},
           {"naive_response_walk_top_speed_seconds", naive_top_speed[1],
            false},
           {"speedup_walk_top_speed", gain(1), true}})) {
    return 1;
  }
  return 0;
}
