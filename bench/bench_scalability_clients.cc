// Extension experiment: multi-client scalability.
//
// The paper evaluates one client on a dedicated 256 Kbps bearer. A
// deployed server faces many concurrent tourists sharing a cell. This
// bench runs true concurrent fleets through the FleetEngine — N live
// clients (alternating tram/walk, distinct seeds) against ONE shared
// server and ONE 2 Mbps shared cell (processor sharing, 256 Kbps
// per-client cap) — and reports the mean per-query delivery delay as the
// cell fills. Earlier revisions re-priced offline single-client traces;
// the fleet engine replaces that with an actual simulation: exchanges
// queue against each other at the instants they really happen, and the
// server's sessions and hot-encoding cache see the true
// interleaving.
//
// Expected shape: the motion-aware system's tiny transfers leave the cell
// underutilized, so response times stay nearly flat out to many clients;
// the naive full-resolution system saturates the cell almost immediately
// and degrades roughly linearly with N.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "fleet/fleet_engine.h"

namespace {

using namespace mars;  // NOLINT

constexpr int32_t kFrames = 200;
constexpr double kSpeed = 0.5;

// A homogeneous fleet of n clients of one kind, with the same id-derived
// seeds and tours regardless of kind, so the two series face identical
// workloads.
std::vector<fleet::ClientSpec> UniformFleet(int n, fleet::ClientKind kind) {
  std::vector<fleet::ClientSpec> specs =
      fleet::FleetEngine::MakeMixedFleet(n, kFrames, kSpeed, /*seed=*/0);
  for (fleet::ClientSpec& spec : specs) spec.kind = kind;
  return specs;
}

double MeanDelay(const core::System& system,
                 std::vector<fleet::ClientSpec> specs) {
  fleet::FleetOptions options;
  options.workers = 1;
  fleet::FleetEngine engine(system, options, std::move(specs));
  const fleet::FleetResult result = engine.Run();
  return result.aggregate.MeanResponsePerExchange();
}

}  // namespace

int main() {
  auto system_or = core::System::Create(bench::DefaultConfig());
  if (!system_or.ok()) {
    std::fprintf(stderr, "%s\n", system_or.status().ToString().c_str());
    return 1;
  }
  core::System& system = **system_or;

  std::vector<std::vector<std::string>> rows;
  for (int n : {1, 2, 4, 8, 16}) {
    const double motion_aware =
        MeanDelay(system, UniformFleet(n, fleet::ClientKind::kBuffered));
    const double naive =
        MeanDelay(system, UniformFleet(n, fleet::ClientKind::kNaive));
    rows.push_back({std::to_string(n), core::Fmt(motion_aware, 3),
                    core::Fmt(naive, 3)});
  }

  core::PrintTableTitle(
      "Scalability — per-query response time (s) vs concurrent clients "
      "(2 Mbps cell)");
  core::PrintTableHeader({"clients", "motion-aware", "naive"});
  for (const auto& row : rows) core::PrintTableRow(row);

  std::printf("\n-- json --\n");
  for (const auto& row : rows) {
    std::printf("%s\n", core::TableRowJson(row).c_str());
  }
  return 0;
}
