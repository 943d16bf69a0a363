// Standing wall-clock benchmark of the library's public entry points.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// One run measures one workload for about S seconds and prints, as its
// last line, a JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). See README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/block_buffer.h"
#include "replay.h"
#include "report.h"
#include "storage/storage_manager.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Tours = std::vector<std::vector<mars::workload::TourPoint>>;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int32_t seconds = 0;
  bool trace = false;
  std::string out = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || seconds < 1 || seconds > 600) return false;
      args->seconds = static_cast<int32_t>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && args->seconds > 0;
}

int32_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MedianOf(const std::vector<Pass>& passes, double Pass::*field) {
  std::vector<double> values;
  for (const Pass& p : passes) values.push_back(p.*field);
  return Median(values);
}

// A System with the private directory that holds its page files; the
// directory goes when the System does.
struct Built {
  Setup setup;
  fs::path dir;

  Built() = default;
  Built(const Built&) = delete;
  Built& operator=(const Built&) = delete;
  ~Built() {
    setup.system.reset();  // flushes and closes the page files first
    if (!dir.empty()) fs::remove_all(dir);
  }
};

class Runner {
 public:
  Runner(Workload workload, const Args& args)
      : w_(std::move(workload)), args_(args) {
    run_dir_ = fs::absolute(args.out) /
               ("run-" + std::to_string(getpid()) + "-" + w_.name);
    fs::remove_all(run_dir_);
    fs::create_directories(run_dir_);
  }
  ~Runner() { fs::remove_all(run_dir_); }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  int Run();

 private:
  struct PartRun {
    Tours tours;
    std::vector<Pass> passes;  // passes[0] is the deterministic reference
  };

  std::unique_ptr<Built> Build(size_t part, Tracer* tracer);
  void Measure();
  void Check();
  // Sums over the parts' reference passes; wall and CPU time are the
  // median pass of each part.
  struct Totals {
    int64_t frames = 0;
    int64_t wire_bytes = 0;
    int64_t records = 0;
    int64_t stale = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    mars::core::RunMetrics metrics;
  };
  Totals Sum() const;
  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer(
      const Tracer& tracer, const ReplayCounts& rc, double overhead,
      const std::optional<mars::fleet::FleetResult>& shared) const;
  void Expect(const std::string& name, const std::string& failure);

  Workload w_;
  Args args_;
  fs::path run_dir_;
  int32_t systems_built_ = 0;
  std::vector<double> setup_s_, scene_s_, build_s_, page_writes_;
  std::vector<PartRun> parts_;
  std::unique_ptr<Built> kept_;  // the last part's System, for the checks
  double peak_rss_mb_ = 0.0;
  bool correct_ = true;
};

std::unique_ptr<Built> Runner::Build(size_t part, Tracer* tracer) {
  auto built = std::make_unique<Built>();
  built->dir = run_dir_ / ("system-" + std::to_string(systems_built_++));
  fs::create_directories(built->dir);
  built->setup = BuildSystem(w_.parts[part], built->dir.string(), tracer);
  return built;
}

// Every part gets an equal share of the time. A part repeats its pass
// while another one fits in the share, give or take half a pass; where
// every pass needs a fresh System, building it counts against the share.
void Runner::Measure() {
  Tracer off(false);
  const double share =
      static_cast<double>(args_.seconds) / static_cast<double>(w_.parts.size());
  for (size_t k = 0; k < w_.parts.size(); ++k) {
    kept_.reset();  // one System alive at a time
    PartRun run;
    std::unique_ptr<Built> built;
    double used = 0.0;
    double last = 0.0;  // the last pass, with its set-up if it had its own
    do {
      last = 0.0;
      if (built == nullptr || w_.fresh_system_per_pass) {
        built.reset();
        built = Build(k, &off);
        setup_s_.push_back(built->setup.scene_s + built->setup.build_s);
        scene_s_.push_back(built->setup.scene_s);
        build_s_.push_back(built->setup.build_s);
        page_writes_.push_back(static_cast<double>(built->setup.page_writes));
        if (w_.fresh_system_per_pass) last = setup_s_.back();
        if (run.tours.empty()) {
          StratifyTours(w_, built->setup.system->space(), &w_.parts[k]);
          run.tours = PartTours(w_, w_.parts[k], *built->setup.system);
        }
      }
      run.passes.push_back(RunPass(w_, w_.parts[k],
                                   built->setup.system.get(), run.tours,
                                   &off));
      last += run.passes.back().wall_s;
      used += last;
    } while (used + last / 2 < share);
    const Pass& ref = run.passes[0];
    const double frames = static_cast<double>(ref.metrics.frames);
    std::vector<double> walls;
    for (const Pass& p : run.passes) walls.push_back(p.wall_s);
    std::printf(
        "scene %zu: %zu pass(es) of %lld frames, pass %.4f s median "
        "(%.4f-%.4f), %.1f B and %.3f records per frame, digest %016llx\n",
        k, run.passes.size(), static_cast<long long>(ref.metrics.frames),
        Median(walls), *std::min_element(walls.begin(), walls.end()),
        *std::max_element(walls.begin(), walls.end()),
        static_cast<double>(ref.wire_bytes) / frames,
        static_cast<double>(ref.records) / frames,
        static_cast<unsigned long long>(ref.digest));
    parts_.push_back(std::move(run));
    kept_ = std::move(built);
  }
  peak_rss_mb_ = PeakRssMb();
}

void Runner::Expect(const std::string& name, const std::string& failure) {
  if (failure.empty()) {
    std::printf("  [ok]   %s\n", name.c_str());
  } else {
    std::printf("  [FAIL] %s: %s\n", name.c_str(), failure.c_str());
    correct_ = false;
  }
}

void Runner::Check() {
  std::printf("checks\n");
  std::string failure;
  for (size_t k = 0; k < parts_.size(); ++k) {
    for (const Pass& pass : parts_[k].passes) {
      if (pass.digest != parts_[k].passes[0].digest) {
        failure = "part " + std::to_string(k) + " changed between passes";
      }
      if (pass.metrics.frames == 0) failure = "a pass ran no frames";
    }
  }
  Expect("every pass of a part gives the same outputs", failure);

  const bool fleet = w_.driver == Driver::kFleet;
  if (fleet) {
    failure.clear();
    for (const PartRun& run : parts_) {
      for (const Pass& pass : run.passes) {
        const mars::fleet::FleetResult& r = *pass.fleet;
        if (r.chaos_session_desyncs != 0 || r.chaos_duplicate_deliveries != 0 ||
            r.chaos_stranded_waiters != 0 ||
            r.chaos_unresolved_exchanges != 0) {
          failure = "a chaos invariant is non-zero";
        }
      }
    }
    Expect("chaos invariants read zero", failure);
  }

  const mars::core::System& system = *kept_->setup.system;
  Expect("sampled index queries equal a scan of db().records()",
         CheckQueriesAgainstScan(w_, system, parts_.back().tours));

  const bool disk = w_.parts.front().config.storage.store ==
                    mars::storage::StoreKind::kDisk;
  if (disk) {
    // A fresh System: the measured ones have rebalanced their shards.
    Tracer off(false);
    auto built = Build(0, &off);
    Expect("disk index equals a memory index in records and node accesses",
           CheckDiskAgainstMemory(w_, *built->setup.system, parts_[0].tours));
  } else {
    failure.clear();
    for (const PartRun& run : parts_) {
      for (const Pass& pass : run.passes) {
        const mars::storage::PoolStats& p = pass.pool_after;
        if (p.hits + p.misses + p.disk_reads + p.disk_writes + p.evictions +
                p.prefetch_issued !=
            0) {
          failure = "a memory store reported pool activity";
        }
      }
    }
    if (!system.server().PoolStats().empty()) failure = "pools exist";
    Expect("storage counters read zero on a memory store", failure);
  }

  if (fleet && !w_.fleet.coalesce.enabled) {
    failure.clear();
    for (const PartRun& run : parts_) {
      for (const Pass& pass : run.passes) {
        const mars::fleet::FleetResult& r = *pass.fleet;
        if (r.coalesce_hits + r.coalesce_attaches + r.coalesce_bytes_saved +
                r.coalesce_refused + r.coalesce_header_bytes !=
            0) {
          failure = "coalesce counters moved with coalescing off";
        }
      }
    }
    Expect("coalesce counters read zero without coalescing", failure);
  }

  if (!fleet) {
    // The benchmark's frame loop must be System::Run*'s, plus the
    // response histogram those do not fill.
    mars::core::RunMetrics ours = parts_.back().passes[0].per_tour[0];
    ours.response_histogram = mars::core::LatencyHistogram();
    const mars::core::RunMetrics theirs =
        RunThroughSystem(w_, w_.parts.back(), kept_->setup.system.get(), 0,
                         parts_.back().tours[0]);
    Expect("the frame loop matches System::Run* on a tour",
           mars::core::RunMetricsJson(ours) ==
                   mars::core::RunMetricsJson(theirs)
               ? ""
               : "got " + mars::core::RunMetricsJson(ours) + ", want " +
                     mars::core::RunMetricsJson(theirs));
  }
}

Runner::Totals Runner::Sum() const {
  Totals t;
  for (const PartRun& run : parts_) {
    const Pass& ref = run.passes[0];
    t.frames += ref.metrics.frames;
    t.wire_bytes += ref.wire_bytes;
    t.records += ref.records;
    t.stale += ref.metrics.stale_frames;
    t.metrics.Merge(ref.metrics);
    t.wall_s += MedianOf(run.passes, &Pass::wall_s);
    t.cpu_s += MedianOf(run.passes, &Pass::cpu_s);
  }
  return t;
}

// Throughput, CPU, bytes and records are totals over the run's scenes
// (each scene's median pass for time): the rate at which the run's whole
// content goes through. Response times pool every scene's exchanges.
std::vector<Metric> Runner::EndToEnd() const {
  const Totals t = Sum();
  const double frames = static_cast<double>(t.frames);
  const auto& hist = t.metrics.response_histogram;
  std::printf("response: %lld demand exchanges; mean %.6g s, p50 %.6g s, "
              "p90 %.6g s, p99 %.6g s\n",
              static_cast<long long>(hist.total),
              t.metrics.MeanResponsePerExchange(),
              InterpolatedQuantile(hist, 0.50),
              InterpolatedQuantile(hist, 0.90),
              InterpolatedQuantile(hist, 0.99));
  std::printf("fail_share: %.6g (%lld of %lld frames timed out, shed or "
              "stale)\n",
              static_cast<double>(t.stale) / frames,
              static_cast<long long>(t.stale),
              static_cast<long long>(t.frames));
  return {
      {"setup_s", "s", Median(setup_s_)},
      {"frames_per_s", "1/s", frames / t.wall_s},
      {"cpu_us_per_frame", "us", 1e6 * t.cpu_s / frames},
      {"peak_rss_mb", "MB", peak_rss_mb_},
      {"resp_p90_s", "s", InterpolatedQuantile(hist, 0.90)},
      {"bytes_per_frame", "B", static_cast<double>(t.wire_bytes) / frames},
      {"records_per_frame", "count", static_cast<double>(t.records) / frames},
  };
}

double Share(int64_t part, int64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

std::vector<Metric> Runner::PerLayer(
    const Tracer& tracer, const ReplayCounts& rc, double overhead,
    const std::optional<mars::fleet::FleetResult>& shared) const {
  std::map<std::string, Tracer::CallStats> spans;
  for (const Tracer::CallStats& s : tracer.Summarize()) spans[s.name] = s;
  const auto busy = [&](const char* name) { return spans[name].busy_s; };
  // Shares of a client step compare time per frame: the replays cover
  // fewer frames than the traced pass.
  const auto per_frame = [&](const char* name, int64_t n) {
    return n == 0 ? 0.0 : busy(name) / static_cast<double>(n);
  };
  const double step_per_frame = per_frame(
      "client.step", std::max<int64_t>(1, spans["client.step"].calls));
  const auto per_call_us = [&](const char* name) {
    const Tracer::CallStats& s = spans[name];
    return s.calls == 0 ? 0.0 : 1e6 * s.busy_s / static_cast<double>(s.calls);
  };
  // The parts of a client step, per frame, as shares of the step.
  std::vector<std::pair<double, std::string>> parts = {
      {per_frame("client.plan", rc.frames), "client.plan"},
      {per_frame("index.query", rc.frames), "index.query"},
      {(busy("server.execute") - busy("index.query")) /
           static_cast<double>(std::max<int64_t>(1, rc.frames)),
       "server.execute (self)"},
  };
  // Only the fleet encodes what it sends.
  if (w_.driver == Driver::kFleet) {
    parts.push_back({per_frame("server.encode", rc.frames), "server.encode"});
  }
  if (w_.driver == Driver::kBuffered) {
    parts.push_back({per_frame("motion.observe", rc.plan_frames),
                     "motion.observe"});
    parts.push_back({per_frame("buffer.plan", rc.plan_frames),
                     "buffer.plan"});
  }
  std::sort(parts.rbegin(), parts.rend());
  std::printf("client.step %.3f us per frame; shares of it:",
              1e6 * step_per_frame);
  for (const auto& [seconds, name] : parts) {
    std::printf(" %s %.3f,", name.c_str(), seconds / step_per_frame);
  }
  std::printf(" largest %s\n", parts.front().second.c_str());

  const Totals t = Sum();
  const double frames = static_cast<double>(t.frames);

  // Shared-state, network and QoS accounting: the shared-state pass of a
  // fleet workload (all zero on single-client workloads).
  const mars::fleet::FleetResult f =
      shared.value_or(mars::fleet::FleetResult{});
  const double shared_frames =
      static_cast<double>(std::max<int64_t>(1, f.aggregate.frames));
  int64_t encode_calls = 0;
  int64_t rebalance_ops = 0;
  double virtual_s = 0.0;
  for (const PartRun& run : parts_) {
    const Pass& ref = run.passes[0];
    rebalance_ops += ref.rebalance_ops;
    if (ref.fleet) {
      encode_calls += ref.fleet->encode_calls;
      virtual_s += ref.fleet->virtual_seconds;
    }
  }

  // Pool counters move a little with warm-read timing: the median pass.
  std::vector<double> hit_rate, reads, writes, evictions, useful, dropped;
  for (const PartRun& run : parts_) {
    for (const Pass& p : run.passes) {
      const auto& a = p.pool_after;
      const auto& b = p.pool_before;
      const double n = static_cast<double>(p.metrics.frames);
      hit_rate.push_back(
          Share(a.hits - b.hits, a.hits - b.hits + a.misses - b.misses));
      reads.push_back((a.disk_reads - b.disk_reads) / n);
      writes.push_back(static_cast<double>(a.disk_writes - b.disk_writes));
      evictions.push_back((a.evictions - b.evictions) / n);
      useful.push_back(Share(a.prefetch_hits - b.prefetch_hits,
                             a.prefetch_issued - b.prefetch_issued));
      dropped.push_back(Share(a.prefetch_dropped - b.prefetch_dropped,
                              a.prefetch_issued - b.prefetch_issued));
    }
  }
  const auto spread = [](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::printf("  %-36s median %.6g, min %.6g, max %.6g over %zu passes\n",
                name, Median(v), v.front(), v.back(), v.size());
  };
  std::printf("pool counters across passes\n");
  spread("storage.pool_hit_rate", hit_rate);
  spread("storage.disk_reads_per_frame", reads);

  std::vector<double> max_shard = rc.max_shard_accesses;
  const int64_t exchanges = t.metrics.demand_exchanges;
  return {
      {"workload.scene_s", "s", Median(scene_s_)},
      {"index.build_s", "s", Median(build_s_)},
      {"client.step_us_p50", "us", spans["client.step"].p50_us},
      {"client.step_us_p99", "us", spans["client.step"].p99_us},
      {"client.exchanges_per_frame", "count",
       static_cast<double>(exchanges) / frames},
      {"client.resp_samples", "count", static_cast<double>(exchanges)},
      {"client.resp_mean_s", "s", t.metrics.MeanResponsePerExchange()},
      {"client.resp_p50_s", "s",
       InterpolatedQuantile(t.metrics.response_histogram, 0.50)},
      {"client.resp_p99_s", "s",
       InterpolatedQuantile(t.metrics.response_histogram, 0.99)},
      {"client.buffer_hit_rate", "ratio", t.metrics.cache_hit_rate},
      {"client.prefetch_utilization", "ratio", t.metrics.data_utilization},
      {"motion.observe_us", "us", per_call_us("motion.observe")},
      {"buffer.plan_us_p50", "us", spans["buffer.plan"].p50_us},
      {"buffer.plan_us_p99", "us", spans["buffer.plan"].p99_us},
      {"buffer.plan_share", "ratio",
       w_.driver == Driver::kBuffered
           ? per_frame("buffer.plan", rc.plan_frames) / step_per_frame
           : 0.0},
      {"index.query_share", "ratio",
       per_frame("index.query", rc.frames) / step_per_frame},
      {"index.query_us_p50", "us", spans["index.query"].p50_us},
      {"index.query_us_p99", "us", spans["index.query"].p99_us},
      {"index.node_accesses_per_query", "count",
       Share(rc.node_accesses, rc.queries)},
      {"index.shards_touched_per_query", "count",
       Share(rc.shards_touched, rc.queries)},
      {"index.max_shard_accesses_p99", "count", Percentile(&max_shard, 0.99)},
      {"index.node_accesses_per_frame", "count",
       static_cast<double>(t.metrics.node_accesses) / frames},
      {"server.execute_us_p50", "us", spans["server.execute"].p50_us},
      {"server.execute_self_us", "us",
       1e6 * (busy("server.execute") - busy("index.query")) /
           static_cast<double>(std::max<int64_t>(
               1, spans["server.execute"].calls))},
      {"server.filtered_duplicate_share", "ratio",
       Share(rc.filtered, rc.filtered + rc.delivered)},
      {"server.encode_us_per_record", "us",
       rc.delivered == 0 ? 0.0
                         : 1e6 * busy("server.encode") /
                               static_cast<double>(rc.delivered)},
      {"server.encode_calls_per_frame", "count",
       static_cast<double>(encode_calls) / frames},
      {"server.hot_hit_rate", "ratio",
       Share(f.hot_hits, f.hot_hits + f.hot_misses)},
      {"server.coalesce_hit_share", "ratio",
       Share(f.coalesce_hits, f.aggregate.records_delivered)},
      {"server.coalesce_refused", "count",
       static_cast<double>(f.coalesce_refused)},
      {"server.admission_deferred_share", "ratio",
       Share(f.deferred_exchanges, f.admitted_exchanges +
                                       f.deferred_exchanges +
                                       f.shed_exchanges)},
      {"server.admission_shed_share", "ratio",
       Share(f.shed_exchanges, f.admitted_exchanges + f.deferred_exchanges +
                                   f.shed_exchanges)},
      {"server.interest_snapshot_us", "us",
       per_call_us("server.interest_snapshot")},
      {"server.rebalance_ops", "count", static_cast<double>(rebalance_ops)},
      {"storage.pool_hit_rate", "ratio", Median(hit_rate)},
      {"storage.disk_reads_per_frame", "count", Median(reads)},
      {"storage.disk_writes_run", "count", Median(writes)},
      {"storage.evictions_per_frame", "count", Median(evictions)},
      {"storage.prefetch_useful_share", "ratio", Median(useful)},
      {"storage.prefetch_dropped_share", "ratio", Median(dropped)},
      {"storage.setup_page_writes", "count", Median(page_writes_)},
      {"net.cell_bytes_per_frame", "B",
       static_cast<double>(f.cell_bytes) / shared_frames},
      {"net.peak_backlog_bytes", "B",
       static_cast<double>(f.peak_cell_backlog_bytes)},
      {"net.handovers", "count", static_cast<double>(f.handovers)},
      {"net.failovers", "count", static_cast<double>(f.failovers)},
      {"net.reissued_transfers", "count",
       static_cast<double>(f.reissued_transfers)},
      {"net.cell_timeouts", "count", static_cast<double>(f.cell_timeouts)},
      {"qos.abr_step_ups", "count", static_cast<double>(f.abr_step_ups)},
      {"qos.abr_top_ups", "count", static_cast<double>(f.abr_top_ups)},
      {"fleet.run_s", "s", t.wall_s},
      {"fleet.cpu_per_wall", "ratio", t.cpu_s / t.wall_s},
      {"fleet.virtual_s", "sim_s", virtual_s},
      {"trace.overhead_share", "ratio", overhead},
  };
}

void PrintSpanTable(const Tracer& tracer) {
  std::printf("spans (busy and self time in seconds, per-call "
              "microseconds)\n");
  std::printf("  %-28s %9s %11s %11s %11s %11s\n", "span", "calls", "busy",
              "self", "p50", "p99");
  std::map<std::string, std::pair<double, double>> layers;
  for (const Tracer::CallStats& s : tracer.Summarize()) {
    std::printf("  %-28s %9lld %11.6f %11.6f %11.3f %11.3f\n", s.name.c_str(),
                static_cast<long long>(s.calls), s.busy_s, s.self_s, s.p50_us,
                s.p99_us);
    auto& layer = layers[s.name.substr(0, s.name.find('.'))];
    layer.first += s.busy_s;
    layer.second += s.self_s;
  }
  std::printf("layers (busy, self in seconds)\n");
  for (const auto& [name, times] : layers) {
    std::printf("  %-28s %11.6f %11.6f\n", name.c_str(), times.first,
                times.second);
  }
}

int Runner::Run() {
  const ThreadBudget& th = w_.threads;
  std::printf("perfbench: workload %s, seed %llu, %d s, trace %d\n",
              w_.name.c_str(), static_cast<unsigned long long>(w_.seed),
              args_.seconds, args_.trace ? 1 : 0);
  std::printf(
      "threads: nproc %d; fleet workers %d (this thread included), fan-out "
      "workers %d, warm I/O %d + warm coordinator %d; %d in all\n",
      th.nproc, th.fleet_workers, th.fanout_workers,
      std::max(0, th.warm_workers - 1), th.warm_workers > 0 ? 1 : 0,
      th.total());
  if (th.total() > th.nproc) {
    std::printf("warning: %d threads exceed nproc %d\n", th.total(),
                th.nproc);
  }

  Measure();
  Check();

  uint64_t digest = mars::storage::kFnvOffset;
  for (const PartRun& run : parts_) {
    digest = mars::storage::Fnv1a64Mix(run.passes[0].digest, digest);
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));

  int64_t attempted = 0, failed = 0;
  for (const PartRun& run : parts_) {
    for (const Pass& p : run.passes) {
      attempted += p.metrics.frames;
      failed += p.metrics.stale_frames;
    }
  }
  const std::vector<Metric> end_to_end = EndToEnd();
  PrintMetrics("end-to-end", end_to_end);
  if (!args_.trace) {
    PrintResultLine(correct_, attempted, failed, end_to_end);
    return 0;
  }

  // Traced run: a fresh System of the last part, its pass with a span
  // per client step, then the replays on the same System.
  kept_.reset();
  Tracer tracer(true);
  auto built = Build(w_.parts.size() - 1, &tracer);
  mars::core::System* system = built->setup.system.get();
  const PartRun& last = parts_.back();
  const Pass traced = RunPass(w_, w_.parts.back(), system, last.tours, &tracer);
  const double overhead =
      traced.wall_s / MedianOf(last.passes, &Pass::wall_s) - 1.0;
  Expect("the traced pass gives the untraced outputs",
         traced.digest == last.passes[0].digest ? "" : "digest differs");

  std::optional<mars::fleet::FleetResult> shared;
  if (w_.driver == Driver::kFleet) {
    shared = RunSharedStatePass(w_, w_.parts.back(), w_.parts.size() - 1,
                                *system, &tracer);
    Expect("chaos invariants read zero in the shared-state pass",
           shared->chaos_session_desyncs + shared->chaos_duplicate_deliveries +
                       shared->chaos_stranded_waiters +
                       shared->chaos_unresolved_exchanges ==
                   0
               ? ""
               : "a chaos invariant is non-zero");
    std::printf("shared-state pass: %lld frames, %lld failed\n",
                static_cast<long long>(shared->aggregate.frames),
                static_cast<long long>(shared->aggregate.stale_frames));
  }

  // Replays cover the scene's tours; a fleet's first 64 suffice. Fleet
  // steps run inside FleetEngine::Run, so streaming clients step
  // standalone over those tours instead.
  const size_t replayed =
      w_.driver == Driver::kFleet ? std::min<size_t>(64, last.tours.size())
                                  : last.tours.size();
  const Tours replay_tours(last.tours.begin(),
                           last.tours.begin() + replayed);
  std::vector<int64_t> client_records;
  if (w_.driver == Driver::kFleet) {
    ReplayStreamingSteps(w_, system, replay_tours, &tracer);
  } else if (w_.driver == Driver::kStreaming) {
    for (const auto& m : traced.per_tour) {
      client_records.push_back(m.records_delivered);
    }
  }
  // The buffered client plans a budget of blocks sized by its running
  // mean block payload, which it keeps to itself: estimate that mean from
  // the demand fetches of the traced pass.
  const mars::client::BufferedClient::Options& bo = w_.buffered;
  const double block_bytes =
      traced.demand_blocks > 0
          ? static_cast<double>(traced.metrics.demand_bytes) /
                static_cast<double>(traced.demand_blocks)
          : 2048.0;
  const int32_t plan_budget = static_cast<int32_t>(std::clamp<double>(
      static_cast<double>(bo.buffer_bytes) /
          (block_bytes + mars::buffer::BlockBuffer::kEntryOverheadBytes),
      1, 512));
  std::printf("prefetch plan replay: %d blocks per plan (mean demand block "
              "%.0f B)\n",
              plan_budget, block_bytes);
  constexpr int64_t kPlanFrames = 2400;
  const ReplayCounts rc = Replay(w_, *system, replay_tours, kPlanFrames,
                                 plan_budget, client_records, &tracer);
  if (w_.driver == Driver::kStreaming) {
    Expect("replayed Server::Execute delivers what the client received",
           rc.client_mismatches == 0 ? "" : "a tour's records differ");
  }

  PrintSpanTable(tracer);
  const fs::path trace_path =
      fs::absolute(args_.out) / ("trace-" + w_.name + "-seed" +
                                 std::to_string(w_.seed) + ".json");
  Expect("trace written",
         tracer.WriteChromeTrace(trace_path.string()) ? "" : "write failed");
  std::printf("trace: %s (open in ui.perfetto.dev or chrome://tracing)\n",
              trace_path.c_str());
  std::printf("tracing overhead: %.4f of the untraced pass wall time\n",
              overhead);

  const std::vector<Metric> per_layer =
      PerLayer(tracer, rc, overhead, shared);
  PrintMetrics("per-layer", per_layer);
  PrintResultLine(correct_, attempted, failed, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  std::optional<Workload> workload =
      MakeWorkload(args.workload, args.seed, Nproc());
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload %s; one of:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  Runner runner(std::move(*workload), args);
  return runner.Run();
}
