// mars_sim — command-line driver for MARS experiments.
//
//   mars_sim generate [flags]   generate a city scene and write it to --out
//   mars_sim info [flags]       summarize the scene in --db
//   mars_sim run [flags]        run one client, or a fleet, over tours
//
// Every flag is one row of kFlags below. Run mars_sim without arguments
// to print them all with their valid values; README.md walks through the
// run modes and what each one prints.
//
// Examples:
//   mars_sim generate --mb 60 --out city.mars
//   mars_sim run --db city.mars --tour walk --speed 0.7 --client buffered
//   mars_sim run --mb 20 --tour tram --speed 1.0 --client naive
//   mars_sim run --mb 20 --loss 0.05 --outage-rate 30 --outage-secs 5
//   mars_sim run --mb 20 --clients 32 --workers 8 --frames 120
//   mars_sim run --mb 20 --clients 12 --cells 4 --cell-outage-rate 60

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "common/units.h"
#include "core/metrics.h"
#include "core/system.h"
#include "fleet/fleet_engine.h"
#include "server/persistence.h"
#include "workload/scene.h"
#include "workload/tour.h"

namespace {

using namespace mars;  // NOLINT

// What one invocation configures. Flags write straight into the library
// option structs, so every default is the library's; the fields before
// them have no library home.
struct Options {
  std::string command;
  std::string db_path;
  std::string out_path;
  int32_t mb = 0;       // scene size; 0 keeps the scene's default
  int32_t objects = 0;  // object-count override; 0 = none
  int32_t clients = 1;  // > 1 runs a fleet
  fleet::ClientKind client = fleet::ClientKind::kBuffered;
  double cell_outage_rate = 0.0;  // 0 = the cells use --outage-rate
  core::System::Config system;
  fleet::FleetOptions fleet;
  workload::TourOptions tour;
  client::StreamingClient::Options streaming;
  client::BufferedClient::Options buffered;
  client::NaiveObjectClient::Options naive;
};

// How a flag's value parses: a switch takes none, text is kept as given,
// a choice must be one of the '|'-separated words of its hint, and a
// number must be the whole argument, an integer (kInt) or a finite real
// (kReal), and must lie in range.
enum class Kind { kSwitch, kText, kChoice, kInt, kReal };

// A number's valid values: at least `lo` (above it when `lo_open`) and
// below `hi` (at most `hi` when `hi_closed`). The default admits every
// value.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
  bool hi_closed = false;
};
constexpr Range AtLeast(double lo) { return {lo, false}; }
constexpr Range Above(double lo) { return {lo, true}; }
constexpr Range Within(double lo, double hi) { return {lo, false, hi}; }
// Counts of threads, shard page files and cells: each one costs an
// operating-system thread, an open file or a simulated cell, so each is
// capped.
constexpr Range kCountRange = {1, false, 256, true};
// Values an int32_t field holds: a count of at least 1, or a size where
// 0 means unset.
constexpr double kInt32Max = std::numeric_limits<int32_t>::max();
constexpr Range kInt32Count = {1, false, kInt32Max, true};
constexpr Range kInt32OrUnset = {0, false, kInt32Max, true};
// KB whose bytes (x 1024) an int64_t holds: 2^53 - 1, exact as a double.
constexpr Range kKilobytes = {
    1, false, static_cast<double>(std::numeric_limits<int64_t>::max() / 1024),
    true};
// The largest page size a page file reopens at.
constexpr Range kPageSizeRange = {128, false, 1 << 26, true};

struct Arg {
  std::string_view text;
  int64_t i = 0;
  double d = 0.0;
};

struct Flag {
  const char* name;  // without the leading "--"
  Kind kind;
  const char* hint;  // the value's placeholder; a choice's word list
  const char* help;
  Range range;
  void (*set)(Options&, Arg);
};

constexpr Flag kFlags[] = {
    {"db", Kind::kText, "FILE", "scene file to load (info, run)", {},
     [](Options& o, Arg a) { o.db_path = a.text; }},
    {"out", Kind::kText, "FILE", "scene file to write (generate)", {},
     [](Options& o, Arg a) { o.out_path = a.text; }},
    {"objects", Kind::kInt, "N", "scene object count, over --mb",
     kInt32OrUnset, [](Options& o, Arg a) { o.objects = a.i; }},
    {"mb", Kind::kInt, "N", "scene size in MB, 5 objects per MB",
     kInt32OrUnset, [](Options& o, Arg a) { o.mb = a.i; }},
    {"zipf", Kind::kSwitch, "", "Zipf-clustered object placement", {},
     [](Options& o, Arg) {
       o.system.scene.placement = workload::Placement::kZipf;
     }},
    {"seed", Kind::kInt, "S", "scene seed; tour and faults add 1, 2",
     AtLeast(0), [](Options& o, Arg a) { o.system.scene.seed = a.i; }},
    {"tour", Kind::kChoice, "tram|walk", "tour kind", {},
     [](Options& o, Arg a) {
       o.tour.kind = a.text == "walk" ? workload::TourKind::kPedestrian
                                      : workload::TourKind::kTram;
     }},
    {"speed", Kind::kReal, "S", "normalized cruise speed", {},
     [](Options& o, Arg a) { o.tour.target_speed = a.d; }},
    {"frames", Kind::kInt, "N", "query frames per tour", kInt32Count,
     [](Options& o, Arg a) { o.tour.frames = a.i; }},
    {"distance", Kind::kReal, "M", "tour meters; > 0 overrides --frames", {},
     [](Options& o, Arg a) { o.tour.distance = a.d; }},
    {"client", Kind::kChoice, "buffered|streaming|naive",
     "client of a single-client run", {},
     [](Options& o, Arg a) {
       o.client = a.text == "streaming" ? fleet::ClientKind::kStreaming
                  : a.text == "naive"   ? fleet::ClientKind::kNaive
                                        : fleet::ClientKind::kBuffered;
     }},
    {"buffer-kb", Kind::kInt, "N", "client buffer or cache size in KB",
     kKilobytes,
     [](Options& o, Arg a) {
       o.buffered.buffer_bytes = a.i * 1024;
       o.naive.cache_bytes = a.i * 1024;
     }},
    {"query-frac", Kind::kReal, "F", "query window side / space side", {},
     [](Options& o, Arg a) {
       o.streaming.query_fraction = a.d;
       o.buffered.query_fraction = a.d;
       o.naive.query_fraction = a.d;
     }},
    {"index", Kind::kChoice, "support|naive-point", "coefficient index", {},
     [](Options& o, Arg a) {
       o.system.index_kind = a.text == "naive-point"
                                 ? server::Server::IndexKind::kNaivePoint
                                 : server::Server::IndexKind::kSupportRegion;
     }},
    {"no-prefetch", Kind::kSwitch, "", "buffered client: no prefetch", {},
     [](Options& o, Arg) { o.buffered.enable_prefetch = false; }},
    {"naive-prefetch", Kind::kSwitch, "", "buffered: uniform-ring prefetch",
     {}, [](Options& o, Arg) { o.buffered.motion_aware = false; }},
    {"kalman", Kind::kSwitch, "", "buffered client: Kalman predictor", {},
     [](Options& o, Arg) {
       o.buffered.predictor =
           client::BufferedClient::Options::Predictor::kKalman;
     }},
    {"loss", Kind::kReal, "P", "loss per attempt; the cell's in a fleet",
     Within(0.0, 0.5),
     [](Options& o, Arg a) {
       o.system.link.loss_probability = a.d;
       o.fleet.cell.loss_probability = a.d;
     }},
    {"outage-rate", Kind::kReal, "R", "outages per hour; per cell in a fleet",
     AtLeast(0.0),
     [](Options& o, Arg a) {
       o.system.fault.outage_rate_per_hour = a.d;
       o.fleet.cell_fault.outage_rate_per_hour = a.d;
     }},
    {"outage-secs", Kind::kReal, "S", "mean outage seconds", {},
     [](Options& o, Arg a) {
       o.system.fault.outage_mean_seconds = a.d;
       o.fleet.cell_fault.outage_mean_seconds = a.d;
     }},
    {"clients", Kind::kInt, "N", "> 1 runs a mixed fleet on a shared cell",
     kInt32Count, [](Options& o, Arg a) { o.clients = a.i; }},
    {"workers", Kind::kInt, "N", "fleet threads; output is the same at any",
     kCountRange, [](Options& o, Arg a) { o.fleet.workers = a.i; }},
    {"shards", Kind::kInt, "K", "coefficient index shards", kCountRange,
     [](Options& o, Arg a) { o.system.shards = a.i; }},
    {"fanout-workers", Kind::kInt, "N", "threads querying the shards",
     kCountRange, [](Options& o, Arg a) { o.system.fanout_workers = a.i; }},
    {"fairness", Kind::kChoice, "wfq|equal",
     "cell discipline: fair queuing or per-transfer share", {},
     [](Options& o, Arg a) {
       o.fleet.cell.discipline =
           a.text == "equal" ? net::SharedMediumLink::Discipline::kEqualShare
                             : net::SharedMediumLink::Discipline::kWeightedFair;
     }},
    {"admission", Kind::kSwitch, "", "admission control on the cell", {},
     [](Options& o, Arg) { o.fleet.admission.enabled = true; }},
    {"coalesce", Kind::kChoice, "on|off", "cross-client request coalescing",
     {}, [](Options& o, Arg a) { o.fleet.coalesce.enabled = a.text == "on"; }},
    {"cells", Kind::kInt, "K", "radio cells tiling the ground plane",
     kCountRange, [](Options& o, Arg a) { o.fleet.cells = a.i; }},
    {"cell-outage-rate", Kind::kReal, "R",
     "outages per hour per cell, over --outage-rate", AtLeast(0.0),
     [](Options& o, Arg a) { o.cell_outage_rate = a.d; }},
    {"store", Kind::kChoice, "memory|disk", "where index nodes live", {},
     [](Options& o, Arg a) {
       o.system.storage.store = a.text == "disk" ? storage::StoreKind::kDisk
                                                 : storage::StoreKind::kMemory;
     }},
    {"pages", Kind::kText, "FILE", "page file of --store disk", {},
     [](Options& o, Arg a) { o.system.storage.path = a.text; }},
    {"page-size", Kind::kInt, "BYTES", "bytes per index page", kPageSizeRange,
     [](Options& o, Arg a) { o.system.storage.page_size = a.i; }},
    {"pool-pages", Kind::kInt, "N", "buffer-pool pages over all shards",
     AtLeast(1), [](Options& o, Arg a) { o.system.storage.pool_pages = a.i; }},
    {"evict", Kind::kChoice, "lru|motion", "buffer-pool eviction policy", {},
     [](Options& o, Arg a) {
       o.system.storage.evict = a.text == "motion"
                                    ? storage::EvictPolicy::kMotion
                                    : storage::EvictPolicy::kLru;
     }},
    {"warm", Kind::kChoice, "on|off", "background pool warming", {},
     [](Options& o, Arg a) { o.system.storage.warm = a.text == "on"; }},
    {"warm-budget", Kind::kInt, "N", "pages warmed per tick", AtLeast(1),
     [](Options& o, Arg a) { o.system.storage.warm_budget = a.i; }},
    {"warm-workers", Kind::kInt, "N", "warming I/O threads", kCountRange,
     [](Options& o, Arg a) { o.system.storage.warm_workers = a.i; }},
    {"rebalance", Kind::kChoice, "on|off", "load-adaptive shard split/merge",
     {},
     [](Options& o, Arg a) { o.system.rebalance.enabled = a.text == "on"; }},
    {"rebalance-interval", Kind::kInt, "N", "frames between rebalance rounds",
     kInt32Count, [](Options& o, Arg a) { o.system.rebalance.interval = a.i; }},
    {"split-factor", Kind::kReal, "F", "split above F x fair share",
     Above(1.0),
     [](Options& o, Arg a) { o.system.rebalance.split_factor = a.d; }},
    {"merge-factor", Kind::kReal, "F", "merge below F x fair share",
     Within(0.0, 1.0),
     [](Options& o, Arg a) { o.system.rebalance.merge_factor = a.d; }},
    {"max-shards", Kind::kInt, "K", "cap on shard slots", kCountRange,
     [](Options& o, Arg a) { o.system.rebalance.max_shards = a.i; }},
    {"abr", Kind::kChoice, "on|off", "adaptive resolution ladder", {},
     [](Options& o, Arg a) { o.fleet.abr.enabled = a.text == "on"; }},
    {"ladder-steps", Kind::kInt, "N", "rungs above the static speed map",
     kInt32Count,
     [](Options& o, Arg a) { o.fleet.abr.ladder.ladder_steps = a.i; }},
    {"abr-target", Kind::kReal, "BPS", "healthy per-client goodput, B/s",
     Above(0.0),
     [](Options& o, Arg a) { o.fleet.abr.ladder.target_goodput_bps = a.d; }},
};

bool Bounded(const Range& r) { return !std::isinf(r.lo); }

bool InRange(const Range& r, double v) {
  return (r.lo_open ? v > r.lo : v >= r.lo) &&
         (r.hi_closed ? v <= r.hi : v < r.hi);
}

std::string RangeText(const Range& r) {
  char text[64];
  if (std::isinf(r.hi)) {
    std::snprintf(text, sizeof(text), "%s %.16g", r.lo_open ? ">" : ">=",
                  r.lo);
  } else {
    std::snprintf(text, sizeof(text), "in [%.16g, %.16g%c", r.lo, r.hi,
                  r.hi_closed ? ']' : ')');
  }
  return text;
}

// Parses all of `text` as the number a kInt or kReal flag takes.
bool ParseNumber(Kind kind, std::string_view text, Arg* arg) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  if (kind == Kind::kInt) {
    const auto [end, error] = std::from_chars(first, last, arg->i);
    return error == std::errc() && end == last;
  }
  const auto [end, error] = std::from_chars(first, last, arg->d);
  return error == std::errc() && end == last && std::isfinite(arg->d);
}

bool IsChoice(std::string_view words, std::string_view text) {
  for (size_t start = 0;;) {
    const size_t bar = words.find('|', start);
    if (words.substr(start, bar - start) == text) return true;
    if (bar == std::string_view::npos) return false;
    start = bar + 1;
  }
}

void Usage() {
  std::fprintf(stderr, "usage: mars_sim generate|info|run [flags]\n");
  for (const Flag& flag : kFlags) {
    std::string name = std::string("--") + flag.name;
    if (flag.kind != Kind::kSwitch) name += std::string(" ") + flag.hint;
    std::string help = flag.help;
    if (Bounded(flag.range)) help += "; " + RangeText(flag.range);
    std::fprintf(stderr, "  %-34s %s\n", name.c_str(), help.c_str());
  }
}

const Flag* FindFlag(std::string_view arg) {
  if (!arg.starts_with("--")) return nullptr;
  for (const Flag& flag : kFlags) {
    if (arg.substr(2) == flag.name) return &flag;
  }
  return nullptr;
}

// Values that combine several flags, computed once after parsing so
// that flag order cannot change a run.
void Derive(Options* o) {
  workload::SceneOptions& scene = o->system.scene;
  if (o->mb > 0) {
    const workload::Placement placement = scene.placement;
    scene = workload::SceneForDatasetSize(o->mb, scene.seed);
    scene.placement = placement;
  }
  if (o->objects > 0) scene.object_count = o->objects;
  o->tour.seed = scene.seed + 1;
  o->system.fault.seed = scene.seed + 2;
  o->fleet.cell_fault.seed = scene.seed + 2;
  if (o->cell_outage_rate > 0.0) {
    o->fleet.cell_fault.outage_rate_per_hour = o->cell_outage_rate;
  }
}

bool ParseFlags(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const Flag* flag = FindFlag(argv[i]);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
    Arg arg;
    if (flag->kind != Kind::kSwitch) {
      if (++i >= argc) {
        std::fprintf(stderr, "missing value for --%s\n", flag->name);
        return false;
      }
      arg.text = argv[i];
    }
    const bool number = flag->kind == Kind::kInt || flag->kind == Kind::kReal;
    if (number && !ParseNumber(flag->kind, arg.text, &arg)) {
      std::fprintf(stderr, "--%s wants %s, got '%s'\n", flag->name,
                   flag->kind == Kind::kInt ? "an integer" : "a finite number",
                   argv[i]);
      return false;
    }
    if (flag->kind == Kind::kChoice && !IsChoice(flag->hint, arg.text)) {
      std::fprintf(stderr, "--%s wants %s\n", flag->name, flag->hint);
      return false;
    }
    const double value =
        flag->kind == Kind::kInt ? static_cast<double>(arg.i) : arg.d;
    if (Bounded(flag->range) && !InRange(flag->range, value)) {
      std::fprintf(stderr, "--%s must be %s\n", flag->name,
                   RangeText(flag->range).c_str());
      return false;
    }
    flag->set(*o, arg);
  }
  Derive(o);
  return true;
}

int Generate(const Options& o) {
  if (o.out_path.empty()) {
    std::fprintf(stderr, "generate requires --out\n");
    return 2;
  }
  const workload::SceneOptions& scene = o.system.scene;
  std::printf("generating %d objects (seed %llu)...\n", scene.object_count,
              static_cast<unsigned long long>(scene.seed));
  auto db = workload::GenerateScene(scene);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const auto status = server::SaveDatabase(*db, o.out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d objects, %zu records, %s of records\n",
              o.out_path.c_str(), db->object_count(), db->records().size(),
              common::FormatBytes(db->total_bytes()).c_str());
  return 0;
}

int Info(const Options& o) {
  if (o.db_path.empty()) {
    std::fprintf(stderr, "info requires --db\n");
    return 2;
  }
  auto db = server::LoadDatabase(o.db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("objects : %d\n", db->object_count());
  std::printf("records : %zu\n", db->records().size());
  std::printf("dataset : %s\n",
              common::FormatBytes(db->total_bytes()).c_str());
  int64_t coeffs = 0;
  for (const auto& r : db->records()) {
    if (!r.is_base()) ++coeffs;
  }
  std::printf("coeffs  : %lld\n", static_cast<long long>(coeffs));
  return 0;
}

// Per-shard stats JSON, one line per shard. Only emitted when sharding
// is actually on (K > 1), so default-configuration output stays
// byte-identical to the single-tree era.
void PrintShardStats(const core::System& system) {
  const server::Server& server = system.server();
  if (server.shard_count() <= 1) return;
  for (const auto& s : server.sharded_index().Stats()) {
    std::printf(
        "{\"shard\": %d, \"records\": %lld, \"node_accesses\": %lld, "
        "\"fanout_queries\": %lld, \"rebuilds\": %lld}\n",
        s.shard, static_cast<long long>(s.records),
        static_cast<long long>(s.node_accesses),
        static_cast<long long>(s.fanout_queries),
        static_cast<long long>(s.rebuilds));
  }
}

// Per-shard buffer-pool JSON, one line per shard. Disk mode only, so
// memory-mode output stays byte-identical to the pre-storage era.
void PrintPoolStats(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.disk_store()) return;
  // The prefetch counters ride only the warm-on lines, so --warm off
  // output stays byte-identical to the pre-warming era.
  const bool warming = server.pool_warming_enabled();
  for (const auto& s : server.PoolStats()) {
    std::printf(
        "{\"pool_shard\": %d, \"hits\": %lld, \"misses\": %lld, "
        "\"evictions\": %lld, \"disk_reads\": %lld, \"disk_writes\": %lld, "
        "\"resident_pages\": %lld, \"file_pages\": %lld, "
        "\"free_pages\": %lld, \"fragmented_pages\": %lld",
        s.shard, static_cast<long long>(s.pool.hits),
        static_cast<long long>(s.pool.misses),
        static_cast<long long>(s.pool.evictions),
        static_cast<long long>(s.pool.disk_reads),
        static_cast<long long>(s.pool.disk_writes),
        static_cast<long long>(s.pool.resident_pages),
        static_cast<long long>(s.file_pages),
        static_cast<long long>(s.free_pages),
        static_cast<long long>(s.fragmented_pages));
    if (warming) {
      std::printf(
          ", \"prefetch_issued\": %lld, \"prefetch_hits\": %lld, "
          "\"prefetch_wasted\": %lld, \"prefetch_dropped\": %lld",
          static_cast<long long>(s.pool.prefetch_issued),
          static_cast<long long>(s.pool.prefetch_hits),
          static_cast<long long>(s.pool.prefetch_wasted),
          static_cast<long long>(s.pool.prefetch_dropped));
    }
    std::printf("}\n");
  }
}

// Rebalance telemetry: only emitted with --rebalance on, so off-mode
// output stays byte-identical to the static-shard era.
void PrintRebalanceSummary(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.rebalance_enabled()) return;
  const std::vector<server::RebalanceEvent> events = server.RebalanceEvents();
  int64_t splits = 0;
  for (const server::RebalanceEvent& e : events) {
    if (e.kind == server::RebalanceEvent::Kind::kSplit) ++splits;
  }
  std::printf("\n-- rebalance --\n");
  std::printf("ops applied             : %lld (%lld splits, %lld merges)\n",
              static_cast<long long>(events.size()),
              static_cast<long long>(splits),
              static_cast<long long>(static_cast<int64_t>(events.size()) -
                                     splits));
  std::printf("shards live / total     : %d / %d\n",
              server.live_shard_count(), server.shard_count());
}

// One JSON line per applied rebalance op (--rebalance on only).
void PrintRebalanceJson(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.rebalance_enabled()) return;
  for (const server::RebalanceEvent& e : server.RebalanceEvents()) {
    std::printf(
        "{\"rebalance\": {\"op\": \"%s\", \"round\": %lld, \"shard\": %d, "
        "\"target\": %d, \"share\": %.17g, \"records\": %lld}}\n",
        e.kind == server::RebalanceEvent::Kind::kSplit ? "split" : "merge",
        static_cast<long long>(e.round), e.shard, e.target, e.share,
        static_cast<long long>(e.records));
  }
}

// Human-readable storage summary (disk mode only).
void PrintStorageSummary(const core::System& system) {
  const server::Server& server = system.server();
  if (!server.disk_store()) return;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t prefetch_issued = 0;
  int64_t prefetch_hits = 0;
  int64_t prefetch_wasted = 0;
  int64_t prefetch_dropped = 0;
  for (const auto& s : server.PoolStats()) {
    hits += s.pool.hits;
    misses += s.pool.misses;
    evictions += s.pool.evictions;
    reads += s.pool.disk_reads;
    writes += s.pool.disk_writes;
    prefetch_issued += s.pool.prefetch_issued;
    prefetch_hits += s.pool.prefetch_hits;
    prefetch_wasted += s.pool.prefetch_wasted;
    prefetch_dropped += s.pool.prefetch_dropped;
  }
  const double total = static_cast<double>(hits + misses);
  std::printf("\n-- storage --\n");
  std::printf("pool hits / misses      : %lld / %lld (%.1f %% hit)\n",
              static_cast<long long>(hits), static_cast<long long>(misses),
              total > 0.0 ? 100.0 * static_cast<double>(hits) / total : 0.0);
  std::printf("pool evictions          : %lld\n",
              static_cast<long long>(evictions));
  std::printf("disk reads / writes     : %lld / %lld\n",
              static_cast<long long>(reads), static_cast<long long>(writes));
  if (server.pool_warming_enabled()) {
    // Warm-on only, so --warm off output stays byte-identical.
    std::printf("prefetch issued / hits  : %lld / %lld\n",
                static_cast<long long>(prefetch_issued),
                static_cast<long long>(prefetch_hits));
    std::printf("prefetch wasted/dropped : %lld / %lld\n",
                static_cast<long long>(prefetch_wasted),
                static_cast<long long>(prefetch_dropped));
  }
}

// Fleet mode: N concurrent clients against one shared server and cell.
int RunFleet(const core::System& system, const Options& o) {
  std::vector<fleet::ClientSpec> specs = fleet::FleetEngine::MakeMixedFleet(
      o.clients, o.tour.frames, o.tour.target_speed, o.system.scene.seed);
  for (fleet::ClientSpec& spec : specs) {
    spec.buffer_bytes = o.buffered.buffer_bytes;
  }
  fleet::FleetEngine engine(system, o.fleet, std::move(specs));
  const fleet::FleetResult result = engine.Run();

  std::printf("\n-- fleet (%d clients, %d workers) --\n", o.clients,
              o.fleet.workers);
  if (o.fleet.cells > 1) {
    std::printf("cells                   : %d\n", o.fleet.cells);
    std::printf("handovers / failovers   : %lld / %lld\n",
                static_cast<long long>(result.handovers),
                static_cast<long long>(result.failovers));
    std::printf("reissued transfers      : %lld (%s)\n",
                static_cast<long long>(result.reissued_transfers),
                common::FormatBytes(result.reissued_bytes).c_str());
  }
  std::printf("virtual seconds         : %.1f\n", result.virtual_seconds);
  std::printf("cell bytes              : %s\n",
              common::FormatBytes(result.cell_bytes).c_str());
  std::printf("cell retries / timeouts : %lld / %lld\n",
              static_cast<long long>(result.cell_retries),
              static_cast<long long>(result.cell_timeouts));
  std::printf("cell outage             : %.1f s\n",
              result.cell_outage_seconds);
  std::printf("hot cache hits / misses : %lld / %lld\n",
              static_cast<long long>(result.hot_hits),
              static_cast<long long>(result.hot_misses));
  std::printf("hot encode bytes saved  : %s\n",
              common::FormatBytes(result.hot_bytes_saved).c_str());
  std::printf("mean response / query   : %.3f s\n",
              result.aggregate.MeanResponsePerExchange());
  std::printf("p50 / p99 response      : %.3f / %.3f s\n",
              result.aggregate.P50ResponseSeconds(),
              result.aggregate.P99ResponseSeconds());
  const bool coalescing = o.fleet.coalesce.enabled;
  if (coalescing) {
    std::printf("coalesce hits / attach  : %lld / %lld\n",
                static_cast<long long>(result.coalesce_hits),
                static_cast<long long>(result.coalesce_attaches));
    std::printf("coalesce bytes saved    : %s (refused %lld)\n",
                common::FormatBytes(result.coalesce_bytes_saved).c_str(),
                static_cast<long long>(result.coalesce_refused));
    std::printf("encode calls            : %lld\n",
                static_cast<long long>(result.encode_calls));
  }
  if (o.fleet.abr.enabled) {
    std::printf("abr step-ups / top-ups  : %lld / %lld (worst rung %d/%d)\n",
                static_cast<long long>(result.abr_step_ups),
                static_cast<long long>(result.abr_top_ups),
                result.abr_max_ladder_step, o.fleet.abr.ladder.ladder_steps);
  }
  if (o.fleet.admission.enabled) {
    std::printf("admitted/deferred/shed  : %lld / %lld / %lld\n",
                static_cast<long long>(result.admitted_exchanges),
                static_cast<long long>(result.deferred_exchanges),
                static_cast<long long>(result.shed_exchanges));
    std::printf("peak cell backlog       : %s\n",
                common::FormatBytes(result.peak_cell_backlog_bytes).c_str());
  }
  static const char* const kKindNames[] = {"streaming", "buffered", "naive"};
  for (size_t k = 0; k < result.by_kind.size(); ++k) {
    const fleet::ClassStats& cls = result.by_kind[k];
    if (cls.clients == 0) continue;
    const double goodput =
        result.virtual_seconds > 0.0
            ? static_cast<double>(cls.metrics.total_bytes()) /
                  result.virtual_seconds
            : 0.0;
    std::printf(
        "class %-9s           : %lld clients, %.0f B/s goodput, "
        "p99 %.3f s\n",
        kKindNames[k], static_cast<long long>(cls.clients), goodput,
        cls.metrics.P99ResponseSeconds());
  }

  PrintStorageSummary(system);
  PrintRebalanceSummary(system);

  // Full-precision JSON lines: one per client plus the aggregate. Diffing
  // this block across --workers values must show zero differences.
  std::printf("\n-- json --\n");
  for (const fleet::ClientResult& client : result.clients) {
    std::printf("{\"client\": %d, \"metrics\": %s}\n", client.spec.id,
                core::RunMetricsJson(client.metrics).c_str());
  }
  std::printf("{\"aggregate\": %s}\n",
              core::RunMetricsJson(result.aggregate).c_str());
  PrintShardStats(system);
  PrintPoolStats(system);
  PrintRebalanceJson(system);
  if (coalescing) {
    // Coalescing telemetry rides extra JSON lines so the off-mode block
    // above stays byte-identical to the pre-coalescing era.
    for (size_t k = 0; k < result.by_kind.size(); ++k) {
      const fleet::ClassStats& cls = result.by_kind[k];
      if (cls.clients == 0) continue;
      std::printf(
          "{\"coalesce_class\": \"%s\", \"hits\": %lld, \"attaches\": %lld, "
          "\"bytes_saved\": %lld, \"encode_calls\": %lld, "
          "\"cell_bytes\": %lld}\n",
          kKindNames[k], static_cast<long long>(cls.coalesce_hits),
          static_cast<long long>(cls.coalesce_attaches),
          static_cast<long long>(cls.coalesce_bytes_saved),
          static_cast<long long>(cls.encode_calls),
          static_cast<long long>(cls.cell_bytes));
    }
    std::printf(
        "{\"coalesce\": {\"hits\": %lld, \"attaches\": %lld, "
        "\"bytes_saved\": %lld, \"refused\": %lld, \"header_bytes\": %lld, "
        "\"encode_calls\": %lld}}\n",
        static_cast<long long>(result.coalesce_hits),
        static_cast<long long>(result.coalesce_attaches),
        static_cast<long long>(result.coalesce_bytes_saved),
        static_cast<long long>(result.coalesce_refused),
        static_cast<long long>(result.coalesce_header_bytes),
        static_cast<long long>(result.encode_calls));
    for (const auto& s : result.hot_shards) {
      std::printf(
          "{\"hot_shard\": %d, \"hits\": %lld, \"misses\": %lld, "
          "\"evictions\": %lld, \"entries\": %lld, \"bytes\": %lld}\n",
          s.shard, static_cast<long long>(s.hits),
          static_cast<long long>(s.misses),
          static_cast<long long>(s.evictions),
          static_cast<long long>(s.entries),
          static_cast<long long>(s.bytes));
    }
  }
  if (o.fleet.abr.enabled) {
    // ABR telemetry rides extra JSON lines so the off-mode block above
    // stays byte-identical to the pre-ladder era. Per-client ladder state
    // first (the nightly chaos sweep watches degradation trends), then
    // the fleet totals.
    for (const fleet::ClientResult& client : result.clients) {
      std::printf(
          "{\"abr_client\": %d, \"ladder_step\": %d, "
          "\"goodput_ewma_bps\": %.17g, \"step_ups\": %lld, "
          "\"top_ups\": %lld}\n",
          client.spec.id, client.abr.ladder_step,
          client.abr.goodput_ewma_bps,
          static_cast<long long>(client.abr.step_ups),
          static_cast<long long>(client.abr.top_ups));
    }
    std::printf(
        "{\"abr\": {\"step_ups\": %lld, \"top_ups\": %lld, "
        "\"max_ladder_step\": %d, \"ladder_steps\": %d}}\n",
        static_cast<long long>(result.abr_step_ups),
        static_cast<long long>(result.abr_top_ups),
        result.abr_max_ladder_step, o.fleet.abr.ladder.ladder_steps);
  }
  if (o.fleet.cells > 1) {
    // Multi-cell telemetry rides extra JSON lines so the single-cell
    // block above stays byte-identical to the pre-topology era. The
    // chaos line carries the engine's handover invariants (all zero, or
    // the run would have FATALed) so the chaos harness can assert the
    // checks actually ran.
    for (size_t k = 0; k < result.cell_stats.size(); ++k) {
      const fleet::FleetResult::CellStats& cs = result.cell_stats[k];
      std::printf(
          "{\"cell\": %zu, \"bytes\": %lld, \"retries\": %lld, "
          "\"timeouts\": %lld, \"outage_seconds\": %.17g, "
          "\"peak_backlog_bytes\": %lld, \"handovers_in\": %lld}\n",
          k, static_cast<long long>(cs.bytes),
          static_cast<long long>(cs.retries),
          static_cast<long long>(cs.timeouts), cs.outage_seconds,
          static_cast<long long>(cs.peak_backlog_bytes),
          static_cast<long long>(cs.handovers_in));
    }
    for (const fleet::ClientResult& client : result.clients) {
      std::printf(
          "{\"client_cells\": %d, \"home\": %d, \"final\": %d, "
          "\"handovers\": %lld, \"failovers\": %lld}\n",
          client.spec.id, client.home_cell, client.final_cell,
          static_cast<long long>(client.handovers),
          static_cast<long long>(client.failovers));
    }
    std::printf(
        "{\"handover\": {\"handovers\": %lld, \"failovers\": %lld, "
        "\"reissued_transfers\": %lld, \"reissued_bytes\": %lld}}\n",
        static_cast<long long>(result.handovers),
        static_cast<long long>(result.failovers),
        static_cast<long long>(result.reissued_transfers),
        static_cast<long long>(result.reissued_bytes));
    std::printf(
        "{\"chaos\": {\"session_desyncs\": %lld, "
        "\"duplicate_deliveries\": %lld, \"stranded_waiters\": %lld, "
        "\"unresolved_exchanges\": %lld}}\n",
        static_cast<long long>(result.chaos_session_desyncs),
        static_cast<long long>(result.chaos_duplicate_deliveries),
        static_cast<long long>(result.chaos_stranded_waiters),
        static_cast<long long>(result.chaos_unresolved_exchanges));
  }
  return 0;
}

int Run(const Options& o) {
  // Rules that tie several flags together; each flag's own range was
  // checked while parsing.
  if (o.system.fault.outage_rate_per_hour > 0.0 &&
      o.system.fault.outage_mean_seconds <= 0.0) {
    std::fprintf(stderr, "--outage-secs must be > 0\n");
    return 2;
  }
  if (o.fleet.coalesce.enabled &&
      o.fleet.cell.discipline ==
          net::SharedMediumLink::Discipline::kEqualShare) {
    std::fprintf(stderr,
                 "--coalesce on requires --fairness wfq (shared-delivery "
                 "resolution relies on per-client FIFO completions)\n");
    return 2;
  }
  if (o.fleet.cells > 1 && o.clients <= 1) {
    std::fprintf(stderr, "--cells K > 1 requires fleet mode (--clients > 1)\n");
    return 2;
  }
  const storage::StorageConfig& storage_config = o.system.storage;
  const bool disk = storage_config.store == storage::StoreKind::kDisk;
  const bool motion = storage_config.evict == storage::EvictPolicy::kMotion;
  if (disk && storage_config.path.empty()) {
    std::fprintf(stderr, "--store disk requires --pages FILE\n");
    return 2;
  }
  if (storage_config.warm && (!disk || !motion)) {
    std::fprintf(stderr, "--warm on requires --store disk --evict motion\n");
    return 2;
  }
  if (o.fleet.abr.enabled && o.clients <= 1) {
    std::fprintf(stderr, "--abr on requires fleet mode (--clients > 1)\n");
    return 2;
  }

  std::unique_ptr<core::System> system;
  if (!o.db_path.empty()) {
    auto db = server::LoadDatabase(o.db_path);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    system = core::System::FromDatabase(o.system, std::move(*db));
  } else {
    auto sys = core::System::Create(o.system);
    if (!sys.ok()) {
      std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
      return 1;
    }
    system = std::move(sys).value();
  }
  std::printf("dataset: %s, %d objects\n",
              common::FormatBytes(system->db().total_bytes()).c_str(),
              system->db().object_count());
  if (system->server().disk_store()) {
    std::printf("store: disk (%s), %s eviction, restored shards %d/%d\n",
                storage_config.path.c_str(), motion ? "motion" : "lru",
                system->server().restored_shards(), o.system.shards);
  }
  if (system->server().pool_warming_enabled()) {
    std::printf("warm: on (budget %lld, workers %d)\n",
                static_cast<long long>(storage_config.warm_budget),
                storage_config.warm_workers);
  }

  if (o.clients > 1) return RunFleet(*system, o);

  workload::TourOptions tour_options = o.tour;
  tour_options.space = system->space();
  const auto tour = workload::GenerateTour(tour_options);
  const bool walk = o.tour.kind == workload::TourKind::kPedestrian;
  std::printf("tour: %s, %zu frames, %.0f m at speed %.3f\n",
              walk ? "walk" : "tram", tour.size(),
              workload::TourDistance(tour), o.tour.target_speed);

  core::RunMetrics metrics;
  if (o.client == fleet::ClientKind::kStreaming) {
    metrics = system->RunStreaming(tour, o.streaming);
  } else if (o.client == fleet::ClientKind::kNaive) {
    metrics = system->RunNaiveObject(tour, o.naive);
  } else {
    metrics = system->RunBuffered(tour, o.buffered);
  }

  std::printf("\n-- metrics --\n");
  std::printf("frames                  : %lld\n",
              static_cast<long long>(metrics.frames));
  std::printf("demand bytes            : %s\n",
              common::FormatBytes(metrics.demand_bytes).c_str());
  std::printf("prefetch bytes          : %s\n",
              common::FormatBytes(metrics.prefetch_bytes).c_str());
  std::printf("mean response / frame   : %.3f s\n",
              metrics.MeanResponseSeconds());
  std::printf("mean response / query   : %.3f s\n",
              metrics.MeanResponsePerExchange());
  std::printf("cache hit rate          : %.1f %%\n",
              100.0 * metrics.cache_hit_rate);
  std::printf("prefetch utilization    : %.1f %%\n",
              100.0 * metrics.data_utilization);
  std::printf("index I/O per frame     : %.1f\n",
              metrics.MeanNodeAccesses());
  if (o.system.link.loss_probability > 0.0 ||
      o.system.fault.outage_rate_per_hour > 0.0) {
    std::printf("link retries            : %lld\n",
                static_cast<long long>(metrics.retries));
    std::printf("exchange timeouts       : %lld\n",
                static_cast<long long>(metrics.timeouts));
    std::printf("outage frames           : %lld\n",
                static_cast<long long>(metrics.outage_frames));
    std::printf("stale frames            : %lld\n",
                static_cast<long long>(metrics.stale_frames));
    std::printf("worst stale run         : %lld frames\n",
                static_cast<long long>(metrics.max_stale_run_frames));
  }
  if (o.system.shards > 1) {
    std::printf("\n-- shards --\n");
    PrintShardStats(*system);
  }
  PrintStorageSummary(*system);
  PrintPoolStats(*system);
  PrintRebalanceSummary(*system);
  PrintRebalanceJson(*system);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseFlags(argc, argv, &options)) {
    Usage();
    return 2;
  }
  if (options.command == "generate") return Generate(options);
  if (options.command == "info") return Info(options);
  if (options.command == "run") return Run(options);
  Usage();
  return 2;
}
