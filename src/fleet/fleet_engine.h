#ifndef MARS_FLEET_FLEET_ENGINE_H_
#define MARS_FLEET_FLEET_ENGINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "core/system.h"
#include "net/cell_topology.h"
#include "qos/adaptive_ladder.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/shared_link.h"
#include "server/admission.h"
#include "server/hot_cache.h"
#include "server/inflight_table.h"
#include "server/server.h"
#include "workload/tour.h"

namespace mars::fleet {

// Which client implementation a fleet member runs.
enum class ClientKind {
  kStreaming,  // incremental continuous retrieval (Sec. IV)
  kBuffered,   // full motion-aware system (Secs. IV + V)
  kNaive,      // full-resolution objects + LRU baseline (Sec. VII-E)
};

// One fleet member. Everything that varies per client lives here; every
// seed below must be a function of the client id only (never of the fleet
// size), so that client i behaves identically whether it runs alone or
// among N others — the basis of the session-isolation tests.
struct ClientSpec {
  int32_t id = 0;
  ClientKind kind = ClientKind::kStreaming;
  workload::TourKind tour_kind = workload::TourKind::kTram;
  double speed = 0.5;        // normalized cruise speed
  int32_t frames = 200;      // tour length in query frames
  uint64_t seed = 1;         // client-side randomness (loss, channel, rng)
  uint64_t tour_seed = 7;    // trajectory randomness
  double query_fraction = 0.05;
  int64_t buffer_bytes = 64 * 1024;  // buffered/naive local budget
  // When this client's first frame fires, staggering fleet arrivals on
  // the shared cell.
  double start_offset_seconds = 0.0;
  // Co-moving group membership (workload::GroupTourGenerator). -1 (the
  // default) keeps the historical independent tour — a strict
  // passthrough. >= 0 makes this client member `group_member` of the
  // group whose shared base trajectory is seeded by tour_seed: the tour
  // becomes a per-member jittered copy of that base, still a function of
  // (tour_seed, group_member) only.
  int32_t group_member = -1;
};

// Budget of the fleet's shared hot-encoding cache (server/hot_cache.h).
inline constexpr int64_t kHotCacheBytes = 256 * 1024;

struct FleetOptions {
  // Seconds of virtual time between a client's query frames.
  double frame_interval_seconds = 1.0;
  // Worker threads for the parallel phase (1 = fully serial reference).
  int32_t workers = 1;
  // Number of radio cells tiling the ground plane (net/cell_topology.h).
  // 1 (the default) is the classic single shared cell — a strict
  // bit-identical passthrough. With K > 1 each client is served by the
  // cell covering its position and handed over when it crosses into
  // another cell or its cell goes down (failover to the nearest healthy
  // neighbour).
  int32_t cells = 1;
  // Per-cell link options. Cell 0 uses these verbatim; cells k > 0
  // derive their loss seed from loss_seed and k.
  net::SharedMediumLink::Options cell;
  // Per-cell fault schedule (outages stall the whole cell at once).
  // Cell 0 uses the seed verbatim; cells k > 0 derive theirs from it.
  net::FaultSchedule::Options cell_fault;
  // Deterministic forced cell outages, injected into the named cell's
  // fault schedule at construction — the chaos/bench hook for "cell k
  // dies at t for d seconds" scenarios.
  struct CellOutage {
    int32_t cell = 0;
    double start = 0.0;
    double duration = 0.0;
  };
  std::vector<CellOutage> cell_outages;
  // Server-side admission control on the shared cell (disabled by
  // default, so a fleet behaves exactly as before unless opted in).
  server::AdmissionController::Options admission;
  // Cross-client request coalescing (server/inflight_table.h): records
  // already riding another client's cell transfer are attached to that
  // carrier instead of re-sent, and each tick's overlapping cache misses
  // are encoded once instead of once per client. Disabled by default: the
  // table then attaches nothing, so no exchange has a carrier. Requires
  // the weighted-fair cell discipline: coalesced delivery resolution
  // relies on WFQ's per-client FIFO completion order.
  server::InflightTable::Options coalesce;
  // Per-client adaptive resolution ladder (qos/adaptive_ladder.h): the
  // motion-aware clients close the loop from delivered goodput and
  // admission backpressure to their requested w_min. Disabled by default
  // — a strict bit-identical passthrough. Ladder state only mutates in
  // the serial phases from integer-microsecond virtual-clock input, so
  // fleet output stays byte-identical at any worker count.
  struct AbrConfig {
    bool enabled = false;
    qos::AdaptiveLadderPolicy::Options ladder;
  };
  AbrConfig abr;
};

// Per-client outcome.
struct ClientResult {
  ClientSpec spec;
  core::RunMetrics metrics;
  // Shared hot-encoding cache interactions attributed to this client.
  int64_t hot_hits = 0;
  int64_t hot_misses = 0;
  int64_t hot_bytes_saved = 0;  // encoding work short-circuited, in bytes
  // Cross-client coalescing (all zero with coalescing off).
  int64_t coalesce_hits = 0;         // records delivered via a carrier
  int64_t coalesce_attaches = 0;     // distinct carriers attached to
  int64_t coalesce_bytes_saved = 0;  // payload bytes not re-carried
  // Records this client wire-encoded (counted in both modes: the
  // server-side serialization work the coalescer deduplicates).
  int64_t encode_calls = 0;
  // Bytes this client actually charged to the shared cell (after
  // coalescing discounts; equals its wire bytes with coalescing off).
  int64_t cell_bytes = 0;
  // Multi-cell topology (all zero / home at K = 1).
  int32_t home_cell = 0;   // cell covering the tour's first point
  int32_t final_cell = 0;  // cell serving the client when the run ended
  int64_t handovers = 0;   // cell switches over the tour
  int64_t failovers = 0;   // handovers forced by an outage on the old cell
  // Adaptive-resolution state at the end of the run (all zero with ABR
  // off, and for naive clients, which have no resolution axis).
  qos::PolicySnapshot abr;
};

// Aggregate over all fleet members running one ClientKind — the
// per-class isolation view the fairness benchmarks report (is the
// motion-aware class's p99 protected from the naive class's bulk load?).
struct ClassStats {
  int64_t clients = 0;
  // Merge of the class members' metrics, folded in client-id order.
  core::RunMetrics metrics;
  // Per-class coalescing totals (summed in client-id order).
  int64_t coalesce_hits = 0;
  int64_t coalesce_attaches = 0;
  int64_t coalesce_bytes_saved = 0;
  int64_t encode_calls = 0;
  int64_t cell_bytes = 0;
};

struct FleetResult {
  std::vector<ClientResult> clients;  // ascending client id
  // Merge of every client's metrics, folded in client-id order.
  core::RunMetrics aggregate;
  // Per-kind aggregates, indexed by ClientKind's enumerator order
  // (streaming, buffered, naive).
  std::array<ClassStats, 3> by_kind;
  // Admission-control totals (all zero when admission is disabled).
  int64_t admitted_exchanges = 0;
  int64_t deferred_exchanges = 0;
  int64_t shed_exchanges = 0;
  // Largest cell backlog observed at a tick boundary (bytes queued).
  int64_t peak_cell_backlog_bytes = 0;
  // Shared-cell totals.
  int64_t cell_bytes = 0;
  int64_t cell_retries = 0;
  int64_t cell_timeouts = 0;
  double cell_outage_seconds = 0.0;
  // Hot-encoding cache totals.
  int64_t hot_hits = 0;
  int64_t hot_misses = 0;
  int64_t hot_bytes_saved = 0;
  int64_t hot_cache_entries = 0;
  int64_t hot_cache_bytes = 0;
  int64_t hot_cache_evictions = 0;
  // Per-shard hot-cache counters (always populated; the cache is on by
  // default).
  std::vector<server::HotRecordCache::ShardStats> hot_shards;
  // Cross-client coalescing totals (all zero with coalescing off).
  int64_t coalesce_hits = 0;
  int64_t coalesce_attaches = 0;
  int64_t coalesce_bytes_saved = 0;
  int64_t coalesce_refused = 0;  // attaches refused across cells
  int64_t coalesce_header_bytes = 0;
  // Records wire-encoded server-side across the whole run (both modes).
  int64_t encode_calls = 0;
  // Virtual time at which the run ended: the last tick, or the last
  // exchange's completion when the cells drained after it.
  double virtual_seconds = 0.0;

  // --- Multi-cell topology (empty / zero at K = 1) ---
  // Per-cell link totals, indexed by cell id.
  struct CellStats {
    int64_t bytes = 0;
    int64_t retries = 0;
    int64_t timeouts = 0;
    double outage_seconds = 0.0;
    int64_t peak_backlog_bytes = 0;
    int64_t handovers_in = 0;  // clients handed into this cell
  };
  std::vector<CellStats> cell_stats;  // size K when K > 1, else empty
  int64_t handovers = 0;   // total cell switches across the fleet
  int64_t failovers = 0;   // switches forced by an outage on the old cell
  // Transfers cancelled on a dead cell and re-submitted elsewhere
  // (migrated own transfers plus stranded-waiter re-issues).
  int64_t reissued_transfers = 0;
  int64_t reissued_bytes = 0;
  // Chaos invariants, MARS_CHECKed zero before Run() returns and
  // exported so the chaos harness can assert the checks actually ran:
  // streaming sessions whose pending set survived the final flush,
  // transfers that completed twice, inflight entries left after the
  // drain, and exchanges that were never booked.
  int64_t chaos_session_desyncs = 0;
  int64_t chaos_duplicate_deliveries = 0;
  int64_t chaos_stranded_waiters = 0;
  int64_t chaos_unresolved_exchanges = 0;
  // Adaptive-resolution totals (all zero with ABR off).
  int64_t abr_step_ups = 0;       // ladder climbs (w_min raised)
  int64_t abr_top_ups = 0;        // descents (detail topped back up)
  int32_t abr_max_ladder_step = 0;  // worst rung any client ended on
};

// Runs N heterogeneous clients concurrently against ONE shared server and
// ONE shared cell, in deterministic virtual time.
//
// Each tick the engine runs a two-phase step:
//
//   Phase A (parallel, thread pool): every client due at the tick first
//   passes admission — a pure policy decision against the tick-frozen
//   cell snapshot (deferred/shed clients stop here) — then steps: plans
//   its queries, executes them against the const shared Server (a
//   streaming client's session lives in its own state, which one worker
//   steps at a time), times its exchange on its private bearer, and
//   classifies its delivered records with read-only probes of the
//   inflight table and the hot-encoding cache. Records already in flight
//   need no encoding; the rest that miss the cache are encode candidates.
//   Nothing shared is mutated, so the phase is embarrassingly parallel.
//
//   Claim (serial, ascending client id): with coalescing on, each
//   candidate record is claimed by its lowest-id requester only, so one
//   tick encodes each record at most once fleet-wide; with it off, every
//   requester encodes its own misses. The claimed encodings then run on
//   the pool (parallel).
//
//   Phase B (serial, ascending client id): admission verdicts are
//   recorded (deferred frames are rescheduled after their backoff),
//   hot-cache touches/inserts are committed, and the client's exchange
//   is submitted to its cell (fair-queued per client): each
//   already-inflight record attaches the client to its carrier, which
//   costs one attach header per distinct carrier instead of the payload,
//   and the records the client now carries are registered. The client's
//   next frame is scheduled. The phase ends with one Server::Tick().
//   Then the cells advance to the next tick, and their completions book
//   delivery delays to clients.
//
// The phases are separated by the thread pool's batch barrier, and every
// write to the hot cache and the inflight table happens in a serial
// phase, so neither holds a lock.
//
// Every submitted exchange is pending until it is booked. One with no
// carrier is booked when its own transfer completes, with the cell's
// delay; with coalescing off the table attaches nothing, so every
// exchange is of this kind. One that attached to carriers is booked once
// they have drained too, with the latest of those delays; WFQ's
// deterministic per-client FIFO completion order makes that resolution
// worker-count-invariant.
//
// With a multi-cell topology (FleetOptions::cells > 1) each cell is its
// own SharedMediumLink + fault schedule + admission controller, and a
// serial *routing pre-phase* runs before phase A each tick, in client-id
// order: every client is assigned the cell covering its position, or —
// when that cell is in outage — the nearest healthy neighbour. A client
// whose cell changed hands over:
//
//   * voluntary crossing (old cell healthy): in-flight transfers finish
//     on the old cell (anchor forwarding) while new frames submit to the
//     new one — nothing is re-sent;
//   * outage failover (old cell down): the client's queued transfers are
//     cancelled and their remaining bytes re-submitted on the new cell,
//     with the delivery delay still measured from the *original*
//     submission; carriers it owned strand their waiters (the shared
//     copy died with the cell), and each stranded waiter deterministically
//     re-issues the payload on its own current cell.
//
// Every cell advance is applied in cell-id order and every handover
// decision is made serially, so the worker-count invariance holds at any
// K; the expensive per-cell fluid drains themselves run on the pool in
// parallel across cells. Because every cross-client effect happens in a
// serial phase in a fixed order, a fleet run is bit-identical at any
// worker count: same seeds in, same per-client and aggregate metrics
// out, whether workers=1 or 8 — and with cells=1 the engine is a strict
// bit-identical passthrough of the single-cell era.
class FleetEngine {
 public:
  FleetEngine(const core::System& system, FleetOptions options,
              std::vector<ClientSpec> specs);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  // Runs every client's full tour; returns when the cell has drained.
  FleetResult Run();

  // Server-side session of streaming client `id` (null for the other
  // kinds, which keep none). Valid for the engine's lifetime.
  const server::ClientSession* session(int32_t id) const;

  // A standard mixed fleet: client i runs kind i%3 (streaming, buffered,
  // naive) on tour kind i%2 (tram, pedestrian), with id-derived seeds and
  // staggered start offsets. Client i's spec depends only on (i, frames,
  // speed, seed) — not on n.
  static std::vector<ClientSpec> MakeMixedFleet(int32_t n, int32_t frames,
                                                double speed, uint64_t seed);

 private:
  struct ClientState;

  // A transfer's identity across the topology: (cell, client, seq) —
  // sequence numbers are only unique per (cell, client).
  using TransferKey = std::tuple<int32_t, int32_t, int64_t>;

  std::unique_ptr<ClientState> BuildState(const ClientSpec& spec);
  void StepClient(ClientState* state);    // phase A (any worker thread)
  void CommitClient(ClientState* state);  // phase B (engine thread only)
  void FinishClient(ClientState* state);
  // Handover pre-phase (serial, engine thread; a no-op at K = 1):
  // reassigns every client to the healthy cell covering its position and
  // migrates in-flight state off dead cells.
  void RouteClients(double tick_seconds);
  // Re-submits `bytes` for `state` on its current cell and returns the
  // new transfer's key (handover migration bookkeeping).
  TransferKey Reissue(ClientState* state, int64_t bytes, double speed);

  const core::System& system_;
  FleetOptions options_;
  net::CellTopology topology_;
  server::HotRecordCache hot_cache_;
  server::InflightTable inflight_;
  std::vector<std::unique_ptr<ClientState>> states_;
  // Id -> state lookup (built once in the constructor; states_ owns).
  std::unordered_map<int32_t, ClientState*> by_id_;
  // Per-cell serving state, indexed by cell id (size K).
  std::vector<std::unique_ptr<server::AdmissionController>> admission_;
  std::vector<std::unique_ptr<net::FaultSchedule>> cell_faults_;
  std::vector<std::unique_ptr<net::SharedMediumLink>> cells_;

  // --- Run() bookkeeping (engine thread only) ---
  // Absolute finish times of drained carriers (transfers that still
  // carried inflight entries) and stranded-waiter substitutes: what an
  // exchange with carriers waits on.
  std::map<TransferKey, double> finish_at_;
  // Stranded-waiter re-issue transfers: completions land in finish_at_
  // instead of completing a pending exchange's own transfer.
  std::set<TransferKey> waiter_reissues_;
  // Bytes submitted per in-flight transfer, kept only while ABR is on:
  // SharedMediumLink completions carry no byte count, and the ladder's
  // goodput EWMA needs one (erased as each completion is booked).
  std::map<TransferKey, int64_t> submitted_bytes_;
  std::vector<FleetResult::CellStats> cell_stats_;
  int64_t handovers_ = 0;
  int64_t failovers_ = 0;
  int64_t reissued_transfers_ = 0;
  int64_t reissued_bytes_ = 0;
  int64_t chaos_duplicates_ = 0;
};

}  // namespace mars::fleet

#endif  // MARS_FLEET_FLEET_ENGINE_H_
