#include "fleet/fleet_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/frame_client.h"
#include "fleet/virtual_clock.h"
#include "server/wire_codec.h"

namespace mars::fleet {

// All per-client simulation state. During phase A exactly one worker
// touches a given ClientState; the shared Server/ObjectDatabase are only
// read, and the hot cache and inflight table are only probed through
// const Lookup/Probe. The tick scratch fields carry phase A's shared-side
// effects into phase B.
struct FleetEngine::ClientState {
  ClientSpec spec;
  std::vector<workload::TourPoint> tour;
  std::unique_ptr<net::SimulatedLink> link;  // private bearer
  // Server-side session of a streaming client (the other kinds keep
  // none): the duplicate filter carried across the whole tour. The state
  // is heap-allocated and never moves, so the client's pointer to it
  // stays valid.
  std::optional<server::ClientSession> session;
  std::optional<core::FrameClient> client;
  // Adaptive resolution ladder (null with ABR off, and for naive clients
  // — whole-object retrieval has no resolution axis). The client reads it
  // through the const ResolutionPolicy interface during phase A; the
  // engine's serial phases feed it backpressure and delivery samples.
  std::unique_ptr<qos::AdaptiveLadderPolicy> abr;

  int32_t next_frame = 0;
  core::RunMetrics metrics;
  int64_t hot_hits = 0;
  int64_t hot_misses = 0;
  int64_t hot_bytes_saved = 0;

  // Coalescing lifetime counters (stay zero with coalescing off, except
  // encode_calls, which counts in both modes).
  int64_t coalesce_hits = 0;
  int64_t coalesce_attaches = 0;
  int64_t coalesce_bytes_saved = 0;
  int64_t encode_calls = 0;
  int64_t cell_bytes = 0;
  // Per-cell submission sequence cursor (size K; index = cell id).
  std::vector<int64_t> next_submit_seq;

  // Multi-cell routing state (cell 0 / zero at K = 1).
  int32_t cell = 0;       // cell currently serving this client
  int32_t home_cell = 0;  // cell covering the tour's first point
  int64_t handovers = 0;
  int64_t failovers = 0;

  // A submitted exchange not yet booked. One without carriers is booked
  // when its own transfer completes; one that attached to carriers waits
  // until they have drained too.
  struct PendingExchange {
    int64_t seq = 0;
    int32_t cell = 0;  // cell the own transfer currently rides on
    double submit_seconds = 0.0;
    // The own transfer was cancelled off a dead cell and re-issued, so
    // its delay runs from submit_seconds, not from the re-submission.
    bool reissued = false;
    double own_delay = -1.0;  // < 0 while the own transfer is in flight
    std::vector<server::InflightTable::Carrier> carriers;
  };
  std::deque<PendingExchange> pending;  // engine thread only, FIFO by seq

  // Admission control: times the *current* frame has been deferred, and
  // the last admitted exchange's wire bytes — the size estimate the next
  // admission decision is made against (0 until the first exchange).
  int32_t consecutive_defers = 0;
  int64_t last_wire_bytes = 0;

  // Tick scratch: written by this client's phase-A task, consumed by the
  // serial phase-B commit.
  int64_t wire_bytes = 0;  // successful exchanges' bytes for the cell
  double tick_speed = 0.0;
  server::AdmissionController::Request adm_request;
  server::AdmissionController::Verdict adm_verdict;
  std::vector<index::RecordId> hot_touch;
  // The records missed by both the inflight table and the cache, with
  // their encodings: phase A lists the misses, the claim step keeps the
  // ones this client encodes, and the encode batch fills them in.
  std::vector<std::pair<index::RecordId, std::vector<uint8_t>>> hot_insert;
  // This tick's delivered records, ascending and distinct.
  std::vector<index::RecordId> tick_records;
};

FleetEngine::FleetEngine(const core::System& system, FleetOptions options,
                         std::vector<ClientSpec> specs)
    : system_(system),
      options_(options),
      hot_cache_(options.hot_cache_bytes),
      inflight_(options.coalesce) {
  // Coalesced delivery resolution needs the cell's per-client FIFO
  // completion order, which only WFQ provides (equal share drains every
  // transfer simultaneously).
  if (inflight_.enabled()) {
    MARS_CHECK(options_.cell.discipline ==
               net::SharedMediumLink::Discipline::kWeightedFair);
  }
  MARS_CHECK_GE(options_.cells, 1);
  const int32_t num_cells = options_.cells;
  topology_ = net::CellTopology::Build(system_.space(), num_cells);
  admission_.reserve(static_cast<size_t>(num_cells));
  cell_faults_.reserve(static_cast<size_t>(num_cells));
  cells_.reserve(static_cast<size_t>(num_cells));
  cell_stats_.resize(static_cast<size_t>(num_cells));
  for (int32_t k = 0; k < num_cells; ++k) {
    // Cell 0 takes the configured options verbatim (the K = 1
    // passthrough); later cells decorrelate their stochastic streams by
    // mixing the cell id into the seeds.
    net::FaultSchedule::Options fault_opts = options_.cell_fault;
    if (k > 0) {
      fault_opts.seed +=
          0x9E3779B97F4A7C15ull * static_cast<uint64_t>(k);
    }
    auto fault = std::make_unique<net::FaultSchedule>(fault_opts);
    for (const FleetOptions::CellOutage& outage : options_.cell_outages) {
      if (outage.cell == k) fault->InjectOutage(outage.start, outage.duration);
    }
    net::SharedMediumLink::Options link_opts = options_.cell;
    if (k > 0) {
      link_opts.loss_seed +=
          0xC2B2AE3D27D4EB4Full * static_cast<uint64_t>(k);
    }
    auto link = std::make_unique<net::SharedMediumLink>(link_opts);
    if (fault->enabled()) link->AttachFaultSchedule(fault.get());
    admission_.push_back(
        std::make_unique<server::AdmissionController>(options_.admission));
    cell_faults_.push_back(std::move(fault));
    cells_.push_back(std::move(link));
  }

  std::sort(specs.begin(), specs.end(),
            [](const ClientSpec& a, const ClientSpec& b) {
              return a.id < b.id;
            });
  states_.reserve(specs.size());
  by_id_.reserve(specs.size());
  for (const ClientSpec& spec : specs) {
    MARS_CHECK(states_.empty() || states_.back()->spec.id < spec.id);
    states_.push_back(BuildState(spec));
    ClientState* state = states_.back().get();
    state->next_submit_seq.assign(static_cast<size_t>(num_cells), 0);
    if (!state->tour.empty()) {
      state->cell = topology_.CellAt(state->tour.front().position);
      state->home_cell = state->cell;
    }
    by_id_.emplace(spec.id, state);
  }
}

FleetEngine::~FleetEngine() = default;

std::unique_ptr<FleetEngine::ClientState> FleetEngine::BuildState(
    const ClientSpec& spec) {
  auto state = std::make_unique<ClientState>();
  state->spec = spec;

  workload::TourOptions tour;
  tour.kind = spec.tour_kind;
  tour.space = system_.space();
  tour.target_speed = spec.speed;
  tour.frames = spec.frames;
  tour.frame_interval = options_.frame_interval_seconds;
  tour.seed = spec.tour_seed;
  if (spec.group_member >= 0) {
    // Co-moving group: a jittered copy of the shared base trajectory.
    // Member m's tour depends only on (tour options, m), so the group
    // generator can be rebuilt per client without breaking isolation.
    workload::GroupTourGenerator::Options group;
    group.base = tour;
    group.members = spec.group_member + 1;
    group.position_jitter_m = spec.group_position_jitter_m;
    group.speed_jitter = spec.group_speed_jitter;
    state->tour = workload::GroupTourGenerator(group).Tour(spec.group_member);
  } else {
    state->tour = workload::GenerateTour(tour);
  }
  state->spec.frames = std::min<int32_t>(
      spec.frames, static_cast<int32_t>(state->tour.size()));

  // Every derived seed is a function of the spec (hence the client id)
  // only — never of the fleet size.
  net::SimulatedLink::Options link_opts = options_.client_link;
  link_opts.loss_seed = spec.seed * 0x9E3779B97F4A7C15ull + 1;
  state->link = std::make_unique<net::SimulatedLink>(link_opts);

  // ABR: the motion-aware clients read their w_min through a per-client
  // adaptive ladder instead of the static map. Naive clients retrieve
  // whole objects — there is no resolution to adapt.
  if (options_.abr.enabled && spec.kind != ClientKind::kNaive) {
    state->abr = std::make_unique<qos::AdaptiveLadderPolicy>(
        options_.abr.ladder);
  }

  core::FrameClient::Options options;
  server::ClientSession* session = nullptr;
  switch (spec.kind) {
    case ClientKind::kStreaming: {
      auto& opts = options.emplace<client::StreamingClient::Options>();
      opts.query_fraction = spec.query_fraction;
      opts.policy = state->abr.get();
      opts.channel.seed = spec.seed * 31 + 7;
      session = &state->session.emplace();
      break;
    }
    case ClientKind::kBuffered: {
      auto& opts = options.emplace<client::BufferedClient::Options>();
      opts.query_fraction = spec.query_fraction;
      opts.policy = state->abr.get();
      opts.buffer_bytes = spec.buffer_bytes;
      opts.seed = spec.seed;
      opts.channel.seed = spec.seed * 31 + 7;
      break;
    }
    case ClientKind::kNaive: {
      auto& opts = options.emplace<client::NaiveObjectClient::Options>();
      opts.query_fraction = spec.query_fraction;
      opts.cache_bytes = spec.buffer_bytes;
      break;
    }
  }
  state->client.emplace(options, system_.space(), &system_.server(),
                        state->link.get(), session);
  return state;
}

void FleetEngine::StepClient(ClientState* state) {
  const workload::TourPoint& point =
      state->tour[static_cast<size_t>(state->next_frame)];
  state->wire_bytes = 0;
  state->tick_speed = point.speed;
  state->hot_touch.clear();
  state->hot_insert.clear();
  state->tick_records.clear();

  core::RunMetrics& m = state->metrics;

  // Admission check against the tick-frozen cell. The cell is only
  // mutated by the serial phases, so these reads — and the pure
  // Decide() — give every worker interleaving the same verdict.
  state->adm_verdict = server::AdmissionController::Verdict{};
  const server::AdmissionController& admission = *admission_[state->cell];
  if (admission.enabled()) {
    const net::SharedMediumLink& cell = *cells_[state->cell];
    server::AdmissionController::Request req;
    req.client = state->spec.id;
    req.bytes = state->last_wire_bytes;
    // Naive full-resolution re-retrievals are the cell's bulk traffic:
    // the client can keep serving its LRU cache instead. The
    // motion-aware clients' incremental demand exchanges are not
    // sheddable.
    req.deferrable = state->spec.kind == ClientKind::kNaive;
    req.prior_defers = state->consecutive_defers;
    req.client_backlog_bytes = cell.client_backlog_bytes(state->spec.id);
    req.client_queue_depth = cell.client_queue_depth(state->spec.id);
    req.cell_backlog_bytes = cell.backlog_bytes();
    state->adm_request = req;
    state->adm_verdict = admission.Decide(req);
    switch (state->adm_verdict.decision) {
      case server::AdmissionController::Decision::kAdmit:
        break;
      case server::AdmissionController::Decision::kDefer:
        // The engine retries this frame after the backoff; the client
        // adapts (transport pacing, prefetch suppression, window shrink).
        state->client->Defer(state->adm_verdict.retry_after_seconds, &m);
        ++state->consecutive_defers;
        return;
      case server::AdmissionController::Decision::kShed:
        // The frame runs without its exchange, and the tour moves on.
        state->client->Shed(&m);
        state->consecutive_defers = 0;
        return;
    }
    state->consecutive_defers = 0;
  }

  core::Frame frame = state->client->Step(point.position, point.speed, &m);
  // The fleet also counts a buffered client's delivered records, which
  // System::RunBuffered leaves at 0.
  if (state->spec.kind == ClientKind::kBuffered) {
    m.records_delivered += static_cast<int64_t>(frame.records.size());
  }
  state->wire_bytes = frame.wire_bytes;
  if (state->wire_bytes > 0) state->last_wire_bytes = state->wire_bytes;
  std::vector<index::RecordId>& delivered = state->tick_records;
  delivered = std::move(frame.records);

  // Classify this tick's delivered records against the tick-frozen shared
  // structures — read-only probes, so the outcome cannot depend on worker
  // interleaving. A record already riding another client's transfer
  // needs neither cache accounting nor an encoding: the serial commit
  // attaches this client to its carrier. A cache miss is encoded after
  // the serial claim step (see Run()), and installed by the commit.
  std::sort(delivered.begin(), delivered.end());
  delivered.erase(std::unique(delivered.begin(), delivered.end()),
                  delivered.end());
  for (const index::RecordId id : delivered) {
    if (inflight_.Probe(id) >= 0 || !hot_cache_.enabled()) continue;
    const int64_t cached_bytes = hot_cache_.Lookup(id);
    if (cached_bytes >= 0) {
      ++state->hot_hits;
      state->hot_bytes_saved += cached_bytes;
      state->hot_touch.push_back(id);
    } else {
      ++state->hot_misses;
      state->hot_insert.emplace_back(id, std::vector<uint8_t>());
    }
  }
}

void FleetEngine::CommitClient(ClientState* state) {
  for (const index::RecordId id : state->hot_touch) hot_cache_.Touch(id);
  for (auto& [id, blob] : state->hot_insert) {
    hot_cache_.Insert(id, std::move(blob));
  }
  state->hot_touch.clear();
  state->hot_insert.clear();
  if (state->wire_bytes <= 0) return;
  const int32_t cell_id = state->cell;
  net::SharedMediumLink* cell = cells_[cell_id].get();
  // Records already in flight ride their carrier's transfer, so this
  // client is charged its exchange minus those payloads plus one attach
  // header per distinct carrier; with coalescing off nothing is in
  // flight, and the charge is the exchange's wire bytes. Commits run in
  // ascending client id, so a record first requested this tick is
  // registered by its lowest-id requester before the others reach their
  // Attach().
  using AttachOutcome = server::InflightTable::AttachOutcome;
  int64_t shared_bytes = 0;
  std::vector<server::InflightTable::Carrier> carriers;
  std::vector<std::pair<index::RecordId, int64_t>> owned;
  for (const index::RecordId rec : state->tick_records) {
    const int64_t bytes = system_.db().record(rec).wire_bytes;
    const auto attach = inflight_.Attach(rec, state->spec.id, cell_id);
    switch (attach.outcome) {
      case AttachOutcome::kAttached:
        shared_bytes += bytes;
        ++state->coalesce_hits;
        state->coalesce_bytes_saved += bytes;
        if (std::find(carriers.begin(), carriers.end(), attach.carrier) ==
            carriers.end()) {
          carriers.push_back(attach.carrier);
        }
        break;
      case AttachOutcome::kNotInflight:
        owned.emplace_back(rec, bytes);
        break;
      case AttachOutcome::kRefused:
        // The carrier rides another cell: the payload is still in flight
        // (re-registering would double-serve it), but this client pays
        // full freight.
        break;
    }
  }
  const int64_t header_bytes = static_cast<int64_t>(carriers.size()) *
                               server::InflightTable::kAttachHeaderBytes;
  state->coalesce_attaches += static_cast<int64_t>(carriers.size());
  const int64_t charged = state->wire_bytes - shared_bytes + header_bytes;
  // The exchange always carries at least its own request/response
  // framing, which is never coalesced.
  MARS_CHECK_GT(charged, 0);
  const int64_t seq =
      cell->Submit(state->spec.id, charged, state->tick_speed);
  MARS_CHECK_EQ(seq, state->next_submit_seq[cell_id]);
  ++state->next_submit_seq[cell_id];
  state->cell_bytes += charged;
  if (state->abr != nullptr) {
    // The ladder's goodput tracks what actually rides the cell: the
    // coalescing discount is bandwidth genuinely delivered elsewhere.
    submitted_bytes_.emplace(TransferKey{cell_id, state->spec.id, seq},
                             charged);
  }
  for (const auto& [rec, bytes] : owned) {
    inflight_.Register(rec, state->spec.id, seq, bytes, cell_id);
  }
  ClientState::PendingExchange exchange;
  exchange.seq = seq;
  exchange.cell = cell_id;
  exchange.submit_seconds = cell->now();
  exchange.carriers = std::move(carriers);
  state->pending.push_back(std::move(exchange));
}

const server::ClientSession* FleetEngine::session(int32_t id) const {
  const ClientState& state = *by_id_.at(id);
  return state.session.has_value() ? &*state.session : nullptr;
}

void FleetEngine::FinishClient(ClientState* state) {
  state->client->Finish(&state->metrics);
  state->metrics.tour_distance = workload::TourDistance(state->tour);
}

FleetResult FleetEngine::Run() {
  VirtualScheduler scheduler;
  common::ThreadPool pool(options_.workers);
  const int64_t frame_micros =
      net::SimClock::ToMicros(options_.frame_interval_seconds);
  MARS_CHECK_GT(frame_micros, 0);

  for (const auto& state : states_) {
    if (state->spec.frames > 0) {
      scheduler.Schedule(
          net::SimClock::ToMicros(state->spec.start_offset_seconds),
          state->spec.id);
    }
  }

  const int32_t num_cells = options_.cells;
  int64_t peak_backlog = 0;
  // Delivery delay on the shared cell is the fleet's response time; each
  // booked exchange is one demand exchange.
  const auto book = [](ClientState* state, double response) {
    state->metrics.total_response_seconds += response;
    state->metrics.response_histogram.Add(response);
    ++state->metrics.demand_exchanges;
  };
  // Book one cell's drained completions, in the cell's deterministic
  // completion order. Cells are always recorded in ascending cell id, so
  // the booking sequence is worker-count-invariant.
  const auto record_completions =
      [&](int32_t cell_id,
          const std::vector<net::SharedMediumLink::Completion>& done) {
        for (const net::SharedMediumLink::Completion& c : done) {
          ClientState* state = by_id_.at(c.client);
          const TransferKey key{cell_id, c.client, c.seq};
          // ABR goodput samples: booked per completion in the same serial,
          // cell-id-then-completion order as everything else, with the
          // finish time quantized to integer microseconds — deterministic
          // at any worker count.
          if (state->abr != nullptr) {
            const auto bit = submitted_bytes_.find(key);
            if (bit != submitted_bytes_.end()) {
              state->abr->OnDelivered(
                  bit->second, net::SimClock::ToMicros(c.finish_seconds));
              submitted_bytes_.erase(bit);
            }
          }
          if (waiter_reissues_.erase(key) > 0) {
            // A stranded-waiter re-issue: it substitutes for a dead
            // carrier, so it only needs a finish time — it is nobody's
            // own transfer.
            if (!finish_at_.emplace(key, c.finish_seconds).second) {
              ++chaos_duplicates_;
            }
            continue;
          }
          // Seqs are unique per (cell, client) and never reused, so the
          // completion maps to exactly one pending exchange; under WFQ on
          // one cell it is the front. Matching by (cell, seq) — not by
          // FIFO position — matters after a migration: a re-issued
          // exchange takes a *later* seq on its new cell while keeping
          // its *earlier* place in the deque. Under equal share a
          // client's transfers also complete out of seq order.
          const int64_t seq = c.seq;
          auto it = std::find_if(
              state->pending.begin(), state->pending.end(),
              [cell_id, seq](const ClientState::PendingExchange& e) {
                return e.cell == cell_id && e.seq == seq &&
                       e.own_delay < 0.0;
              });
          MARS_CHECK(it != state->pending.end());
          // The carried payloads are delivered: retire the transfer's
          // inflight entries so later requesters re-fetch (or hit the
          // hot cache) instead of attaching to a drained carrier. Only a
          // transfer that still carried entries can be another
          // exchange's carrier, so only its finish time is kept.
          if (inflight_.OnTransferComplete(c.client, c.seq, cell_id) > 0 &&
              !finish_at_.emplace(key, c.finish_seconds).second) {
            ++chaos_duplicates_;
          }
          // A transfer that was cancelled off a dead cell and re-issued
          // reports the delay from its *original* submission.
          const double delay = it->reissued
                                   ? c.finish_seconds - it->submit_seconds
                                   : c.response_seconds;
          if (it->carriers.empty()) {
            book(state, delay);
            state->pending.erase(it);
          } else {
            it->own_delay = delay;
          }
        }
      };
  // Book, in client-id order, the exchanges that attached to carriers: an
  // exchange's response time runs until its own transfer and every
  // carrier it attached to drained. Runs once per tick, after every
  // cell's completions were recorded.
  const auto resolve_pending = [&] {
    for (const auto& owned : states_) {
      ClientState* state = owned.get();
      while (!state->pending.empty() &&
             state->pending.front().own_delay >= 0.0) {
        ClientState::PendingExchange& ex = state->pending.front();
        double response = ex.own_delay;
        bool ready = true;
        for (const auto& carrier : ex.carriers) {
          const auto fit = finish_at_.find(TransferKey{
              carrier.cell, carrier.owner, carrier.transfer_seq});
          if (fit == finish_at_.end()) {
            ready = false;
            break;
          }
          response = std::max(response, fit->second - ex.submit_seconds);
        }
        if (!ready) break;
        book(state, response);
        state->pending.pop_front();
      }
    }
  };

  while (!scheduler.empty()) {
    const int64_t tick = scheduler.NextMicros();
    const double tick_seconds = net::SimClock::ToSeconds(tick);
    // Drain every cell up to this instant first: a transfer finishing at
    // the tick edge completes before the tick's new submissions queue.
    // The fluid drains are independent per cell, so they run on the pool;
    // their completions are *booked* serially in cell-id order, keeping
    // the result worker-count-invariant.
    std::vector<std::vector<net::SharedMediumLink::Completion>> done(
        static_cast<size_t>(num_cells));
    std::vector<std::function<void()>> advance_tasks;
    for (int32_t k = 0; k < num_cells; ++k) {
      if (tick_seconds <= cells_[k]->now()) continue;
      advance_tasks.push_back([this, k, tick_seconds, &done] {
        done[k] = cells_[k]->Advance(tick_seconds - cells_[k]->now());
      });
    }
    pool.RunBatch(advance_tasks);
    for (int32_t k = 0; k < num_cells; ++k) {
      if (!done[k].empty()) record_completions(k, done[k]);
    }
    resolve_pending();
    // Handover pre-phase: reroute clients before any of them steps.
    RouteClients(tick_seconds);
    scheduler.clock().AdvanceTo(tick_seconds);

    const std::vector<int32_t> due = scheduler.PopDue(tick);
    // Phase A: all due clients step in parallel; each task touches only
    // its own ClientState plus const shared structures.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(due.size());
    for (const int32_t id : due) {
      tasks.push_back([this, state = by_id_.at(id)] { StepClient(state); });
    }
    pool.RunBatch(tasks);
    // Claim (serial): hand out this tick's cache misses for encoding in
    // client-id order. With coalescing on, of a tick's requesters of a
    // record exactly the first encodes it; the rest attach to its
    // registration at commit time. With it off, every requester encodes
    // its own misses.
    std::unordered_set<index::RecordId> tick_claims;
    std::vector<std::function<void()>> encode_tasks;
    for (const int32_t id : due) {
      ClientState* state = by_id_.at(id);
      if (inflight_.enabled()) {
        std::erase_if(state->hot_insert, [&](const auto& miss) {
          return !tick_claims.insert(miss.first).second;
        });
      }
      if (state->hot_insert.empty()) continue;
      encode_tasks.push_back([this, state] {
        for (auto& [rec, encoded] : state->hot_insert) {
          encoded = server::EncodeRecords(system_.db(), {rec});
        }
        state->encode_calls += static_cast<int64_t>(state->hot_insert.size());
      });
    }
    // The claimed encodings are the tick's serialization work, spread
    // across the pool (parallel).
    pool.RunBatch(encode_tasks);
    // Phase B: commit shared side effects in ascending client id (PopDue
    // returns ids sorted), then reschedule.
    using Decision = server::AdmissionController::Decision;
    for (const int32_t id : due) {
      ClientState* state = by_id_.at(id);
      server::AdmissionController& admission = *admission_[state->cell];
      if (admission.enabled()) {
        admission.Record(state->adm_request, state->adm_verdict);
        // Close the QoS loop: backpressure verdicts climb the client's
        // resolution ladder (serial phase, integer-microsecond input).
        if (state->abr != nullptr &&
            state->adm_verdict.decision != Decision::kAdmit) {
          state->abr->OnBackpressure(
              state->adm_verdict.decision == Decision::kShed
                  ? qos::BackpressureKind::kShed
                  : qos::BackpressureKind::kDefer,
              tick);
        }
      }
      if (state->adm_verdict.decision == Decision::kDefer) {
        // The frame did not run; retry it after the backoff hint.
        scheduler.Schedule(
            tick + std::max<int64_t>(
                       1, net::SimClock::ToMicros(
                              state->adm_verdict.retry_after_seconds)),
            id);
        continue;
      }
      CommitClient(state);
      // Feeds the server's motion predictors (disk store with motion
      // eviction); the tick below installs one refreshed interest field.
      system_.server().ObserveClientMotion(
          id, state->tour[static_cast<size_t>(state->next_frame)].position);
      ++state->next_frame;
      if (state->next_frame < state->spec.frames) {
        // A frame deferred past its successor's slot pushes the
        // successor to strictly after this tick; on the regular cadence
        // the max() is a no-op.
        scheduler.Schedule(
            std::max<int64_t>(
                net::SimClock::ToMicros(state->spec.start_offset_seconds) +
                    static_cast<int64_t>(state->next_frame) * frame_micros,
                tick + 1),
            id);
      }
    }
    // The serial phase's server tick. Its rebalancer works off atomically
    // summed per-shard counters, and its warm reads overlap only the next
    // parallel phase, so fleet metrics stay byte-identical at any worker
    // count.
    system_.server().Tick();
    for (int32_t k = 0; k < num_cells; ++k) {
      const int64_t backlog = cells_[k]->backlog_bytes();
      cell_stats_[k].peak_backlog_bytes =
          std::max(cell_stats_[k].peak_backlog_bytes, backlog);
      peak_backlog = std::max(peak_backlog, backlog);
    }
  }
  // Settle the trailing speculative batch so the pool counters the run
  // reports are stable and deterministic.
  system_.server().WarmPoolsJoin();
  // Final drain, cell by cell in id order, then one last resolution pass
  // (a cross-cell carrier may finish after the waiting exchange's cell).
  for (int32_t k = 0; k < num_cells; ++k) {
    record_completions(k, cells_[k]->DrainAll());
  }
  resolve_pending();

  FleetResult result;
  // Chaos invariants: counted first so a violated invariant is exported
  // (and FATALs) rather than silently folded into the totals.
  result.chaos_duplicate_deliveries = chaos_duplicates_;
  // Every transfer has drained, so every exchange was booked and every
  // inflight entry was retired (or cancelled + re-issued).
  for (const auto& state : states_) {
    result.chaos_unresolved_exchanges +=
        static_cast<int64_t>(state->pending.size());
  }
  result.chaos_stranded_waiters = inflight_.entries();

  result.clients.reserve(states_.size());
  for (const auto& owned : states_) {
    ClientState* state = owned.get();
    FinishClient(state);
    // Session handover safety: the final flush committed the trailing
    // delivery, so a pending set that survived it is a client/server
    // desync — records delivered but never acknowledged, or vice versa.
    if (state->session.has_value() && !state->session->pending.empty()) {
      ++result.chaos_session_desyncs;
    }
    ClientResult client;
    client.spec = state->spec;
    client.metrics = state->metrics;
    client.hot_hits = state->hot_hits;
    client.hot_misses = state->hot_misses;
    client.hot_bytes_saved = state->hot_bytes_saved;
    client.coalesce_hits = state->coalesce_hits;
    client.coalesce_attaches = state->coalesce_attaches;
    client.coalesce_bytes_saved = state->coalesce_bytes_saved;
    client.encode_calls = state->encode_calls;
    client.cell_bytes = state->cell_bytes;
    client.home_cell = state->home_cell;
    client.final_cell = state->cell;
    client.handovers = state->handovers;
    client.failovers = state->failovers;
    if (state->abr != nullptr) {
      client.abr = state->abr->snapshot();
      result.abr_step_ups += client.abr.step_ups;
      result.abr_top_ups += client.abr.top_ups;
      result.abr_max_ladder_step =
          std::max(result.abr_max_ladder_step, client.abr.ladder_step);
    }
    result.aggregate.Merge(state->metrics);
    ClassStats& cls = result.by_kind[static_cast<size_t>(state->spec.kind)];
    ++cls.clients;
    cls.metrics.Merge(state->metrics);
    cls.coalesce_hits += state->coalesce_hits;
    cls.coalesce_attaches += state->coalesce_attaches;
    cls.coalesce_bytes_saved += state->coalesce_bytes_saved;
    cls.encode_calls += state->encode_calls;
    cls.cell_bytes += state->cell_bytes;
    result.hot_hits += state->hot_hits;
    result.hot_misses += state->hot_misses;
    result.hot_bytes_saved += state->hot_bytes_saved;
    result.coalesce_hits += state->coalesce_hits;
    result.coalesce_attaches += state->coalesce_attaches;
    result.coalesce_bytes_saved += state->coalesce_bytes_saved;
    result.coalesce_header_bytes +=
        state->coalesce_attaches * server::InflightTable::kAttachHeaderBytes;
    result.encode_calls += state->encode_calls;
    result.clients.push_back(std::move(client));
  }
  for (const auto& admission : admission_) {
    result.admitted_exchanges += admission->admitted_requests();
    result.deferred_exchanges += admission->deferred_requests();
    result.shed_exchanges += admission->shed_requests();
  }
  result.peak_cell_backlog_bytes = peak_backlog;
  for (int32_t k = 0; k < num_cells; ++k) {
    FleetResult::CellStats stats = cell_stats_[k];
    stats.bytes = cells_[k]->total_bytes();
    stats.retries = cells_[k]->total_retries();
    stats.timeouts = cells_[k]->total_timeouts();
    stats.outage_seconds = cells_[k]->total_outage_seconds();
    result.cell_bytes += stats.bytes;
    result.cell_retries += stats.retries;
    result.cell_timeouts += stats.timeouts;
    result.cell_outage_seconds += stats.outage_seconds;
    result.virtual_seconds =
        std::max(result.virtual_seconds, cells_[k]->now());
    // Per-cell stats are reported only for a multi-cell topology.
    if (num_cells > 1) result.cell_stats.push_back(stats);
  }
  result.hot_cache_entries = hot_cache_.entries();
  result.hot_cache_bytes = hot_cache_.size_bytes();
  result.hot_cache_evictions = hot_cache_.evictions();
  result.hot_shards = hot_cache_.Stats();
  result.coalesce_refused = inflight_.total_refused();
  result.handovers = handovers_;
  result.failovers = failovers_;
  result.reissued_transfers = reissued_transfers_;
  result.reissued_bytes = reissued_bytes_;
  // The chaos invariants hold by construction; a nonzero count here is an
  // engine bug (session desync, duplicate delivery, stranded waiter or
  // unresolved exchange), not a simulated fault — fail loudly.
  MARS_CHECK_EQ(result.chaos_session_desyncs, 0);
  MARS_CHECK_EQ(result.chaos_duplicate_deliveries, 0);
  MARS_CHECK_EQ(result.chaos_stranded_waiters, 0);
  MARS_CHECK_EQ(result.chaos_unresolved_exchanges, 0);
  return result;
}

void FleetEngine::RouteClients(double tick_seconds) {
  const auto healthy = [&](int32_t k) {
    net::FaultSchedule* fault = cell_faults_[k].get();
    return !(fault->enabled() && fault->InOutage(tick_seconds));
  };
  // Pass 1 (client-id order): reassign every touring client to the
  // healthy cell nearest the cell covering its current position. All
  // reassignments land before any migration so a forced mover re-issues
  // onto its *final* cell for this tick.
  for (const auto& owned : states_) {
    ClientState* state = owned.get();
    if (state->tour.empty() || state->spec.frames <= 0) continue;
    const size_t frame = static_cast<size_t>(
        std::min<int32_t>(state->next_frame, state->spec.frames - 1));
    const int32_t home = topology_.CellAt(state->tour[frame].position);
    const int32_t target = topology_.NearestHealthy(home, healthy);
    if (target == state->cell) continue;
    const bool outage_forced = !healthy(state->cell);
    state->cell = target;
    ++state->handovers;
    ++handovers_;
    ++cell_stats_[target].handovers_in;
    if (outage_forced) {
      ++state->failovers;
      ++failovers_;
    }
    // Voluntary crossing: nothing moves — in-flight transfers drain on
    // the old cell (anchor forwarding) while new frames submit to the
    // new one.
  }
  // Pass 2 (dead cells ascending, then client id ascending): migrate
  // every transfer stuck on a dead cell whose owner is served elsewhere —
  // it failed over this tick, or crossed voluntarily earlier and left the
  // transfer draining behind (anchor forwarding). A client *stuck* on a
  // dead cell (no healthy neighbour) keeps its queue; the transfers wait
  // out the blackout.
  for (int32_t dead_cell = 0; dead_cell < options_.cells; ++dead_cell) {
    if (healthy(dead_cell)) continue;
    for (const auto& owned : states_) {
      ClientState* state = owned.get();
      const int32_t id = state->spec.id;
      if (state->cell == dead_cell) continue;
      if (cells_[dead_cell]->client_queue_depth(id) == 0) continue;
      // Strand first: the entries die with the queued transfers, and
      // none of the re-submissions below must re-bind to them.
      const auto stranded = inflight_.CancelClient(id, dead_cell);
      const auto cancelled = cells_[dead_cell]->CancelClient(id);
      // (a) Re-submit this client's own queued transfers on its current
      // cell, preserving submission order. The delivery delay keeps
      // running from the original submission — migration never resets
      // the clock.
      for (const net::SharedMediumLink::Cancelled& t : cancelled) {
        const int64_t bytes = std::max<int64_t>(
            1, static_cast<int64_t>(std::ceil(t.remaining_bytes)));
        const TransferKey old_key{dead_cell, id, t.seq};
        // The cancelled transfer never completes; drop its ABR byte entry
        // (the re-issue below registers its own).
        if (!submitted_bytes_.empty()) submitted_bytes_.erase(old_key);
        if (waiter_reissues_.erase(old_key) > 0) {
          // A stranded-waiter substitute caught by a second outage:
          // carry its role to the new cell and re-point every exchange
          // that waits on it.
          const TransferKey new_key = Reissue(state, bytes, t.speed);
          waiter_reissues_.insert(new_key);
          const server::InflightTable::Carrier prior{id, t.seq, dead_cell};
          const server::InflightTable::Carrier repl{id, std::get<2>(new_key),
                                                    state->cell};
          for (const auto& other : states_) {
            for (auto& exchange : other->pending) {
              for (auto& carrier : exchange.carriers) {
                if (carrier == prior) carrier = repl;
              }
            }
          }
          continue;
        }
        // Otherwise the transfer is some pending exchange's own leg. Seqs
        // are unique per (cell, client), so match by seq — after an
        // earlier migration the deque order no longer follows this
        // cell's submission order.
        const int64_t seq = t.seq;
        auto eit = std::find_if(
            state->pending.begin(), state->pending.end(),
            [dead_cell, seq](const ClientState::PendingExchange& e) {
              return e.cell == dead_cell && e.seq == seq &&
                     e.own_delay < 0.0;
            });
        MARS_CHECK(eit != state->pending.end());
        const TransferKey new_key = Reissue(state, bytes, t.speed);
        eit->cell = state->cell;
        eit->seq = std::get<2>(new_key);
        eit->reissued = true;
      }
      // (b) Re-issue the payloads of waiters stranded by this client's
      // dead carriers: each waiter re-fetches the shared copy on its own
      // current cell. One re-issue per (carrier, waiter) — a waiter that
      // attached for several records of one carrier gets one substitute
      // transfer carrying their summed bytes.
      std::map<std::pair<int64_t, int32_t>, int64_t> grouped;
      for (const server::InflightTable::Stranded& s : stranded) {
        grouped[{s.carrier.transfer_seq, s.waiter}] += s.bytes;
      }
      for (const auto& [group, bytes] : grouped) {
        const auto [carrier_seq, waiter] = group;
        ClientState* waiter_state = by_id_.at(waiter);
        double speed = 0.0;
        if (!waiter_state->tour.empty() && waiter_state->spec.frames > 0) {
          const size_t frame = static_cast<size_t>(std::min<int32_t>(
              waiter_state->next_frame, waiter_state->spec.frames - 1));
          speed = waiter_state->tour[frame].speed;
        }
        const TransferKey new_key = Reissue(waiter_state, bytes, speed);
        waiter_reissues_.insert(new_key);
        const server::InflightTable::Carrier prior{id, carrier_seq,
                                                   dead_cell};
        const server::InflightTable::Carrier repl{
            waiter, std::get<2>(new_key), waiter_state->cell};
        bool found = false;
        for (auto& exchange : waiter_state->pending) {
          for (auto& carrier : exchange.carriers) {
            if (carrier == prior) {
              carrier = repl;
              found = true;
            }
          }
        }
        // Every stranded waiter has at least one unresolved exchange
        // holding the dead carrier, or the entry would have been retired.
        MARS_CHECK(found);
      }
    }
  }
}

FleetEngine::TransferKey FleetEngine::Reissue(ClientState* state,
                                              int64_t bytes, double speed) {
  const int32_t cell_id = state->cell;
  const int64_t seq = cells_[cell_id]->Submit(state->spec.id, bytes, speed);
  MARS_CHECK_EQ(seq, state->next_submit_seq[cell_id]);
  ++state->next_submit_seq[cell_id];
  state->cell_bytes += bytes;
  ++reissued_transfers_;
  reissued_bytes_ += bytes;
  if (state->abr != nullptr) {
    submitted_bytes_.emplace(TransferKey{cell_id, state->spec.id, seq},
                             bytes);
  }
  return TransferKey{cell_id, state->spec.id, seq};
}

std::vector<ClientSpec> FleetEngine::MakeMixedFleet(int32_t n,
                                                    int32_t frames,
                                                    double speed,
                                                    uint64_t seed) {
  std::vector<ClientSpec> specs;
  specs.reserve(static_cast<size_t>(std::max<int32_t>(0, n)));
  for (int32_t i = 0; i < n; ++i) {
    ClientSpec spec;
    spec.id = i;
    spec.kind = i % 3 == 0   ? ClientKind::kStreaming
                : i % 3 == 1 ? ClientKind::kBuffered
                             : ClientKind::kNaive;
    spec.tour_kind = i % 2 == 0 ? workload::TourKind::kTram
                                : workload::TourKind::kPedestrian;
    spec.speed = speed;
    spec.frames = frames;
    spec.seed = seed + 100 + static_cast<uint64_t>(i);
    spec.tour_seed = seed + 3000 + 23 * static_cast<uint64_t>(i);
    spec.query_fraction = 0.05;
    spec.buffer_bytes = 64 * 1024;
    // Stagger fleet arrivals across the frame so the cell sees a steady
    // trickle, not one synchronized burst.
    spec.start_offset_seconds = 0.25 * static_cast<double>(i % 4);
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace mars::fleet
