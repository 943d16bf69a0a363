#include "client/buffered_client.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace mars::client {

namespace {
// Records exactly at the held band's lower edge were already delivered;
// shave the reissued band's top to avoid re-fetching them.
constexpr double kBandEpsilon = 1e-9;
}  // namespace

BufferedClient::BufferedClient(const Options& options,
                               const geometry::Box2& space,
                               const server::Server* server,
                               net::SimulatedLink* link)
    : options_(options),
      owned_policy_(options.speed_map),
      policy_(options.policy != nullptr ? options.policy : &owned_policy_),
      viewport_(space, options.query_fraction, options.query_fraction),
      grid_(space, options.grid_nx, options.grid_ny),
      server_(server),
      link_(link),
      channel_(link, options.channel),
      buffer_(options.buffer_bytes),
      predictor_(options.predictor == Options::Predictor::kKalman
                     ? std::unique_ptr<motion::PositionPredictor>(
                           std::make_unique<motion::KalmanFilterPredictor>())
                     : std::make_unique<motion::MotionPredictor>()),
      motion_prefetcher_([&options, &space]() {
        // Predict where the *query frame* will be, not just the client
        // point (paper Fig. 4(a)).
        buffer::MotionAwarePrefetcher::Options prefetch = options.prefetch;
        prefetch.probability.frame_half_width =
            space.Extent(0) * options.query_fraction / 2.0;
        prefetch.probability.frame_half_height =
            space.Extent(1) * options.query_fraction / 2.0;
        return prefetch;
      }()),
      naive_prefetcher_(),
      rng_(options.seed) {
  MARS_CHECK(server != nullptr);
  MARS_CHECK(link != nullptr);
}

double BufferedClient::BandUpTo(double held) {
  if (held > 1.0) return 1.0;  // nothing held: full band
  return std::max(0.0, held - kBandEpsilon);
}

BufferedClient::ExchangeTotals BufferedClient::FetchBlocks(
    const std::vector<int64_t>& blocks, const std::vector<double>& w_mins,
    const std::vector<double>& priorities, double speed, bool is_prefetch) {
  ExchangeTotals totals;
  if (blocks.empty()) return totals;

  std::vector<server::SubQuery> queries;
  queries.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const double held = buffer_.HeldWMin(blocks[i]);
    queries.push_back(server::SubQuery{grid_.BlockBox(blocks[i]), w_mins[i],
                                       BandUpTo(held)});
  }
  // Block caching keeps no long-lived record session: duplicates are only
  // filtered within one exchange (coefficients straddling block borders
  // are intentionally stored with each block).
  server::ClientSession transient;
  const server::QueryResult result = server_->Execute(queries, &transient);
  totals.request_bytes = result.request_bytes;
  totals.response_bytes = result.response_bytes;
  totals.node_accesses = result.node_accesses;

  const net::ReliableChannel::Result net = channel_.Exchange(
      result.request_bytes, result.response_bytes, speed);
  totals.seconds = net.seconds;
  totals.retries = net.retries;
  totals.ok = net.status.ok();
  if (!totals.ok) {
    // The response was lost: install nothing. The blocks stay at their
    // resident (possibly coarser) resolution, so the client keeps
    // rendering and re-requests them next frame. The transient session
    // dies here, so there is no server-side state to roll back.
    totals.response_bytes = 0;
    return totals;
  }
  totals.records = result.records;

  for (size_t i = 0; i < blocks.size(); ++i) {
    const int64_t bytes = result.per_query_bytes[i];
    if (is_prefetch) {
      buffer_.InsertPrefetch(blocks[i], w_mins[i], bytes, priorities[i]);
    } else {
      buffer_.InsertDemand(blocks[i], w_mins[i], bytes, priorities[i]);
    }
    avg_block_bytes_ =
        (avg_block_bytes_ * fetched_blocks_ + static_cast<double>(bytes)) /
        static_cast<double>(fetched_blocks_ + 1);
    ++fetched_blocks_;
  }
  return totals;
}

void BufferedClient::OnBackpressure(double retry_after_seconds) {
  channel_.Defer(retry_after_seconds);
  suppress_prefetch_once_ = true;
}

BufferedFrameReport BufferedClient::Step(const geometry::Vec2& position,
                                         double speed) {
  BufferedFrameReport report;
  predictor_->Observe(position);
  const double w_t = policy_->MapSpeedToResolution(speed);
  const geometry::Box2 window = viewport_.WindowAt(position);

  // Serve the view from the buffer; collect the missing blocks. Hit/miss
  // statistics follow the paper's accounting: counted when the client
  // "visits a new region", i.e. for blocks entering the view this frame
  // and for in-view blocks whose held resolution became insufficient
  // (a slowdown); steady-state re-reads are not counted.
  const std::vector<int64_t> needed = grid_.BlocksIntersecting(window);
  const std::unordered_set<int64_t> in_view(needed.begin(), needed.end());
  report.blocks_needed = static_cast<int64_t>(needed.size());

  // The current view is pinned (display memory); the buffer capacity
  // bounds only the prefetched/cached surroundings, as in the paper's
  // cost model. Blocks that left the view re-enter the capacity-bounded
  // pool.
  for (int64_t block : prev_in_view_) {
    if (!in_view.contains(block)) buffer_.Unpin(block);
  }
  for (int64_t block : needed) {
    buffer_.Pin(block);
  }

  const bool warm = frames_ >= options_.warmup_frames;
  std::vector<int64_t> missing;
  for (int64_t block : needed) {
    const bool frontier = !prev_in_view_.contains(block);
    if (frontier && warm) {
      if (buffer_.Lookup(block, w_t)) {
        ++report.block_hits;
        buffer_.UpdatePriority(block, 1.0);  // in active view: keep
      } else {
        missing.push_back(block);
      }
    } else if (buffer_.Peek(block, w_t)) {
      ++report.block_hits;
      buffer_.UpdatePriority(block, 1.0);
    } else {
      // Resolution upgrade of an in-view block, or a cold-start fill;
      // only the former counts as a miss.
      if (warm) buffer_.Lookup(block, w_t);  // records the miss
      missing.push_back(block);
    }
  }
  prev_in_view_ = in_view;

  // Demand-fetch the missing blocks (one exchange; this is what the user
  // waits for). Fetch slightly finer than needed so the next frames' small
  // speed fluctuations stay buffered.
  const double w_demand = w_t * options_.resolution_headroom;
  bool demand_failed = false;
  if (!missing.empty()) {
    const std::vector<double> w_mins(missing.size(), w_demand);
    const std::vector<double> priorities(missing.size(), 1.0);
    const ExchangeTotals totals = FetchBlocks(missing, w_mins, priorities,
                                              speed, /*is_prefetch=*/false);
    report.demand_bytes = totals.response_bytes;
    report.node_accesses += totals.node_accesses;
    report.response_seconds = totals.seconds;
    report.retries += totals.retries;
    report.records.insert(report.records.end(), totals.records.begin(),
                          totals.records.end());
    if (!totals.ok) {
      // Outage: the frame runs degraded. Whatever resolution is resident
      // keeps rendering (coarse data stays useful — the point of the
      // multiresolution buffer); the still-missing blocks are re-requested
      // next frame because the residency test keeps failing for them.
      demand_failed = true;
      ++report.timeouts;
      report.outage = true;
      report.stale_blocks = static_cast<int64_t>(missing.size());
    }
  }

  // Background prefetch for future frames. Suspended while the link is
  // down (retry budget is better spent on the demand path, and predicted
  // blocks would fail the same way) and for one frame after a
  // backpressure signal (the cell is overloaded; speculative traffic is
  // the first thing to shed).
  buffer_.DecayPriorities(options_.priority_decay);
  const bool prefetch_suppressed = suppress_prefetch_once_;
  suppress_prefetch_once_ = false;
  if (options_.enable_prefetch && !demand_failed && !prefetch_suppressed) {
    const int32_t budget_blocks = std::clamp<int32_t>(
        static_cast<int32_t>(
            static_cast<double>(options_.buffer_bytes) /
            std::max(avg_block_bytes_ +
                         buffer::BlockBuffer::kEntryOverheadBytes,
                     1.0)),
        1, 512);
    const buffer::PrefetchPlan plan =
        options_.motion_aware
            ? motion_prefetcher_.Plan(*predictor_, grid_, position, w_t,
                                      budget_blocks, rng_)
            : naive_prefetcher_.Plan(grid_, position, w_t, budget_blocks);

    std::vector<int64_t> fetch_blocks;
    std::vector<double> fetch_w, fetch_priority;
    for (const buffer::PrefetchPlan::Item& item : plan.items) {
      // Blocks inside the current view are demand territory, not
      // "surrounding regions"; skip them for both prefetchers.
      if (in_view.contains(item.block)) continue;
      const double held = buffer_.HeldWMin(item.block);
      const double want = item.w_min * options_.resolution_headroom;
      if (held <= want * (1.0 + options_.refetch_tolerance) + 1e-3) {
        buffer_.UpdatePriority(item.block, item.priority);
        continue;
      }
      if (static_cast<int32_t>(fetch_blocks.size()) >=
          options_.max_prefetch_fetches_per_frame) {
        continue;
      }
      // Skip blocks that would not survive admission. The halved priority
      // demands a clear margin over what would be evicted, so two
      // near-equal prefetch candidates do not evict each other back and
      // forth across frames.
      if (!buffer_.CanAdmit(static_cast<int64_t>(avg_block_bytes_),
                            item.priority * 0.5)) {
        continue;
      }
      fetch_blocks.push_back(item.block);
      fetch_w.push_back(want);
      fetch_priority.push_back(item.priority);
    }
    if (!fetch_blocks.empty()) {
      // Counted on the link, not in the response time: prefetch rides the
      // idle link between frames.
      const ExchangeTotals totals = FetchBlocks(
          fetch_blocks, fetch_w, fetch_priority, speed, /*is_prefetch=*/true);
      report.prefetch_bytes = totals.response_bytes;
      report.node_accesses += totals.node_accesses;
      report.retries += totals.retries;
      report.records.insert(report.records.end(), totals.records.begin(),
                            totals.records.end());
      if (!totals.ok) ++report.timeouts;
    }
  }

  // Degraded-frame accounting: a frame is stale when a demand fetch
  // failed and the view had to render coarser-than-needed data.
  if (report.outage) ++outage_frames_;
  if (demand_failed && report.stale_blocks > 0) {
    ++stale_frames_;
    ++stale_run_frames_;
    max_stale_run_frames_ = std::max(max_stale_run_frames_, stale_run_frames_);
  } else {
    stale_run_frames_ = 0;
  }

  total_response_seconds_ += report.response_seconds;
  ++frames_;
  return report;
}

}  // namespace mars::client
