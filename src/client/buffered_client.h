#ifndef MARS_CLIENT_BUFFERED_CLIENT_H_
#define MARS_CLIENT_BUFFERED_CLIENT_H_

#include <cstdint>
#include <memory>
#include <unordered_set>

#include "buffer/block_buffer.h"
#include "buffer/prefetcher.h"
#include "client/viewport.h"
#include "common/rng.h"
#include "geometry/box.h"
#include "geometry/grid.h"
#include "geometry/vec.h"
#include "motion/kalman.h"
#include "motion/predictor.h"
#include "net/link.h"
#include "net/reliable_channel.h"
#include "qos/resolution_policy.h"
#include "server/server.h"

namespace mars::client {

// Per-frame outcome of the buffered client.
struct BufferedFrameReport {
  int64_t blocks_needed = 0;
  int64_t block_hits = 0;
  int64_t demand_bytes = 0;
  int64_t prefetch_bytes = 0;
  double response_seconds = 0.0;
  int64_t node_accesses = 0;
  // Fault-tolerance telemetry.
  int64_t retries = 0;        // lost attempts retried this frame
  int64_t timeouts = 0;       // exchanges that failed this frame
  bool outage = false;        // a demand fetch failed: frame ran degraded
  // In-view blocks rendered from coarser-than-needed (or absent) data
  // because their fetch failed; the client keeps rendering resident
  // coarse resolution instead of stalling.
  int64_t stale_blocks = 0;
  // Records delivered this frame (demand + prefetch exchanges that
  // succeeded). The fleet engine feeds these to the server's shared
  // hot-encoding cache.
  std::vector<index::RecordId> records;
};

// The full motion-aware system client (paper Secs. IV + V): the data space
// is divided into grid blocks; the view's blocks are served from a limited
// local buffer when possible (a *cache hit*), fetched incrementally in
// resolution bands otherwise (the block-granular generalization of
// Algorithm 1 — a block held at a coarser resolution is upgraded by
// fetching only the missing band), and a motion-aware prefetcher keeps the
// most probable future blocks resident. Prefetch exchanges consume link
// bandwidth but overlap idle time, so they do not add to the per-frame
// response time.
//
// Degraded operation: exchanges run through a ReliableChannel (bounded
// retries + backoff + deadline). When a demand fetch fails — an outage —
// the frame renders whatever resolution is resident (coarse blocks stay
// usable; that is the point of the multiresolution buffer), the missing
// blocks remain missing so the next frame re-requests them (the demand
// queue is implicit in the residency test), and prefetching is suspended
// to save the link budget until an exchange succeeds again.
class BufferedClient {
 public:
  struct Options {
    double query_fraction = 0.1;
    qos::SpeedResolutionMap speed_map;
    // External QoS policy owning the speed → w_min decision (not owned;
    // must outlive the client). Null — the default — wraps `speed_map` in
    // a static policy, which is bit-identical to the pre-policy pipeline.
    const qos::ResolutionPolicy* policy = nullptr;
    int64_t buffer_bytes = 64 * 1024;
    // Grid granularity: with the default 10 km space this gives 250 m
    // blocks, so a 10% query frame covers a handful of blocks — the
    // coarse-block regime of the paper's buffer cost model.
    int32_t grid_nx = 40;
    int32_t grid_ny = 40;
    bool enable_prefetch = true;
    // false → the naive uniform-ring prefetcher of the Sec. VII-C
    // comparisons.
    bool motion_aware = true;
    // Resolution headroom: blocks are fetched (demand and prefetch) at
    // w_min = needed × this factor, so small speed fluctuations between
    // fetch time and later lookups still hit the buffer.
    double resolution_headroom = 0.75;
    buffer::MotionAwarePrefetcher::Options prefetch;
    // Cap on prefetch block fetches per frame (background bandwidth).
    int32_t max_prefetch_fetches_per_frame = 16;
    // Motion model driving the prefetcher: the paper's RLS-learned state
    // transition, or a constant-velocity Kalman filter.
    enum class Predictor { kRls, kKalman };
    Predictor predictor = Predictor::kRls;
    // Per-frame decay of resident block priorities.
    double priority_decay = 0.85;
    // Frames at the start of a run whose lookups are not counted in the
    // hit/miss statistics (cold-start exclusion; the buffer is empty by
    // definition on the first frame).
    int32_t warmup_frames = 1;
    // A resident block is considered fine enough for a prefetch request
    // at w if held <= w * (1 + tolerance) + small slack; avoids endless
    // micro-band refetches as the speed jitters.
    double refetch_tolerance = 0.15;
    uint64_t seed = 1;
    // Transport retry policy (pay-for-what-you-use on a clean link).
    net::ReliableChannel::Options channel;
  };

  BufferedClient(const Options& options, const geometry::Box2& space,
                 const server::Server* server, net::SimulatedLink* link);

  BufferedFrameReport Step(const geometry::Vec2& position, double speed);

  // Backpressure signal from the cell's admission controller: the next
  // exchange waits `retry_after_seconds` before its first attempt, and
  // the next frame's speculative prefetch is suppressed so the client
  // sheds load where it hurts least. No-op for clients that never
  // receive it.
  void OnBackpressure(double retry_after_seconds);

  const buffer::BlockBufferStats& buffer_stats() const {
    return buffer_.stats();
  }
  double total_response_seconds() const { return total_response_seconds_; }
  int64_t frames() const { return frames_; }
  // Fault-tolerance totals.
  int64_t total_retries() const { return channel_.total_retries(); }
  int64_t total_timeouts() const { return channel_.total_failures(); }
  int64_t outage_frames() const { return outage_frames_; }
  int64_t stale_frames() const { return stale_frames_; }
  // Worst-case staleness: longest run of consecutive degraded frames.
  int64_t max_stale_run_frames() const { return max_stale_run_frames_; }

 private:
  // Upper bound of the band still missing for a block currently held down
  // to `held` (2.0 when the block holds nothing yet).
  static double BandUpTo(double held);

  // Executes block-granular sub-queries as one reliable exchange and
  // installs results on success; on failure nothing is installed.
  struct ExchangeTotals {
    int64_t request_bytes = 0;
    int64_t response_bytes = 0;
    int64_t node_accesses = 0;
    double seconds = 0.0;
    int64_t retries = 0;
    bool ok = true;
    std::vector<index::RecordId> records;  // delivered (empty on failure)
  };
  ExchangeTotals FetchBlocks(const std::vector<int64_t>& blocks,
                             const std::vector<double>& w_mins,
                             const std::vector<double>& priorities,
                             double speed, bool is_prefetch);

  Options options_;
  qos::StaticResolutionPolicy owned_policy_;
  const qos::ResolutionPolicy* policy_;  // options_.policy or &owned_policy_
  Viewport viewport_;
  geometry::GridPartition grid_;
  const server::Server* server_;
  net::SimulatedLink* link_;
  net::ReliableChannel channel_;
  buffer::BlockBuffer buffer_;
  std::unique_ptr<motion::PositionPredictor> predictor_;
  buffer::MotionAwarePrefetcher motion_prefetcher_;
  buffer::NaivePrefetcher naive_prefetcher_;
  common::Rng rng_;

  // Blocks the previous frame's window covered (for the paper's
  // new-region hit/miss accounting).
  std::unordered_set<int64_t> prev_in_view_;

  // Running average block payload, for sizing the prefetch block budget.
  double avg_block_bytes_ = 2048.0;
  int64_t fetched_blocks_ = 0;

  double total_response_seconds_ = 0.0;
  int64_t frames_ = 0;

  // Backpressure: skip the next frame's prefetch after the cell asked us
  // to back off.
  bool suppress_prefetch_once_ = false;

  // Degraded-operation accounting.
  int64_t outage_frames_ = 0;
  int64_t stale_frames_ = 0;
  int64_t stale_run_frames_ = 0;
  int64_t max_stale_run_frames_ = 0;
};

}  // namespace mars::client

#endif  // MARS_CLIENT_BUFFERED_CLIENT_H_
