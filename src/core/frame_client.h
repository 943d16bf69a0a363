#ifndef MARS_CORE_FRAME_CLIENT_H_
#define MARS_CORE_FRAME_CLIENT_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "client/buffered_client.h"
#include "client/naive_client.h"
#include "client/streaming_client.h"
#include "core/metrics.h"
#include "geometry/box.h"
#include "geometry/vec.h"
#include "index/record.h"
#include "net/link.h"
#include "server/server.h"

namespace mars::core {

// What one query frame hands back to its frame loop, whatever the client
// kind.
struct Frame {
  // Delay the client measured on its private link. System's runner books
  // it as the frame's response time; the fleet books the shared cell's
  // delivery delay instead.
  double response_seconds = 0.0;
  // Bytes of the frame's successful exchanges, as the fleet charges them
  // to the shared cell.
  int64_t wire_bytes = 0;
  // Coefficient records delivered (never any for the naive client, whose
  // responses are whole objects).
  std::vector<index::RecordId> records;
};

// A streaming, buffered or naive client behind one frame interface: the
// single definition of what each kind's frames and end-of-run state add
// to RunMetrics, shared by System's runner and FleetEngine. Response time
// is left to the caller, whose clock it is.
class FrameClient {
 public:
  using Options = std::variant<client::StreamingClient::Options,
                               client::BufferedClient::Options,
                               client::NaiveObjectClient::Options>;

  // Builds the client `options` selects. `session` is passed to a
  // streaming client (null keeps a private one); other kinds ignore it.
  FrameClient(const Options& options, const geometry::Box2& space,
              const server::Server* server, net::SimulatedLink* link,
              server::ClientSession* session = nullptr);

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  // Runs one frame and books it into `m`.
  Frame Step(const geometry::Vec2& position, double speed, RunMetrics* m);
  // Books a frame the cell deferred: it did not run, and the client backs
  // off for `retry_after_seconds` before its next exchange.
  void Defer(double retry_after_seconds, RunMetrics* m);
  // Books a frame the cell shed: it runs without its exchange and renders
  // whatever the client holds, so it is stale.
  void Shed(RunMetrics* m);
  // Quiesces the client and books its end-of-run state into `m`.
  void Finish(RunMetrics* m);

 private:
  using Client = std::variant<client::StreamingClient, client::BufferedClient,
                              client::NaiveObjectClient>;

  Frame Book(client::StreamingFrameReport report, RunMetrics* m);
  Frame Book(client::BufferedFrameReport report, RunMetrics* m);
  Frame Book(client::NaiveFrameReport report, RunMetrics* m);
  void AddStaleFrame(RunMetrics* m);

  Client client_;
  // Consecutive stale frames booked here (failed streaming exchanges and
  // shed frames); only a successful streaming frame resets it.
  int64_t stale_run_ = 0;
};

}  // namespace mars::core

#endif  // MARS_CORE_FRAME_CLIENT_H_
