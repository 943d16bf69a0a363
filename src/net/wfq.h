#ifndef MARS_NET_WFQ_H_
#define MARS_NET_WFQ_H_

#include <cstdint>
#include <map>

#include "common/logging.h"

namespace mars::net {

// Virtual-time bookkeeping for fair queuing on the shared cell.
//
// The cell is modelled as a fluid server: at any instant the backlogged
// (active) clients divide its capacity equally (generalized processor
// sharing at unit weights). This clock tracks the scheduler's *virtual
// time* V, which advances at rate C / N(t) where C is the served capacity
// and N(t) the number of active clients — one unit of virtual time
// corresponds to one byte of service per client.
//
// Each arriving transfer is stamped with a virtual start and finish tag:
//
//   start  = max(V, last_finish[client])   (per-client FIFO)
//   finish = start + bytes
//
// Finish tags are the WFQ service order: under pure GPS a transfer's head
// byte drains exactly when V reaches its finish tag. The cell additionally
// caps each client at its bearer rate (a client capped below its GPS share
// lags its tags), so the tags are used for deterministic *ordering* —
// completions that coincide in real time are emitted in (finish tag,
// client id) order — while the byte accounting itself is rate-based.
//
// Everything here is plain double arithmetic over a std::map keyed by
// client id, so every operation sequence is deterministic: same
// submissions in, same tags and virtual times out, independent of host
// threads (the fleet engine only touches the cell from its serial phase).
class WfqVirtualClock {
 public:
  // Marks `client` backlogged. Idempotent.
  void Activate(int32_t client) {
    ClientInfo& info = clients_[client];
    if (!info.active) {
      info.active = true;
      ++active_clients_;
    }
  }

  // Marks `client` idle (its queue drained). Idempotent. An idle client's
  // last finish tag is clamped up to V on its next stamp, so it cannot
  // bank credit while idle.
  void Deactivate(int32_t client) {
    const auto it = clients_.find(client);
    if (it != clients_.end() && it->second.active) {
      it->second.active = false;
      --active_clients_;
    }
  }

  bool active(int32_t client) const {
    const auto it = clients_.find(client);
    return it != clients_.end() && it->second.active;
  }

  int32_t active_clients() const { return active_clients_; }

  // Advances virtual time after the cell served `bytes` across the active
  // set: dV = bytes / N. No-op when nothing is active.
  void OnServed(double bytes) {
    MARS_CHECK_GE(bytes, 0.0);
    if (active_clients_ > 0) {
      v_ += bytes / static_cast<double>(active_clients_);
    }
  }

  // Stamps one arriving transfer of `bytes` for `client`; returns its
  // virtual finish tag and records it as the client's new tail.
  double Stamp(int32_t client, double bytes) {
    MARS_CHECK_GE(bytes, 0.0);
    ClientInfo& info = clients_[client];
    const double start = info.last_finish > v_ ? info.last_finish : v_;
    info.last_finish = start + bytes;
    return info.last_finish;
  }

  double virtual_time() const { return v_; }

 private:
  struct ClientInfo {
    double last_finish = 0.0;
    bool active = false;
  };

  // Ordered by client id: iteration order (and hence every derived
  // floating-point sum) is a pure function of the submissions.
  std::map<int32_t, ClientInfo> clients_;
  double v_ = 0.0;
  int32_t active_clients_ = 0;
};

}  // namespace mars::net

#endif  // MARS_NET_WFQ_H_
