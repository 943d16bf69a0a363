#include "net/shared_link.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/units.h"

namespace mars::net {

SharedMediumLink::SharedMediumLink() : SharedMediumLink(Options()) {}

SharedMediumLink::SharedMediumLink(Options options)
    : options_(options), rng_(options.loss_seed) {
  MARS_CHECK_GT(options.cell_bandwidth_kbps, 0.0);
  MARS_CHECK_GT(options.client_bandwidth_kbps, 0.0);
  MARS_CHECK_GE(options.loss_probability, 0.0);
  MARS_CHECK_LT(options.loss_probability, 0.5);
}

int64_t SharedMediumLink::Submit(int32_t client, int64_t bytes,
                                 double speed) {
  MARS_CHECK_GT(bytes, 0);
  const double s = std::clamp(speed, 0.0, 1.0);
  double carried = static_cast<double>(bytes);
  if (options_.loss_probability > 0.0) {
    // Mirror SimulatedLink's loss process at parity: each attempt may be
    // lost after a uniformly random fraction of the payload, and that
    // fraction is retransmitted. Bounded by the retry cap.
    const double p = std::min(0.95, options_.loss_probability * (1.0 + s));
    int32_t lost = 0;
    while (rng_.Bernoulli(p)) {
      carried += rng_.UniformDouble() * static_cast<double>(bytes);
      ++total_retries_;
      if (++lost >= kMaxRetriesPerTransfer) {
        ++total_timeouts_;
        break;
      }
    }
  }
  ClientQueue& cq = clients_[client];
  if (cq.queue.empty()) vclock_.Activate(client);
  const double virtual_finish = vclock_.Stamp(client, carried);
  const int64_t seq = cq.next_seq++;
  cq.queue.push_back(Transfer{carried, now_, s, virtual_finish, seq});
  ++in_flight_;
  total_bytes_ += bytes;
  return seq;
}

int64_t SharedMediumLink::client_backlog_bytes(int32_t client) const {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  double sum = 0.0;
  for (const Transfer& t : it->second.queue) sum += t.remaining_bytes;
  return static_cast<int64_t>(sum);
}

int32_t SharedMediumLink::client_queue_depth(int32_t client) const {
  const auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  return static_cast<int32_t>(it->second.queue.size());
}

int64_t SharedMediumLink::backlog_bytes() const {
  double sum = 0.0;
  for (const auto& [id, cq] : clients_) {
    for (const Transfer& t : cq.queue) sum += t.remaining_bytes;
  }
  return static_cast<int64_t>(sum);
}

std::vector<SharedMediumLink::Completion> SharedMediumLink::Advance(
    double dt) {
  MARS_CHECK_GE(dt, 0.0);
  std::vector<Completion> completions;
  const double target = now_ + dt;
  Serve(target, &completions);
  // An idle cell moves straight to the target.
  if (now_ < target) now_ = target;
  return completions;
}

std::vector<SharedMediumLink::Completion> SharedMediumLink::DrainAll() {
  std::vector<Completion> completions;
  // Bounded intervals keep every step's target finite; the clock stops
  // at the last completion, not at the end of an interval.
  while (in_flight_ > 0) Serve(now_ + 3600.0, &completions);
  return completions;
}

void SharedMediumLink::Serve(double target,
                             std::vector<Completion>* completions) {
  const double cell =
      common::KbpsToBytesPerSecond(options_.cell_bandwidth_kbps);
  const double bearer =
      common::KbpsToBytesPerSecond(options_.client_bandwidth_kbps);
  const bool faulty = fault_ != nullptr && fault_->enabled();

  while (now_ < target && in_flight_ > 0) {
    // The whole cell stalls during an outage (tunnel, handover): step to
    // the end of the blackout (or the target) without draining.
    if (faulty && fault_->InOutage(now_)) {
      const double stall =
          std::min(target - now_, fault_->OutageRemaining(now_));
      now_ += stall;
      total_outage_seconds_ += stall;
      continue;
    }
    if (options_.discipline == Discipline::kWeightedFair) {
      StepWeightedFair(target, cell, bearer, completions);
    } else {
      StepEqualShare(target, cell, bearer, completions);
    }
  }
}

void SharedMediumLink::StepWeightedFair(
    double target, double cell, double bearer,
    std::vector<Completion>* completions) {
  const bool faulty = fault_ != nullptr && fault_->enabled();
  const double share =
      cell / static_cast<double>(vclock_.active_clients());

  // Piecewise-constant rates until the next head-of-line completion,
  // fault boundary, or the target. Each backlogged client serves only its
  // head transfer at min(GPS share, bearer) — the aggregate bearer cap is
  // structural.
  double step = target - now_;
  if (faulty) {
    const double boundary = fault_->NextBoundaryAfter(now_);
    if (boundary > now_) step = std::min(step, boundary - now_);
  }
  // Head-of-line rate for every backlogged client, frozen for the
  // interval; the map scan runs in client-id order.
  struct Service {
    int32_t client;
    ClientQueue* cq;
    double rate;
  };
  std::vector<Service> service;
  service.reserve(clients_.size());
  for (auto& [id, cq] : clients_) {
    if (cq.queue.empty()) continue;
    const Transfer& head = cq.queue.front();
    const double rate = std::min(share, bearer * MotionFactor(head.speed));
    service.push_back(Service{id, &cq, rate});
    if (rate > 0.0) {
      step = std::min(step, head.remaining_bytes / rate);
    }
  }

  now_ += step;
  // Virtual time advances with the capacity offered to the active set.
  vclock_.OnServed(cell * step);

  // Drain heads; completions coinciding at this instant are emitted in
  // (virtual finish tag, client id) order.
  struct Finished {
    double virtual_finish;
    Completion completion;
  };
  std::vector<Finished> finished;
  for (const Service& s : service) {
    Transfer& head = s.cq->queue.front();
    head.remaining_bytes -= s.rate * step;
    if (head.remaining_bytes <= 1e-6) {
      const double response = now_ - head.submitted_at + kLinkLatencySeconds;
      finished.push_back(Finished{
          head.virtual_finish,
          Completion{s.client, head.seq, response,
                     head.submitted_at + response}});
      s.cq->queue.pop_front();
      --in_flight_;
      if (s.cq->queue.empty()) vclock_.Deactivate(s.client);
    }
  }
  std::stable_sort(finished.begin(), finished.end(),
                   [](const Finished& a, const Finished& b) {
                     if (a.virtual_finish != b.virtual_finish) {
                       return a.virtual_finish < b.virtual_finish;
                     }
                     return a.completion.client < b.completion.client;
                   });
  for (const Finished& f : finished) completions->push_back(f.completion);
}

void SharedMediumLink::StepEqualShare(double target, double cell,
                                      double bearer,
                                      std::vector<Completion>* completions) {
  const bool faulty = fault_ != nullptr && fault_->enabled();
  const double share = cell / static_cast<double>(in_flight_);

  double step = target - now_;
  if (faulty) {
    const double boundary = fault_->NextBoundaryAfter(now_);
    if (boundary > now_) step = std::min(step, boundary - now_);
  }
  // First pass: per-transfer uncapped rates, rescaled so each client's
  // aggregate never exceeds its bearer (the mid-transfer-join over-credit
  // fix: a client's k inflight transfers used to draw k bearers' worth).
  for (auto& [id, cq] : clients_) {
    if (cq.queue.empty()) continue;
    double uncapped_sum = 0.0;
    for (const Transfer& t : cq.queue) {
      uncapped_sum += std::min(share, bearer * MotionFactor(t.speed));
    }
    const double cap = bearer * MotionFactor(cq.queue.front().speed);
    const double scale = uncapped_sum > cap ? cap / uncapped_sum : 1.0;
    for (const Transfer& t : cq.queue) {
      const double rate =
          std::min(share, bearer * MotionFactor(t.speed)) * scale;
      if (rate > 0.0) step = std::min(step, t.remaining_bytes / rate);
    }
  }

  now_ += step;
  vclock_.OnServed(cell * step);

  // Second pass: drain with the identical rates and collect completions
  // (clients in id order; within a client, submission order).
  for (auto& [id, cq] : clients_) {
    if (cq.queue.empty()) continue;
    double uncapped_sum = 0.0;
    for (const Transfer& t : cq.queue) {
      uncapped_sum += std::min(share, bearer * MotionFactor(t.speed));
    }
    const double cap = bearer * MotionFactor(cq.queue.front().speed);
    const double scale = uncapped_sum > cap ? cap / uncapped_sum : 1.0;
    for (auto it = cq.queue.begin(); it != cq.queue.end();) {
      const double rate =
          std::min(share, bearer * MotionFactor(it->speed)) * scale;
      it->remaining_bytes -= rate * step;
      if (it->remaining_bytes <= 1e-6) {
        const double response = now_ - it->submitted_at + kLinkLatencySeconds;
        completions->push_back(Completion{
            id, it->seq, response, it->submitted_at + response});
        it = cq.queue.erase(it);
        --in_flight_;
      } else {
        ++it;
      }
    }
    if (cq.queue.empty()) vclock_.Deactivate(id);
  }
}

std::vector<SharedMediumLink::Cancelled> SharedMediumLink::CancelClient(
    int32_t client) {
  std::vector<Cancelled> cancelled;
  const auto it = clients_.find(client);
  if (it == clients_.end()) return cancelled;
  ClientQueue& cq = it->second;
  cancelled.reserve(cq.queue.size());
  for (const Transfer& t : cq.queue) {
    cancelled.push_back(
        Cancelled{t.seq, t.remaining_bytes, t.submitted_at, t.speed});
  }
  if (!cq.queue.empty()) {
    in_flight_ -= cq.queue.size();
    cq.queue.clear();
    vclock_.Deactivate(client);
  }
  // The ClientQueue stays (empty) so next_seq keeps counting from where
  // it was — cancelled seqs are never reused.
  return cancelled;
}

}  // namespace mars::net
