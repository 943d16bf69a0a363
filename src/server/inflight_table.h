#ifndef MARS_SERVER_INFLIGHT_TABLE_H_
#define MARS_SERVER_INFLIGHT_TABLE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "index/record.h"

namespace mars::server {

// Cross-client request coalescing: a registry of record payloads currently
// in flight on the shared cell. The first client to request a record
// performs the index walk and the wire encoding (reusing HotRecordCache on
// a miss) and becomes the entry's *owner*; its cell transfer is the
// entry's *carrier*. Any client requesting the same record while the
// carrier is still draining *attaches* as a waiter: it receives the
// identical payload bytes from the shared copy, and the cell is charged
// only a small per-attach header instead of the payload — the single-copy
// delivery that makes co-located fleets affordable.
//
// Like HotRecordCache, the table is sharded by record id and built for the
// fleet engine's deterministic two-phase tick:
//
//   * During the parallel read phase, workers call only const Probe(),
//     which takes a shard's reader lock and mutates nothing, so the
//     inflight/absent classification of every record depends only on the
//     table state frozen at the tick boundary, never on worker
//     interleaving.
//   * During the serial commit phase, the engine calls Register() /
//     Attach() in client-id order (so the lowest-id requester of a tick
//     owns the encoding and later ids attach), and OnTransferComplete()
//     as carriers drain, in the cell's deterministic completion order.
//
// Used outside that protocol, the locking still makes every method safe to
// call concurrently; only the determinism guarantee needs the phase
// discipline.
class InflightTable {
 public:
  struct Options {
    // Off by default: a disabled table probes as empty and registers
    // nothing, so the engine's submission path is a strict passthrough.
    bool enabled = false;
  };

  // Wire bytes charged to a follower per distinct carrier it attaches to
  // (the "also deliver this transfer to me" control frame).
  static constexpr int64_t kAttachHeaderBytes = 64;

  // The transfer carrying an entry's payload: the owning client, that
  // client's per-submission sequence number, and the cell the transfer
  // rides on. Sequence numbers are per-(cell, client), so the cell is
  // part of the identity in a multi-cell topology; single-cell callers
  // leave it 0.
  struct Carrier {
    int32_t owner = 0;
    int64_t transfer_seq = 0;
    int32_t cell = 0;
    friend bool operator==(const Carrier& a, const Carrier& b) {
      return a.owner == b.owner && a.transfer_seq == b.transfer_seq &&
             a.cell == b.cell;
    }
  };

  enum class AttachOutcome {
    kAttached,     // rides `carrier`'s transfer; payload not re-sent
    kNotInflight,  // no entry: the caller owns (and must register) it
    kRefused,      // carrier on another cell: the caller pays in full
  };
  struct AttachResult {
    AttachOutcome outcome = AttachOutcome::kNotInflight;
    Carrier carrier;
    int64_t bytes = 0;
  };

  InflightTable();  // default (disabled) options
  explicit InflightTable(Options options);

  InflightTable(const InflightTable&) = delete;
  InflightTable& operator=(const InflightTable&) = delete;

  bool enabled() const { return options_.enabled; }
  const Options& options() const { return options_; }

  // Payload bytes of `id`'s inflight copy, or -1 when nothing is in
  // flight. Read-only (see the phase protocol above).
  int64_t Probe(index::RecordId id) const;

  // Registers `id` as carried by (owner, transfer_seq) on `cell` with
  // `bytes` of payload. Single-flight: a record may have at most one
  // carrier, so registering an id that is already in flight is a
  // programming error — callers must Attach() instead (a kRefused attach
  // pays full freight but still must not re-register).
  void Register(index::RecordId id, int32_t owner, int64_t transfer_seq,
                int64_t bytes, int32_t cell = 0);

  // Attaches `follower` (served on `follower_cell`) to `id`'s entry;
  // waiters are recorded in attach order. A carrier on a *different* cell
  // refuses the attach: single-copy delivery is a property of sharing one
  // radio transfer, so a cross-cell requester pays full freight (and must
  // not re-register — the single-flight invariant spans cells). See
  // AttachOutcome for the three possible results.
  AttachResult Attach(index::RecordId id, int32_t follower,
                      int32_t follower_cell = 0);

  // Removes every entry carried by (owner, transfer_seq) on `cell` — the
  // payloads have been delivered to the owner and all attached waiters.
  // Returns the number of entries removed.
  int64_t OnTransferComplete(int32_t owner, int64_t transfer_seq,
                             int32_t cell = 0);

  // Cancels every entry owned by `client` on `cell` (-1 = every cell:
  // the client timed out / disconnected; a specific cell: the client was
  // handed over while that cell was down, so only the transfers stranded
  // *there* die — carriers it still owns elsewhere keep draining).
  // Waiters of the cancelled entries are stranded: their shared copy
  // will never arrive, so the caller must re-issue their requests.
  // Returned in (record id, attach) order, with the payload bytes and
  // the dead carrier so the caller can re-issue deterministically.
  struct Stranded {
    index::RecordId record = 0;
    int32_t waiter = 0;
    int64_t bytes = 0;
    Carrier carrier;
  };
  std::vector<Stranded> CancelClient(int32_t client, int32_t cell = -1);

  // Observability.
  int64_t entries() const;
  int64_t total_registered() const;
  int64_t total_attached() const;
  // Attaches refused because the carrier rides another cell.
  int64_t total_refused() const;
  int64_t total_cancelled() const;
  // Waiters currently attached to `id`, in attach order (tests).
  std::vector<int32_t> WaitersOf(index::RecordId id) const;

 private:
  struct Entry {
    Carrier carrier;
    int64_t bytes = 0;
    std::vector<int32_t> waiters;
  };

  struct Shard {
    mutable common::SharedMutex mu;
    std::unordered_map<index::RecordId, Entry> map MARS_GUARDED_BY(mu);
    int64_t registered MARS_GUARDED_BY(mu) = 0;
    int64_t attached MARS_GUARDED_BY(mu) = 0;
    int64_t refused MARS_GUARDED_BY(mu) = 0;
    int64_t cancelled MARS_GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(index::RecordId id) {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }
  const Shard& ShardOf(index::RecordId id) const {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }

  static constexpr size_t kShards = 8;

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mars::server

#endif  // MARS_SERVER_INFLIGHT_TABLE_H_
