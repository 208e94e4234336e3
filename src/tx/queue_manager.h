// Transactional access to a node's agent input queue.
//
// Step and compensation transactions move the agent between stable input
// queues (paper Sec. 2): removal from the executing node's queue and
// insertion into the next node's queue are staged here and applied at
// commit. The agent therefore remains in the source queue across any crash
// until the transaction commits — the foundation of both the exactly-once
// protocol and the rollback algorithm's restartability.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/stable_storage.h"
#include "tx/participant.h"
#include "util/counters.h"
#include "util/ids.h"

namespace mar::tx {

/// Admission work: records admitted and records visited by next_eligible
/// scans — their ratio must stay a small constant at any queue depth.
struct QueueStats {
  RelaxedCounter admissions;
  RelaxedCounter records_examined;
};

class QueueManager final : public Participant {
 public:
  explicit QueueManager(storage::StableStorage& stable) : stable_(stable) {}

  /// Simulation clock hook (observability): committed enqueues are
  /// stamped with the current time as QueueRecord::enqueued_us — the
  /// queue-wait span of the hop that will consume the record begins the
  /// moment the record actually lands in the queue, which for a remote
  /// transfer is here at commit, not when the sender built it.
  void set_clock(std::function<std::uint64_t()> now_fn) {
    now_fn_ = std::move(now_fn);
  }

  /// Stage "append this record to the local queue at commit".
  void stage_enqueue(TxId tx, storage::QueueRecord record);
  /// Stage "remove this record from the local queue at commit".
  void stage_remove(TxId tx, std::uint64_t record_id);

  // --- staged record-area ops (incremental agent commits) -----------------
  // An agent's durable image lives in the storage record area when it
  // commits incrementally; updating it must be atomic with the queue
  // movement of the same step transaction, so the ops are staged here and
  // group-committed with the enqueues/removes. Ops apply in staging order.
  /// Stage "replace the record with this base image" (establish/compact).
  void stage_record_reset(TxId tx, std::string key, serial::Bytes base);
  /// Stage "append this delta segment".
  void stage_record_append(TxId tx, std::string key, serial::Bytes delta);
  /// Stage "drop the record" (migration away / terminal state).
  void stage_record_erase(TxId tx, std::string key);

  // --- slotted scheduling (claims by record id) ---------------------------
  // The node runtime no longer consumes the queue "front-first, one at a
  // time": each execution slot claims a specific record by id, works on it
  // inside its own transaction, and either commits (the staged remove
  // consumes the record) or releases the claim so a later slot can retry.
  // Claims are volatile — a crash clears them along with the slots.
  /// The queued record the next free slot should work on: unclaimed, its
  /// agent not in flight, chosen by an aged admission score. The score is
  /// (claim releases − times passed over): strict FIFO while nothing
  /// aborts, but a record whose claims keep being released after lock
  /// conflicts no longer pins the queue head — records behind it are
  /// admitted, and each bypass ages the passed-over record back towards
  /// the front, so nothing starves. The scan stops at the first eligible
  /// zero-score record. Null when none is eligible.
  [[nodiscard]] const storage::QueueRecord* next_eligible(
      const std::unordered_set<AgentId>& busy_agents);
  /// Claim `record_id` for an execution slot. False if absent or taken.
  bool claim(std::uint64_t record_id);
  /// Return a claimed record to the pool (abort / backoff path). Counts
  /// towards the record's admission score only while it is still queued
  /// (terminal paths release after the record was consumed).
  void release(std::uint64_t record_id);

  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  // Participant interface.
  [[nodiscard]] std::string name() const override { return "queue"; }
  [[nodiscard]] bool has_tx(TxId tx) const override;
  bool prepare(TxId tx) override;
  void commit(TxId tx) override;
  void abort(TxId tx) override;
  void on_crash() override;

 private:
  struct RecordOp {
    enum class Kind : std::uint8_t { reset = 0, append = 1, erase = 2 };
    Kind kind = Kind::reset;
    std::string key;
    serial::Bytes bytes;  // empty for erase

    void serialize(serial::Encoder& enc) const;
    void deserialize(serial::Decoder& dec);
    [[nodiscard]] std::size_t byte_size() const;
  };

  struct Staged {
    std::vector<storage::QueueRecord> enqueues;
    std::vector<std::uint64_t> removes;
    std::vector<RecordOp> record_ops;
    bool prepared = false;

    void serialize(serial::Encoder& enc) const;
    void deserialize(serial::Decoder& dec);
    [[nodiscard]] std::size_t byte_size() const;
  };

  [[nodiscard]] std::string prep_key(TxId tx) const {
    return "prep.queue:" + std::to_string(tx.value());
  }

  storage::StableStorage& stable_;
  std::function<std::uint64_t()> now_fn_;
  std::map<TxId, Staged> staged_;
  /// Aged-admission scores (volatile, like the claims): claim releases
  /// after an abort minus bypasses, positive scores only (erased at 0 or
  /// when the record is consumed; cleared on crash).
  std::unordered_map<std::uint64_t, std::uint32_t> score_;
  QueueStats stats_;
};

}  // namespace mar::tx
