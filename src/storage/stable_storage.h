// Per-node stable storage.
//
// The exactly-once protocols of ref [11] keep the agent "in stable storage
// between steps": every node has an *agent input queue* on stable storage,
// and step/compensation transactions stage queue updates that become
// durable at commit. This module models a node's disk: it survives node
// crashes (the simulation only resets volatile runtime state), and it
// meters bytes written so experiments can report logging/savepoint cost.
//
// Three facilities:
//   * a durable key/value area (used for resource state, prepared-
//     transaction records and commit decisions),
//   * an append-only record area: per-key segment lists holding a base
//     image plus appended deltas (incremental agent commits — the write
//     path pays O(delta) per step instead of O(total state)), kept
//     durably in a rotated, CRC32-framed SegmentLog, and
//   * the agent input queue of the node, holding self-contained records.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "storage/segment_log.h"
#include "util/counters.h"
#include "util/ids.h"

namespace mar::storage {

/// What a queued record asks the receiving node to do with the agent.
enum class RecordKind : std::uint8_t {
  execute = 0,     ///< run the next step of the itinerary
  compensate = 1,  ///< run the next compensation transaction (rollback)
  launch = 2,      ///< route a freshly spawned child agent to its first
                   ///< step's node (multi-agent executions, Sec. 6)
};

/// A self-contained unit of agent work parked in a node's input queue:
/// the serialized agent (with its rollback log) plus routing metadata.
struct QueueRecord {
  std::uint64_t record_id = 0;  ///< globally unique; exactly-once dedup
  AgentId agent;
  RecordKind kind = RecordKind::execute;
  /// Target savepoint of an in-progress rollback (invalid when executing).
  SavepointId rollback_target = SavepointId::invalid();
  /// What happens when an in-progress rollback reaches its target
  /// savepoint (carried with the compensate record).
  enum class Completion : std::uint8_t {
    resume = 0,     ///< re-execute from the savepoint (Fig. 4a/4b)
    skip_sub = 1,   ///< abandon the sub-itinerary; resume after it (Sec. 5)
    cancel = 2,     ///< terminate the agent as `cancelled` (Sec. 6)
    next_alt = 3,   ///< enter the next alternative of the enclosing
                    ///< alternatives entry (flexible itineraries, ref [14])
  };
  Completion completion = Completion::resume;
  /// Causal trace context (observability, DESIGN.md §12): trace_id is
  /// minted once per agent execution at launch; trace_parent is the hop
  /// span that produced this record (0 for the launch record). Both are
  /// durable — they ride ship.convoy frames and prepared tx markers with
  /// the record, so a hop timeline survives migration and crash replay.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;
  /// Volatile (NOT serialized): when the record landed in this node's
  /// queue, stamped at enqueue application — the queue-wait span's begin.
  std::uint64_t enqueued_us = 0;
  /// Volatile (NOT serialized): the open hop span of the current claim,
  /// allocated at first claim, plus the hop's begin time. They ride the
  /// processing path's by-value record copies, so the happy path needs
  /// no lookup table; an aborted attempt stashes them in the runtime
  /// (NodeRuntime::hop_traces_) to survive until the re-claim.
  std::uint64_t hop_span_id = 0;
  std::uint64_t hop_begin_us = 0;
  serial::Bytes payload;  ///< serialized agent state + rollback log

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t byte_size() const;
};

/// Write metering, reported by the forward-overhead experiment (E8), the
/// steady-state durability experiment (A5) and the contention experiment
/// (A6). Counters are relaxed atomics so a monitor thread may sample a
/// world's meters while the world runs (see util/counters.h); the write
/// side stays single-threaded.
struct StorageStats {
  RelaxedCounter bytes_written;
  RelaxedCounter kv_writes;
  RelaxedCounter queue_ops;
  /// Append-only record area: segment appends / full-image rewrites.
  RelaxedCounter record_appends;
  RelaxedCounter record_resets;
  /// Metered stable-storage syncs. Each committing step transaction costs
  /// one, unless the group-commit pipeline coalesces several commits of a
  /// window into a single batch — then syncs/step drops below 1 (A6).
  RelaxedCounter sync_batches;
  /// Delta-shipped migrations (A7): payload bytes that arrived over the
  /// wire at this node vs. full-image bytes materialized locally from a
  /// cached base plus the shipped delta. reconstructed > received is the
  /// bandwidth the shipment cache saved the network.
  RelaxedCounter ship_bytes_received;
  RelaxedCounter ship_bytes_reconstructed;
  /// Crash recovery (A8): bytes / segments the record-log replay read to
  /// rebuild the read path, and fuzzy checkpoints completed.
  RelaxedCounter recovery_replayed_bytes;
  RelaxedCounter recovery_segments;
  RelaxedCounter checkpoints_completed;
};

class StableStorage {
 public:
  // --- durable key/value --------------------------------------------------
  void put(const std::string& key, serial::Bytes value);
  [[nodiscard]] std::optional<serial::Bytes> get(const std::string& key) const;
  bool erase(const std::string& key);
  [[nodiscard]] bool contains(const std::string& key) const;
  /// All keys with the given prefix (recovery scans).
  [[nodiscard]] std::vector<std::string> keys_with_prefix(
      const std::string& prefix) const;
  /// Visit every (key, value) with the given prefix, in key order,
  /// without materializing a vector of key copies. Preferred over
  /// keys_with_prefix for scan loops.
  void for_each_with_prefix(
      const std::string& prefix,
      const std::function<void(const std::string&, const serial::Bytes&)>&
          fn) const;

  // --- append-only record area --------------------------------------------
  // A record is a list of segments: segments[0] is a full base image,
  // the rest are deltas in append order. The hot path only ever appends;
  // compaction replaces the whole list with a freshly merged base
  // (record_reset — the storage layer cannot merge segments itself, the
  // owner supplies the merged image).
  /// Replace the record with a single base segment (also: compaction).
  void record_reset(const std::string& key, serial::Bytes base);
  /// Append a delta segment to an existing record (creates the record if
  /// absent, which recovery treats as a base — callers always reset
  /// first).
  void record_append(const std::string& key, serial::Bytes delta);
  /// Drop the record. Returns false if absent.
  bool record_erase(const std::string& key);
  [[nodiscard]] bool has_record(const std::string& key) const;
  /// The record's segments, base first; nullptr when absent.
  [[nodiscard]] const std::vector<serial::Bytes>* record_segments(
      const std::string& key) const;
  /// Number of segments (0 when absent); the delta-chain length is
  /// segment count - 1, which drives periodic compaction.
  [[nodiscard]] std::size_t record_segment_count(const std::string& key)
      const;

  // --- segmented record log (rotation, checkpoints, recovery) --------------
  // The record area's durable representation is a rotated CRC32-framed
  // SegmentLog; the record_* API above reads its materialized per-key
  // index, writes are metered at framed cost, and recovery replays the
  // log. Checkpoints are off until the tx layer arms them, so by default
  // recovery replays the whole retained log.
  /// Set the log's configuration. Setup-time only: must precede the
  /// first record write.
  void enable_segmented_log(SegmentLogConfig config);
  /// The underlying log (checkpoint cadence).
  [[nodiscard]] const SegmentLog& segment_log() const { return seg_log_; }

  /// Fuzzy checkpoint pass-throughs (driven by the tx-layer flush
  /// timers). Returns false if one is already in progress.
  bool begin_checkpoint() { return seg_log_.begin_checkpoint(); }
  /// Completes an in-progress checkpoint; meters the snapshot write and
  /// bumps checkpoints_completed. Returns false if none was in progress.
  bool complete_checkpoint();

  /// Crash-time damage hook (PlatformConfig::storage_fault).
  StorageFault inject_storage_fault(StorageFault fault, std::uint64_t seed) {
    return seg_log_.inject_fault(fault, seed);
  }

  /// Rebuild the record read path after a crash: replays the log (may
  /// truncate a torn tail or throw CorruptionError) and bumps the
  /// recovery_* counters.
  RecoveryReport recover_records();

  /// Force accumulated writes to disk (the fsync of the model): a pure
  /// metering point — the kv/record/queue state is already applied when
  /// this is called; sync marks where a real engine would pay the barrier.
  void sync() { ++stats_.sync_batches; }

  /// Meter one inbound shipment: `received` payload bytes on the wire
  /// became `reconstructed` full-image bytes in the staged record (equal
  /// for full-image frames, received << reconstructed for deltas).
  void note_shipment(std::size_t received, std::size_t reconstructed) {
    stats_.ship_bytes_received += received;
    stats_.ship_bytes_reconstructed += reconstructed;
  }

  // --- agent input queue ---------------------------------------------------
  // A FIFO list indexed by record id: enqueue, remove, lookup and the
  // claim marks cost O(1) at any queue depth.
  /// Append a record. Duplicate record_ids are ignored (exactly-once).
  void enqueue(QueueRecord record);
  /// Remove the record with this id. Returns false if absent.
  bool remove(std::uint64_t record_id);
  [[nodiscard]] bool contains_record(std::uint64_t record_id) const {
    return index_.contains(record_id);
  }
  [[nodiscard]] const std::list<QueueRecord>& queue() const { return queue_; }
  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  /// Oldest record, if any.
  [[nodiscard]] const QueueRecord* front() const;
  /// Look up a queued record by id (claimed or not).
  [[nodiscard]] const QueueRecord* find_record(std::uint64_t record_id) const;

  // --- volatile claim marks (slotted scheduling) ---------------------------
  // A node runtime claims a record while one of its execution slots works
  // on it. Claims are runtime state, NOT durable: the record itself stays
  // queued until its transaction commits, and a crash clears every claim so
  // recovery re-offers all records — the restartability the protocols need.
  /// Mark a record claimed. Returns false if absent or already claimed.
  bool claim(std::uint64_t record_id);
  /// Return a claimed record to the pool (abort / backoff path). Removing
  /// a record also drops its claim, so terminal paths need no release.
  void release_claim(std::uint64_t record_id);
  [[nodiscard]] bool claimed(std::uint64_t record_id) const;
  /// Crash: volatile claims evaporate with the node's runtime state.
  void clear_claims();

  [[nodiscard]] const StorageStats& stats() const { return stats_; }

 private:
  std::map<std::string, serial::Bytes> kv_;
  SegmentLog seg_log_{SegmentLogConfig{}};
  std::list<QueueRecord> queue_;
  /// Per queued record: its list position and volatile claim mark.
  struct QueueSlot {
    std::list<QueueRecord>::iterator pos;
    bool claimed = false;
  };
  std::unordered_map<std::uint64_t, QueueSlot> index_;
  /// Ids ever enqueued; dedup must outlive removal so a duplicate commit
  /// of the same transfer cannot re-insert a consumed record.
  std::unordered_set<std::uint64_t> seen_records_;
  StorageStats stats_;
};

}  // namespace mar::storage
