// Distributed transactions: coordinator and participant endpoints.
//
// Step transactions and compensation transactions in the paper are
// (potentially distributed) ACID transactions: a step's resource updates,
// the removal of the agent from the local input queue and its insertion
// into the next node's input queue commit atomically (Sec. 2). This module
// provides that with two-phase commit, presumed abort:
//
//   * local-only transactions take a one-phase fast path;
//   * with remote participants, the coordinator prepares its local
//     participants (persisting their staged effects), collects votes,
//     persists a commit decision record, then drives COMMIT until every
//     remote acknowledges — re-driving from the decision record after a
//     coordinator crash;
//   * participants persist prepared state; in-doubt participants
//     periodically send an INQUIRY to the coordinator, which answers from
//     its decision records (no record ⇒ presumed abort).
//
// All message exchange uses the reliable network layer, so transient node
// and link failures only delay the outcome — the property the paper's
// rollback liveness argument builds on.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "net/network.h"
#include "storage/stable_storage.h"
#include "sim/simulator.h"
#include "tx/participant.h"
#include "util/counters.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/trace.h"

namespace mar::tx {

/// Commit-pipeline observability (RelaxedCounter: safe to sample from a
/// monitor thread mid-run).
struct TxStats {
  /// Gauge: transactions this node coordinates that have begun but not
  /// reached `done` (callback fired AND protocol forgotten): the number of
  /// overlapping commits in the pipeline.
  RelaxedCounter inflight_tx;
  /// Stable-storage syncs paid for coordinator decision durability. The
  /// decision queue amortizes every decision of one flush into one.
  RelaxedCounter coordinator_syncs;
  /// High-water mark of inflight_tx.
  RelaxedCounter pipeline_depth_max;
};

/// Builds the TxId for the `n`-th transaction coordinated by `node`.
[[nodiscard]] constexpr TxId make_tx_id(NodeId node, std::uint64_t counter) {
  return TxId((static_cast<std::uint64_t>(node.value()) << 40) | counter);
}
/// Extracts the coordinating node from a TxId.
[[nodiscard]] constexpr NodeId coordinator_of(TxId tx) {
  return NodeId(static_cast<std::uint32_t>(tx.value() >> 40));
}

/// Message type tags understood by TxManager::on_message.
namespace msg {
inline constexpr const char* prepare = "tx.prepare";
inline constexpr const char* vote = "tx.vote";
inline constexpr const char* commit = "tx.commit";
inline constexpr const char* commit_ack = "tx.commit_ack";
inline constexpr const char* abort = "tx.abort";
inline constexpr const char* inquiry = "tx.inquiry";
inline constexpr const char* decision = "tx.decision";
}  // namespace msg

class TxManager {
 public:
  using CommitCallback = std::function<void(bool committed)>;

  TxManager(NodeId self, sim::Simulator& sim, net::Network& net,
            storage::StableStorage& stable);

  /// Register a participant living on this node (queue manager, resource
  /// manager). Remote PREPARE/COMMIT/ABORT is fanned out to all registered
  /// participants that hold state for the transaction.
  void register_participant(Participant& p);

  // --- coordinator side ----------------------------------------------------
  [[nodiscard]] TxId begin();
  /// Record that `node` holds staged state for `tx` (it must be told the
  /// outcome). Safe to call repeatedly.
  void enlist_remote(TxId tx, NodeId node);
  [[nodiscard]] bool has_remote(TxId tx, NodeId node) const;
  /// Drive the commit protocol; invokes `cb` exactly once unless this node
  /// crashes first (after a crash, recovery finishes the protocol without
  /// the callback — callers recover through their own durable state).
  void commit_async(TxId tx, CommitCallback cb);
  /// Abort a transaction this node coordinates.
  void abort_tx(TxId tx);
  /// Abort `tx` only if it is still collecting votes. Used by transfer
  /// timeouts, since the commit machinery runs concurrently with the
  /// shipment: once a decision exists (or the transaction is gone) the
  /// timeout is stale and must not fire the callback a second time.
  void abort_if_preparing(TxId tx);
  /// Mark `node` as receiving its PREPARE piggybacked on the shipment
  /// frame itself (ship.convoy): commit_async must not send a separate
  /// tx.prepare to it. The vote arrives as usual; the re-drive loop falls
  /// back to explicit PREPAREs, which a participant that never saw the
  /// convoy answers with NO (presumed abort + caller retry).
  void note_piggybacked(TxId tx, NodeId node);

  // --- participant side -----------------------------------------------------
  /// Note that a remote coordinator staged state at this node (e.g. an
  /// agent enqueue or shipped compensating operations). Starts the in-doubt
  /// inquiry timer so an orphaned transaction is eventually presumed
  /// aborted and its staged state (and locks) released.
  void note_remote_staged(TxId tx);
  /// A PREPARE carried inside a ship.convoy frame (one round trip: the
  /// transfer IS the prepare). Routes into the same vote machinery as a
  /// tx.prepare message; convoys deliver whole batches of these at once,
  /// so the participant window flushes them under one shared barrier.
  void on_piggybacked_prepare(TxId tx, NodeId coordinator) {
    handle_prepare(tx, coordinator);
  }

  // --- wiring ---------------------------------------------------------------
  /// Dispatch one tx.* message (the platform owns the node's handler).
  void on_message(const net::Message& m);
  /// Crash/recovery hooks, called by the platform's node runtime.
  void on_crash();
  void on_recover();

  /// True while this node coordinates unfinished transactions or holds
  /// prepared participant state (used by tests to detect quiescence).
  [[nodiscard]] bool idle() const;

  /// Stable-storage syncs paid as a 2PC PARTICIPANT (prepare barriers
  /// before YES votes, commit applies before acks) — the share of this
  /// node's sync_batches that convoy batching + participant-side group
  /// commit amortize. A7 reports this per agent-hop.
  [[nodiscard]] std::uint64_t participant_syncs() const {
    return participant_syncs_;
  }

  /// Commit-pipeline counters (monitor-thread-safe).
  [[nodiscard]] const TxStats& stats() const { return stats_; }

  [[nodiscard]] NodeId self() const { return self_; }

  /// Attach a trace sink; the pipeline emits TraceKind::tx_pipeline
  /// transitions (decided/flushed/acked) so one transaction's pipeline
  /// latency can be reconstructed from a trace dump. Optional — tests that
  /// construct TxManager directly run untraced.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Interval at which in-doubt participants re-ask the coordinator.
  void set_inquiry_interval(sim::TimeUs t) { inquiry_interval_ = t; }

  /// Called after a batched participant flush applied remote commits:
  /// queue records may have landed outside any message dispatch (the
  /// flush timer), so the owning runtime re-pumps its scheduler here.
  void set_apply_listener(std::function<void()> fn) {
    apply_listener_ = std::move(fn);
  }

  /// Group commit (the MariaDB/TokuDB-style log batching): decided
  /// local-only commits enter a queue that is flushed — participants
  /// applied, ONE metered sync, callbacks — when `window` commits are
  /// pending or `flush_us` after the first one. Window 1 flushes at every
  /// entry (one sync per commit).
  ///
  /// The same window coalesces the coordinator's decision records (see
  /// Phase) and the PARTICIPANT side of 2PC: incoming PREPAREs and COMMIT
  /// applies queue up and flush with a shared sync each — votes and
  /// commit-acks leave only after the batched barrier, so convoyed agent
  /// transfers towards one node pay ~2 syncs per batch instead of 2 per
  /// transfer. A crash before the flush loses the queued (volatile,
  /// unvoted) prepares, so their coordinators read the silence as
  /// presumed abort — the same crash atomicity the local commit queue
  /// has.
  void set_group_commit(std::uint32_t window, sim::TimeUs flush_us) {
    group_window_ = window;
    group_flush_us_ = flush_us;
  }

  /// Fuzzy record-log checkpoints: whenever a group-commit flush observes
  /// >= `interval_bytes` of new record-log writes since the last
  /// checkpoint, begin one — snapshot at the current LSN without stalling
  /// the pipeline — and complete it `write_us` later on an epoch-guarded
  /// timer, so a crash inside the window simply abandons the attempt (the
  /// previous generation stays valid). 0 disables.
  void set_checkpoint(std::size_t interval_bytes, sim::TimeUs write_us) {
    checkpoint_interval_bytes_ = interval_bytes;
    checkpoint_write_us_ = write_us;
  }

 private:
  /// Coordinator-side per-transaction state machine. In `deciding` all
  /// votes are in and the decision record sits in decision_queue_
  /// awaiting the batched durability flush (ONE sync for the whole
  /// batch), after which the transaction drains acks in `committing`.
  /// The callback fires at ack drain, preserving the caller-visible
  /// invariant that a finished transaction's effects are applied at
  /// every participant.
  ///
  ///   preparing --all votes--> deciding --flush--> committing --acks--> done
  ///       |                        \ (crash: nothing persisted ->
  ///       +--NO vote/abort--> done    presumed abort)
  enum class Phase { preparing, deciding, committing };
  struct Coord {
    std::set<NodeId> remotes;
    std::set<NodeId> votes_pending;
    std::set<NodeId> acks_pending;
    /// Remotes whose PREPARE rides the convoy frame (no tx.prepare sent).
    std::set<NodeId> piggybacked;
    Phase phase = Phase::preparing;
    /// Whether this entry came through begin() and is counted in the
    /// inflight gauge (recovery-rebuilt entries are not).
    bool counted = false;
    CommitCallback callback;
  };

  // Coordinator internals.
  void decide_commit(TxId tx, Coord& c);
  void decide_abort(TxId tx, Coord& c);
  void finish(TxId tx, Coord& c, bool committed);
  /// Apply every queued local commit, pay one sync, run the callbacks.
  void flush_commit_group();
  void schedule_group_flush();
  /// Persist every queued commit decision, pay ONE metered sync, send the
  /// COMMITs (callbacks fire later, at ack drain).
  void flush_decision_group();
  /// Arm the decision flush: `hot` schedules an immediate (same-instant)
  /// flush once the window filled — it still runs after every event
  /// already queued for this timestamp, so a burst of votes larger than
  /// the window shares one barrier; otherwise dwell group_flush_us_.
  void schedule_decision_flush(bool hot);
  void arm_commit_redrive(TxId tx);
  /// Inflight gauge maintenance (mirrors into stats_, tracks high water).
  void inflight_add();
  void inflight_remove();
  bool prepare_locals(TxId tx);
  void commit_locals(TxId tx);
  void abort_locals(TxId tx);
  void persist_decision(TxId tx, const std::set<NodeId>& remotes);
  void send(NodeId to, const char* type, TxId tx, bool flag = false);

  // Participant internals.
  void handle_prepare(TxId tx, NodeId coordinator);
  void handle_commit(TxId tx, NodeId coordinator);
  struct PendingPart {
    TxId tx;
    NodeId coordinator;
  };
  /// Queue a prepare or commit apply (once per tx) and flush the
  /// participant batch when the window is full.
  void enqueue_participant_work(std::vector<PendingPart>& queue, TxId tx,
                                NodeId coordinator);
  /// Run queued participant prepares and commit applies, pay one shared
  /// sync, then release the votes and acks.
  void flush_participant_group();
  void schedule_participant_flush();
  void handle_abort(TxId tx);
  void handle_inquiry(TxId tx, NodeId from);
  void handle_decision(TxId tx, bool committed);
  void persist_prepared_marker(TxId tx);
  void clear_prepared_marker(TxId tx);
  void schedule_inquiry(TxId tx);
  void trace_pipeline(const char* what, TxId tx);
  /// Checkpoint trigger, evaluated at every batched flush point (the
  /// moments this node already pays a durability barrier).
  void maybe_begin_checkpoint();

  [[nodiscard]] std::string decision_key(TxId tx) const;
  [[nodiscard]] std::string prepared_key(TxId tx) const;

  NodeId self_;
  sim::Simulator& sim_;
  net::Network& net_;
  storage::StableStorage& stable_;
  std::vector<Participant*> participants_;
  std::map<TxId, Coord> coords_;
  /// Transactions this node has prepared as a participant and whose
  /// outcome is still unknown (coordinator field for inquiries).
  std::map<TxId, NodeId> in_doubt_;
  std::uint64_t next_tx_ = 1;
  sim::TimeUs inquiry_interval_ = 200'000;  // 200 ms
  std::uint64_t epoch_ = 0;  ///< bumped on crash; cancels stale timers

  /// Decided-but-unsynced local commits awaiting the group flush. Their
  /// participants still hold locks and prepared markers; a crash before
  /// the flush presumed-aborts them (nothing was applied), which is the
  /// crash atomicity of a batched sync.
  std::vector<std::pair<TxId, CommitCallback>> commit_queue_;
  bool flush_pending_ = false;
  /// Bumped on every flush; invalidates armed flush timers so a batch
  /// never inherits the previous batch's deadline.
  std::uint64_t flush_gen_ = 0;
  std::uint32_t group_window_ = 1;
  sim::TimeUs group_flush_us_ = 100;

  /// Fuzzy-checkpoint cadence (0 = off) and simulated snapshot write time.
  std::size_t checkpoint_interval_bytes_ = 0;
  sim::TimeUs checkpoint_write_us_ = 500;
  /// appended_bytes() watermark at the last checkpoint begin.
  std::uint64_t checkpoint_mark_ = 0;

  /// Fully-voted distributed commits whose decision records await the
  /// batched durability flush. Volatile — a crash before the flush
  /// persisted nothing, so the prepared participants resolve to presumed
  /// abort through their inquiries, exactly as if the coordinator had
  /// never decided.
  std::vector<TxId> decision_queue_;
  bool decision_flush_pending_ = false;  ///< dwell timer armed
  bool decision_flush_hot_ = false;      ///< same-instant flush armed
  std::uint64_t decision_flush_gen_ = 0;

  /// Coordinated transactions begun but not yet done (plain counter: all
  /// mutation happens on the owning sim thread; stats_ carries the
  /// cross-thread-readable mirror).
  std::uint64_t inflight_ = 0;

  TxStats stats_;
  TraceSink* trace_ = nullptr;

  /// Participant-side pending work awaiting the batched flush: PREPAREs
  /// not yet persisted/voted and COMMITs not yet applied/acked. Volatile —
  /// a crash drops queued prepares unvoted (presumed abort) and leaves
  /// queued commits to the coordinator's COMMIT re-drive / the inquiry
  /// protocol.
  std::vector<PendingPart> prepare_queue_;
  std::vector<PendingPart> apply_queue_;
  bool part_flush_pending_ = false;
  std::uint64_t part_flush_gen_ = 0;
  std::function<void()> apply_listener_;
  std::uint64_t participant_syncs_ = 0;
};

}  // namespace mar::tx
