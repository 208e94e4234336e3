// Structured execution tracing.
//
// The figure-reproduction benches (Fig. 1–3 of the paper) and several
// integration tests need an ordered record of what the platform did:
// step-transaction begin/commit/abort, agent migrations, compensation
// transactions, savepoint writes. Components emit events into a TraceSink
// owned by the simulation world; benches render them, tests assert on them.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mar {

/// Categories of trace events, roughly one per protocol action.
enum class TraceKind {
  step_begin,       ///< A step transaction started.
  step_commit,      ///< A step transaction committed.
  step_abort,       ///< A step transaction aborted.
  migrate,          ///< Agent enqueued at another node (within a tx).
  savepoint,        ///< A savepoint entry was written to the rollback log.
  rollback_begin,   ///< Partial rollback initiated by the application.
  comp_begin,       ///< A compensation transaction started.
  comp_op,          ///< A compensating operation was executed.
  comp_commit,      ///< A compensation transaction committed.
  comp_abort,       ///< A compensation transaction aborted.
  restore,          ///< Strongly reversible objects restored from an SP.
  rollback_done,    ///< Rollback reached the target savepoint.
  rce_shipped,      ///< Resource compensation entries shipped (optimized).
  mce_shipped,      ///< Mixed step's entries + weak state shipped (adaptive).
  convoy,           ///< Batched agent transfers left for one destination.
  log_discard,      ///< Whole rollback log discarded (itinerary semantics).
  sp_gc,            ///< A savepoint entry garbage-collected from the log.
  crash,            ///< Node crashed.
  recover,          ///< Node recovered.
  tx_pipeline,      ///< Commit-pipeline transition (decided/flushed/acked).
  storage_recovery, ///< Record-log recovery scan (replayed bytes/segments).
  msg,              ///< Free-form message.
};

[[nodiscard]] std::string_view to_string(TraceKind k);

struct TraceEvent {
  std::uint64_t time_us = 0;  ///< Simulation time in microseconds.
  TraceKind kind = TraceKind::msg;
  std::uint32_t node = 0;     ///< Node where the event occurred.
  std::string detail;         ///< Human-readable payload.
};

/// Collects trace events in order. Mutations and the copying accessors
/// (emit / count / of_kind / size / clear / print) are mutex-guarded, so a
/// sink may be shared by worlds running on different threads (parallel
/// experiment sweeps that funnel one event stream) or polled live by a
/// monitor thread. events() returns an unguarded reference and remains
/// owner-thread-only: call it only when no other thread is emitting.
class TraceSink {
 public:
  void emit(std::uint64_t time_us, TraceKind kind, std::uint32_t node,
            std::string detail);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear();

  /// Number of events recorded so far.
  [[nodiscard]] std::size_t size() const;

  /// Number of events of the given kind.
  [[nodiscard]] std::size_t count(TraceKind kind) const;

  /// All events of a given kind, in order.
  [[nodiscard]] std::vector<TraceEvent> of_kind(TraceKind kind) const;

  /// Render the whole trace, one event per line.
  void print(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace mar
