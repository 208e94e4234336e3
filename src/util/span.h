// Causal spans and the per-node flight recorder.
//
// TraceSink (util/trace.h) records *what* happened; spans record *where
// time went*. Every step/migration carries a (trace_id, span_id,
// parent_span) context — trace_id is minted once per agent at launch,
// each executed hop opens a root "hop" span, and the phases inside it
// (queue-wait, lock-wait, step-exec, group-commit-flush, convoy-wait,
// wire, apply, recovery-replay) are children. The context piggybacks on
// the existing QueueRecord, so it rides ship.convoy frames and prepared
// tx markers without new message types; tools/trace_timeline.py stitches
// the spans of all nodes back into per-agent hop timelines.
//
// The sink doubles as the flight recorder: spans land in bounded
// per-node ring buffers, and on a crash, CorruptionError or
// LockAuditError the owning runtime dumps the node's recent ring as
// JSONL for post-mortem reading. Timestamps are simulation time, so a
// dump is deterministic for a seed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mar {

/// The phase taxonomy. One span kind per place a hop can spend time.
enum class SpanKind : std::uint8_t {
  hop,             ///< root: record enqueued -> step transaction committed
  queue_wait,      ///< enqueued at the node -> claimed by an execution slot
  lock_wait,       ///< lock-conflict abort -> the retry's re-claim
  step_exec,       ///< application step body (service time)
  commit_flush,    ///< commit_async -> completion (group-commit flush wait;
                   ///< for migrations includes the shipping round trip)
  convoy_wait,     ///< transfer staged -> its convoy dispatched
  wire,            ///< convoy sent -> received (network latency)
  apply,           ///< receiver-side staging of a shipped record
  recovery_replay, ///< record-log replay during node recovery
};

[[nodiscard]] std::string_view to_string(SpanKind k);

struct Span {
  std::uint64_t trace_id = 0;  ///< one per agent execution (launch-minted)
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;    ///< 0 = root
  SpanKind kind = SpanKind::hop;
  std::uint32_t node = 0;
  std::uint64_t agent = 0;     ///< AgentId value; 0 when not agent-bound
  std::uint64_t begin_us = 0;  ///< simulation time
  std::uint64_t end_us = 0;
  std::string note;            ///< small free-form payload ("steps=3")

  void write_jsonl(std::ostream& os) const;
};

/// Collects finished spans into bounded per-node rings. NOT mutex-guarded:
/// unlike the counters (which monitor threads sample mid-run), spans are
/// recorded and read only from the single thread that owns the world —
/// a hop emits several spans, so the record path must stay at
/// store-into-a-slot cost. Read the rings after the world quiesces.
/// Span ids come from one deterministic counter per sink — a world owns
/// exactly one sink, so ids are stable for a seed regardless of host
/// thread count.
class SpanSink {
 public:
  /// Next span id (starts at 1; 0 means "no parent"). Ids are allocated
  /// when a span opens so children can parent to it before it closes.
  std::uint64_t next_id() { return next_id_++; }

  void record(Span span);
  /// Build and record one finished span; `span_id` 0 draws the next id.
  /// Every span of the platform is built here.
  void add(std::uint64_t trace_id, std::uint64_t span_id, std::uint64_t parent,
           SpanKind kind, std::uint32_t node, std::uint64_t agent,
           std::uint64_t begin_us, std::uint64_t end_us, std::string note = {});

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Per-node ring capacity (at least 1); oldest spans fall off beyond
  /// it. Resets the retained rings — configure before recording.
  void set_capacity(std::size_t cap);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t count(SpanKind kind) const;
  /// All retained spans, allocation (span_id) order.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<Span> of_kind(SpanKind kind) const;

  /// JSONL dump of every retained span, span_id order (all nodes).
  void dump(std::ostream& os) const;
  /// Flight-recorder dump: one header line naming the reason, then the
  /// node's retained ring in span_id order.
  void dump_node(std::uint32_t node, std::string_view reason,
                 std::uint64_t time_us, std::ostream& os) const;

  void clear();

 private:
  /// A bounded circular buffer: grows to `capacity_` then overwrites in
  /// place — zero allocations on the steady-state hot path (a deque
  /// would malloc a chunk every few spans). `head` is the oldest slot
  /// once full; logical order is recovered by sorting on span_id.
  struct Ring {
    std::vector<Span> buf;
    std::size_t head = 0;
  };

  /// Oldest-first copy of one ring.
  static void append_in_order(const Ring& ring, std::vector<Span>& out);

  /// Rings indexed by node id (node ids are small dense integers; an
  /// index beats a map lookup on the record path). Grown on demand.
  std::vector<Ring> rings_;
  std::uint64_t next_id_ = 1;
  std::size_t capacity_ = 4096;
  bool enabled_ = true;
};

}  // namespace mar
