// Segmented, checksummed record log with fuzzy checkpoints.
//
// The record area of StableStorage is logically a map from key to a
// segment list (base image + deltas). This module keeps its durable
// representation as rotated, CRC32-framed log segments in the style of a
// log-file manager (TokuDB's logfilemgr/checkpoint split is the
// production shape), so recovery replay is bounded by checkpoints:
//
//   segment := frame*                          (bounded by segment_bytes)
//   frame   := crc32 (4B LE) | len (4B LE) | payload
//   payload := op (1B: reset|append|erase) | key_len (4B LE) | key | data
//
// The crc covers len + payload, so a torn length header is detected the
// same way as a torn body. Frames carry implicit LSNs: a segment records
// the LSN of its first frame and frames within it are consecutive.
//
// The materialized per-key index (key -> segment list) is the volatile
// read path; the log is the durable truth.
// Recovery drops the index and replays the log:
//
//   * a bad frame at the physical tail of the log is a torn in-flight
//     write — truncate there and recover the committed prefix;
//   * a bad frame anywhere else is real damage — throw CorruptionError,
//     never silently diverge;
//   * a valid checkpoint bounds the replay: only frames with
//     lsn >= checkpoint.begin_lsn are applied on top of its snapshot.
//
// Checkpoints are fuzzy: begin_checkpoint() captures a consistent
// snapshot of the index at the current LSN without stalling appends;
// complete_checkpoint() (driven by the tx-layer flush timers, so a crash
// in between simply abandons the attempt) makes it durable. Two slots
// are retained — newest and previous — so a checkpoint torn by the crash
// it was racing falls back one generation. Log segments retire when
// every frame in them is superseded (fully dead) or when both checkpoint
// slots cover them (last_lsn < the older slot's begin_lsn).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serial/encoder.h"

namespace mar::storage {

/// Crash-time storage damage the fault hook can inject
/// (PlatformConfig::storage_fault).
enum class StorageFault : std::uint8_t {
  none = 0,
  torn_tail = 1,        ///< partial in-flight frame at the log tail
  bit_flip = 2,         ///< single bit flipped in a committed mid-log frame
  torn_checkpoint = 3,  ///< newest checkpoint slot corrupted mid-write
};

[[nodiscard]] const char* to_string(StorageFault fault);
/// Parse "torn_tail" / "bit_flip" / "torn_checkpoint" / "none"; returns
/// nullopt for anything else (CI matrix parses MAR_STORAGE_FAULT).
[[nodiscard]] std::optional<StorageFault> storage_fault_from_string(
    std::string_view name);

/// Unrecoverable log damage: a checksum failed somewhere truncation
/// cannot reach (mid-log), or every checkpoint generation is bad after
/// the log was already trimmed against one. Recovery throws instead of
/// serving a silently-wrong agent image.
class CorruptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SegmentLogConfig {
  /// Rotation threshold: a segment accepting a frame that would push it
  /// past this many bytes is sealed first. One oversized frame still
  /// lands whole (frames never split across segments).
  std::size_t segment_bytes = 16 * 1024;
};

/// What one recovery pass did (surfaced as NodeRuntime counters and the
/// storage.recovery trace line).
struct RecoveryReport {
  std::uint64_t replayed_bytes = 0;   ///< framed bytes applied to the index
  std::uint64_t replayed_frames = 0;
  std::uint64_t segments_scanned = 0; ///< segments contributing >= 1 frame
  bool truncated_torn_tail = false;   ///< dropped a torn in-flight tail
  bool used_checkpoint = false;       ///< replay started from a snapshot
  bool checkpoint_fell_back = false;  ///< newest slot bad, previous used
};

class SegmentLog {
 public:
  explicit SegmentLog(SegmentLogConfig config) : config_(config) {}

  // --- write path (mirrors the record-area mutators) ----------------------
  // Each returns the framed byte cost, which the owner meters as
  // bytes_written (the durable write is the frame, not the bare payload).
  std::size_t append_reset(const std::string& key, const serial::Bytes& base);
  std::size_t append_delta(const std::string& key, const serial::Bytes& delta);
  /// Erase frames are live until a checkpoint covers them: dropping one
  /// early would resurrect the key on full replay.
  std::size_t append_erase(const std::string& key);

  // --- read path (materialized index) -------------------------------------
  [[nodiscard]] bool has(const std::string& key) const {
    return index_.contains(key);
  }
  [[nodiscard]] const std::vector<serial::Bytes>* segments(
      const std::string& key) const;
  [[nodiscard]] std::size_t segment_count(const std::string& key) const;

  // --- fuzzy checkpoints ---------------------------------------------------
  /// Capture a snapshot of the index at the current LSN. No-op (returns
  /// false) if a checkpoint is already in progress.
  bool begin_checkpoint();
  [[nodiscard]] bool checkpoint_in_progress() const {
    return in_progress_.has_value();
  }
  /// Make the captured snapshot durable (newest slot; old newest becomes
  /// previous), then retire segments both slots cover. Returns the
  /// serialized snapshot size (0 if none was in progress).
  std::size_t complete_checkpoint();
  /// Crash path: an in-progress checkpoint evaporates with volatile state.
  void abandon_checkpoint() { in_progress_.reset(); }
  [[nodiscard]] std::uint64_t checkpoints_completed() const {
    return checkpoints_completed_;
  }

  // --- crash-time fault injection ------------------------------------------
  /// Damage the durable state as `fault` describes; deterministic in
  /// `seed`. Returns the fault actually applied (a fault with no valid
  /// target degrades to none — e.g. bit_flip on a log with no mid-log
  /// frame, torn_checkpoint with no completed checkpoint).
  StorageFault inject_fault(StorageFault fault, std::uint64_t seed);

  // --- recovery -------------------------------------------------------------
  /// Rebuild the index from the durable log + checkpoint slots. Torn
  /// tails truncate; mid-log damage throws CorruptionError. Idempotent.
  RecoveryReport recover();

  // --- introspection (benchmarks / tests) ----------------------------------
  [[nodiscard]] std::size_t live_segments() const { return segments_.size(); }
  [[nodiscard]] std::uint64_t retired_segments() const {
    return retired_segments_;
  }
  [[nodiscard]] std::size_t log_bytes() const;
  [[nodiscard]] std::uint64_t next_lsn() const { return next_lsn_; }
  /// Monotonic total of framed bytes ever appended (checkpoint cadence:
  /// unlike log_bytes() it never shrinks on retirement).
  [[nodiscard]] std::uint64_t appended_bytes() const {
    return appended_bytes_;
  }

 private:
  /// One rotated log extent. `live` counts frames not yet superseded by a
  /// later reset/erase of their key; a sealed segment at live == 0 is
  /// dead weight and retires immediately.
  struct Segment {
    std::uint64_t id = 0;
    std::uint64_t first_lsn = 0;
    std::uint64_t frames = 0;
    std::uint64_t live = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// A durable checkpoint generation. The snapshot map models the
  /// engine's durable state pages (recovery installs it without an
  /// O(state) re-scan, like a real engine trusts its tree pages); the
  /// `complete` end-marker is what a crash mid-checkpoint tears — an
  /// incomplete slot is never used, recovery falls back a generation.
  /// crc/byte_size record the write-side integrity seal and the metered
  /// snapshot size.
  struct CheckpointSlot {
    bool valid = false;     ///< a snapshot write reached this slot
    bool complete = false;  ///< end marker: the write finished
    std::uint64_t begin_lsn = 0;
    std::uint32_t crc = 0;
    std::size_t byte_size = 0;
    std::map<std::string, std::vector<serial::Bytes>> snapshot;
  };

  /// Volatile in-progress snapshot (fuzzy: appends continue after begin).
  struct PendingCheckpoint {
    std::uint64_t begin_lsn = 0;
    std::map<std::string, std::vector<serial::Bytes>> snapshot;
  };

  enum class Op : std::uint8_t { reset = 0, append = 1, erase = 2 };

  Segment& active_segment(std::size_t incoming_frame_bytes);
  std::size_t append_frame(Op op, const std::string& key,
                           const serial::Bytes& data);
  /// Supersede every earlier frame of `key`, retiring segments that go
  /// fully dead.
  void kill_frames_of(const std::string& key);
  void retire_covered_segments();

  SegmentLogConfig config_;
  /// Durable: log segments in id order (ids are monotonic; retirement
  /// leaves holes).
  std::map<std::uint64_t, Segment> segments_;
  CheckpointSlot newest_;
  CheckpointSlot previous_;
  /// Volatile: read-path index and liveness bookkeeping, rebuilt by
  /// recover().
  std::map<std::string, std::vector<serial::Bytes>> index_;
  std::map<std::string, std::vector<std::uint64_t>> key_frame_segments_;
  std::optional<PendingCheckpoint> in_progress_;
  std::uint64_t next_lsn_ = 0;
  std::uint64_t next_segment_id_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t retired_segments_ = 0;
  std::uint64_t checkpoints_completed_ = 0;
};

}  // namespace mar::storage
