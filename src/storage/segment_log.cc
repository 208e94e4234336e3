#include "storage/segment_log.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace mar::storage {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Slice-by-8 tables: table[0] is the classic bytewise table of the
// reflected polynomial 0xEDB88320; table[k][b] is the CRC of byte b
// followed by k zero bytes, so eight input bytes fold in one step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::size_t kFrameHeader = 8;  // crc32 + len
constexpr std::size_t kPayloadHeader = 5;  // op + key_len

/// Deterministic small PRNG for fault placement (splitmix64).
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static constexpr CrcTables kT = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = c ^ get_u32(data);
    const std::uint32_t hi = get_u32(data + 4);
    c = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
        kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFFu] ^
        kT[2][(hi >> 8) & 0xFFu] ^ kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) c = kT[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* to_string(StorageFault fault) {
  switch (fault) {
    case StorageFault::none: return "none";
    case StorageFault::torn_tail: return "torn_tail";
    case StorageFault::bit_flip: return "bit_flip";
    case StorageFault::torn_checkpoint: return "torn_checkpoint";
  }
  return "unknown";
}

std::optional<StorageFault> storage_fault_from_string(std::string_view name) {
  if (name == "none") return StorageFault::none;
  if (name == "torn_tail") return StorageFault::torn_tail;
  if (name == "bit_flip") return StorageFault::bit_flip;
  if (name == "torn_checkpoint") return StorageFault::torn_checkpoint;
  return std::nullopt;
}

SegmentLog::Segment& SegmentLog::active_segment(
    std::size_t incoming_frame_bytes) {
  if (!segments_.empty()) {
    Segment& tail = segments_.rbegin()->second;
    if (tail.bytes.size() + incoming_frame_bytes <= config_.segment_bytes ||
        tail.bytes.empty()) {
      return tail;
    }
    // Seal the tail; a sealed, fully-dead segment retires on the spot.
    if (tail.live == 0) {
      retired_segments_ += segments_.erase(tail.id);
    }
  }
  Segment seg;
  seg.id = next_segment_id_++;
  seg.first_lsn = next_lsn_;
  return segments_.emplace(seg.id, std::move(seg)).first->second;
}

std::size_t SegmentLog::append_frame(Op op, const std::string& key,
                                     const serial::Bytes& data) {
  const std::size_t payload_size = kPayloadHeader + key.size() + data.size();
  const std::size_t frame_size = kFrameHeader + payload_size;
  Segment& seg = active_segment(frame_size);

  // The frame is written straight into the segment, then sealed in place.
  auto& out = seg.bytes;
  const std::size_t begin = out.size();
  if (out.capacity() < begin + frame_size) {
    // Geometric growth keeps a segment's appends amortized O(1).
    out.reserve(std::max(begin + frame_size, 2 * out.capacity()));
  }
  put_u32(out, 0);  // crc placeholder
  put_u32(out, static_cast<std::uint32_t>(payload_size));
  out.push_back(static_cast<std::uint8_t>(op));
  put_u32(out, static_cast<std::uint32_t>(key.size()));
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), data.begin(), data.end());
  // CRC covers len + payload so a torn length header fails the same check.
  const std::uint32_t crc = crc32(out.data() + begin + 4, frame_size - 4);
  out[begin] = static_cast<std::uint8_t>(crc);
  out[begin + 1] = static_cast<std::uint8_t>(crc >> 8);
  out[begin + 2] = static_cast<std::uint8_t>(crc >> 16);
  out[begin + 3] = static_cast<std::uint8_t>(crc >> 24);

  ++seg.frames;
  ++seg.live;
  ++next_lsn_;
  appended_bytes_ += frame_size;
  key_frame_segments_[key].push_back(seg.id);
  return frame_size;
}

void SegmentLog::kill_frames_of(const std::string& key) {
  auto it = key_frame_segments_.find(key);
  if (it == key_frame_segments_.end()) return;
  for (std::uint64_t seg_id : it->second) {
    auto sit = segments_.find(seg_id);
    if (sit == segments_.end()) continue;  // already retired
    Segment& seg = sit->second;
    if (seg.live > 0) --seg.live;
    // A sealed segment with nothing live left is pure garbage: every
    // frame in it has been superseded by a younger reset/erase whose
    // replay reproduces the final state without it.
    if (seg.live == 0 && seg.id != segments_.rbegin()->first) {
      segments_.erase(sit);
      ++retired_segments_;
    }
  }
  key_frame_segments_.erase(it);
}

std::size_t SegmentLog::append_reset(const std::string& key,
                                     const serial::Bytes& base) {
  kill_frames_of(key);
  const std::size_t framed = append_frame(Op::reset, key, base);
  auto& segs = index_[key];
  segs.clear();
  segs.push_back(base);
  return framed;
}

std::size_t SegmentLog::append_delta(const std::string& key,
                                     const serial::Bytes& delta) {
  const std::size_t framed = append_frame(Op::append, key, delta);
  index_[key].push_back(delta);
  return framed;
}

std::size_t SegmentLog::append_erase(const std::string& key) {
  kill_frames_of(key);
  const std::size_t framed = append_frame(Op::erase, key, {});
  index_.erase(key);
  return framed;
}

const std::vector<serial::Bytes>* SegmentLog::segments(
    const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second;
}

std::size_t SegmentLog::segment_count(const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.size();
}

bool SegmentLog::begin_checkpoint() {
  if (in_progress_.has_value()) return false;
  PendingCheckpoint pending;
  pending.begin_lsn = next_lsn_;
  pending.snapshot = index_;  // consistent at begin; appends keep flowing
  in_progress_ = std::move(pending);
  return true;
}

std::size_t SegmentLog::complete_checkpoint() {
  if (!in_progress_.has_value()) return 0;
  CheckpointSlot slot;
  slot.begin_lsn = in_progress_->begin_lsn;
  // Write-side integrity seal: serialize the snapshot once to meter its
  // durable size and stamp a CRC over the written image. Recovery never
  // re-scans this — like an engine trusting its checkpointed tree pages,
  // it checks only the end marker (`complete`) and installs the state.
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(in_progress_->snapshot.size()));
  for (const auto& [key, segs] : in_progress_->snapshot) {
    put_u32(out, static_cast<std::uint32_t>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    put_u32(out, static_cast<std::uint32_t>(segs.size()));
    for (const auto& seg : segs) {
      put_u32(out, static_cast<std::uint32_t>(seg.size()));
      out.insert(out.end(), seg.begin(), seg.end());
    }
  }
  slot.crc = crc32(out.data(), out.size());
  slot.byte_size = out.size();
  slot.snapshot = std::move(in_progress_->snapshot);
  slot.valid = true;
  slot.complete = true;  // the end marker lands last
  in_progress_.reset();
  previous_ = std::move(newest_);
  newest_ = std::move(slot);
  ++checkpoints_completed_;
  retire_covered_segments();
  return newest_.byte_size;
}

void SegmentLog::retire_covered_segments() {
  // Recovery may need to fall back one checkpoint generation, so the log
  // must stay replayable from the OLDER slot's begin_lsn. Only when both
  // generations exist — and the fallback one is intact — is anything
  // below the previous slot expendable.
  if (!newest_.valid || !previous_.valid || !previous_.complete) return;
  const std::uint64_t floor_lsn = previous_.begin_lsn;
  for (auto it = segments_.begin(); it != segments_.end();) {
    const Segment& seg = it->second;
    const bool sealed = seg.id != segments_.rbegin()->first;
    if (sealed && seg.first_lsn + seg.frames <= floor_lsn) {
      it = segments_.erase(it);
      ++retired_segments_;
    } else {
      ++it;
    }
  }
}

StorageFault SegmentLog::inject_fault(StorageFault fault, std::uint64_t seed) {
  std::uint64_t rng = seed * 0x2545F4914F6CDD1Dull + 1;
  switch (fault) {
    case StorageFault::none:
      return StorageFault::none;
    case StorageFault::torn_tail: {
      // Model a crash mid-append: a partial frame of garbage lands after
      // the last committed frame. The committed prefix is untouched, so
      // truncation at the first bad checksum restores exactly the
      // pre-crash committed state.
      Segment& seg = active_segment(kFrameHeader + 1);
      const std::size_t torn = 1 + mix64(rng) % (kFrameHeader + 24);
      for (std::size_t i = 0; i < torn; ++i) {
        seg.bytes.push_back(static_cast<std::uint8_t>(mix64(rng)));
      }
      return StorageFault::torn_tail;
    }
    case StorageFault::bit_flip: {
      // Flip one bit inside a committed frame that is NOT the physical
      // tail frame: tail damage is indistinguishable from a torn write
      // and would be (correctly, but silently) truncated away. Mid-log
      // damage must hard-fail instead.
      struct Target {
        Segment* seg;
        std::size_t offset;
        std::size_t size;
      };
      std::vector<Target> frames;
      for (auto& [id, seg] : segments_) {
        std::size_t off = 0;
        while (off + kFrameHeader <= seg.bytes.size()) {
          const std::uint32_t len = get_u32(seg.bytes.data() + off + 4);
          if (off + kFrameHeader + len > seg.bytes.size()) break;
          frames.push_back({&seg, off, kFrameHeader + len});
          off += kFrameHeader + len;
        }
      }
      if (frames.size() < 2) return StorageFault::none;
      frames.pop_back();  // never the physical tail frame
      const Target& t = frames[mix64(rng) % frames.size()];
      const std::size_t bit = mix64(rng) % (t.size * 8);
      t.seg->bytes[t.offset + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      return StorageFault::bit_flip;
    }
    case StorageFault::torn_checkpoint: {
      // The crash lands mid-checkpoint-write: the newest slot never got
      // its end marker, and whatever bytes it holds are untrustworthy.
      // Scramble the seal too so nothing downstream can mistake the slot
      // for intact.
      if (!newest_.valid || !newest_.complete) return StorageFault::none;
      newest_.complete = false;
      newest_.crc ^= static_cast<std::uint32_t>(mix64(rng) | 1u);
      return StorageFault::torn_checkpoint;
    }
  }
  return StorageFault::none;
}

RecoveryReport SegmentLog::recover() {
  RecoveryReport report;
  in_progress_.reset();  // volatile: died with the node
  index_.clear();
  key_frame_segments_.clear();

  // Choose the replay base: newest checkpoint, else previous, else empty.
  // A slot without its end marker was torn by a crash mid-write and is
  // never trusted; installing an intact slot is a state copy, not a scan.
  std::uint64_t start_lsn = 0;
  auto install_slot = [&](const CheckpointSlot& slot) -> bool {
    if (!slot.valid || !slot.complete) return false;
    index_ = slot.snapshot;  // copy: the slot must survive the next crash
    start_lsn = slot.begin_lsn;
    return true;
  };
  if (install_slot(newest_)) {
    report.used_checkpoint = true;
  } else if (newest_.valid) {
    // Newest slot torn: fall back a generation. The log is retained back
    // to previous.begin_lsn exactly for this.
    if (install_slot(previous_)) {
      report.used_checkpoint = true;
      report.checkpoint_fell_back = true;
      newest_ = std::move(previous_);
      previous_ = CheckpointSlot{};
    } else if (previous_.valid) {
      // Both generations damaged after the log was trimmed against the
      // older one: a full replay can no longer reproduce the state.
      throw CorruptionError("no intact checkpoint generation survives");
    }
    // No previous slot ever completed => the log was never trimmed; a
    // full replay from LSN 0 is still complete.
  }

  // Replay retained segments in order. Liveness bookkeeping is rebuilt on
  // the fly for every parsed frame (including pre-checkpoint ones) so
  // post-recovery retirement decisions match a never-crashed log.
  const std::uint64_t tail_segment =
      segments_.empty() ? 0 : segments_.rbegin()->first;
  for (auto& [id, seg] : segments_) {
    std::size_t off = 0;
    std::uint64_t lsn = seg.first_lsn;
    std::uint64_t parsed_frames = 0;
    std::uint64_t live = 0;
    bool scanned = false;
    auto torn_or_throw = [&](const char* what) {
      // Truncation is only sound for a torn in-flight write, i.e. damage
      // with nothing valid after it. A bad frame in an earlier segment —
      // or one followed by any validly-framed bytes — is real corruption:
      // truncating there would silently drop committed frames.
      bool valid_frame_follows = false;
      if (id == tail_segment) {
        for (std::size_t p = off + 1; p + kFrameHeader <= seg.bytes.size();
             ++p) {
          const std::uint32_t c = get_u32(seg.bytes.data() + p);
          const std::uint32_t l = get_u32(seg.bytes.data() + p + 4);
          if (p + kFrameHeader + l <= seg.bytes.size() &&
              crc32(seg.bytes.data() + p + 4, 4 + l) == c) {
            valid_frame_follows = true;
            break;
          }
        }
      }
      if (id != tail_segment || valid_frame_follows) {
        throw CorruptionError(std::string("mid-log damage: ") + what);
      }
      seg.bytes.resize(off);  // torn in-flight tail: truncate
      report.truncated_torn_tail = true;
    };
    while (off < seg.bytes.size()) {
      if (off + kFrameHeader > seg.bytes.size()) {
        torn_or_throw("partial frame header");
        break;
      }
      const std::uint32_t stored_crc = get_u32(seg.bytes.data() + off);
      const std::uint32_t len = get_u32(seg.bytes.data() + off + 4);
      if (off + kFrameHeader + len > seg.bytes.size() ||
          crc32(seg.bytes.data() + off + 4, 4 + len) != stored_crc) {
        torn_or_throw("frame checksum mismatch");
        break;
      }
      const std::uint8_t* payload = seg.bytes.data() + off + kFrameHeader;
      if (len < kPayloadHeader) {
        throw CorruptionError("frame payload underrun");
      }
      const Op op = static_cast<Op>(payload[0]);
      const std::uint32_t key_len = get_u32(payload + 1);
      if (kPayloadHeader + key_len > len) {
        throw CorruptionError("frame key underrun");
      }
      std::string key(reinterpret_cast<const char*>(payload + kPayloadHeader),
                      key_len);
      const std::uint8_t* data = payload + kPayloadHeader + key_len;
      const std::size_t data_len = len - kPayloadHeader - key_len;

      // Liveness: this frame supersedes the key's earlier frames on
      // reset/erase, exactly as the live write path would have.
      if (op != Op::append) {
        auto kit = key_frame_segments_.find(key);
        if (kit != key_frame_segments_.end()) {
          for (std::uint64_t sid : kit->second) {
            auto sit = segments_.find(sid);
            if (sit == segments_.end()) continue;
            if (sit->second.live > 0) --sit->second.live;
            if (sid == id && live > 0) --live;
          }
          key_frame_segments_.erase(kit);
        }
      }
      key_frame_segments_[key].push_back(id);
      ++live;

      if (lsn >= start_lsn) {
        switch (op) {
          case Op::reset: {
            auto& segs = index_[key];
            segs.clear();
            segs.emplace_back(data, data + data_len);
            break;
          }
          case Op::append:
            index_[key].emplace_back(data, data + data_len);
            break;
          case Op::erase:
            index_.erase(key);
            break;
        }
        report.replayed_bytes += kFrameHeader + len;
        ++report.replayed_frames;
        scanned = true;
      }
      off += kFrameHeader + len;
      ++lsn;
      ++parsed_frames;
    }
    seg.frames = parsed_frames;
    seg.live = live;
    if (scanned) ++report.segments_scanned;
  }
  // next_lsn resumes after the youngest surviving frame.
  next_lsn_ = 0;
  for (const auto& [id, seg] : segments_) {
    next_lsn_ = std::max(next_lsn_, seg.first_lsn + seg.frames);
  }
  next_lsn_ = std::max(next_lsn_, start_lsn);
  return report;
}

std::size_t SegmentLog::log_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, seg] : segments_) total += seg.bytes.size();
  return total;
}

}  // namespace mar::storage
