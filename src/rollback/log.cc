#include "rollback/log.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "util/check.h"

namespace mar::rollback {

std::string_view to_string(OpEntryKind k) {
  switch (k) {
    case OpEntryKind::resource: return "RCE";
    case OpEntryKind::agent: return "ACE";
    case OpEntryKind::mixed: return "MCE";
  }
  return "?";
}

std::string_view to_string(EntryKind k) {
  switch (k) {
    case EntryKind::savepoint: return "SP";
    case EntryKind::begin_of_step: return "BOS";
    case EntryKind::operation: return "OE";
    case EntryKind::end_of_step: return "EOS";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Entry serialization
// ---------------------------------------------------------------------------
//
// LogEntry::skip() walks the bytes deserialize() reads without building
// anything; the two must reject exactly the same inputs (rollback_log_test
// fuzzes them against each other).

void SavepointEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(id.value());
  enc.write_u8(static_cast<std::uint8_t>(origin));
  enc.write_u32(depth);
  enc.write_bool(lightweight);
  enc.write_bool(transition);
  image.serialize(enc);
  delta.serialize(enc);
  enc.write_varint(resume_position.size());
  for (const auto i : resume_position) enc.write_u32(i);
}

void SavepointEntry::deserialize(serial::Decoder& dec) {
  id = SavepointId(dec.read_u32());
  origin = dec.read_enum(SavepointOrigin::sub_itinerary);
  depth = dec.read_u32();
  lightweight = dec.read_bool();
  transition = dec.read_bool();
  image.deserialize(dec);
  delta.deserialize(dec);
  resume_position.resize(dec.read_count());
  for (auto& i : resume_position) i = dec.read_u32();
}

std::size_t SavepointEntry::byte_size() const {
  return 4 + 1 + 4 + 1 + 1 + image.encoded_size() + delta.encoded_size() +
         serial::varint_size(resume_position.size()) +
         4 * resume_position.size();
}

void BeginOfStepEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(node.value());
  enc.write_string(step_name);
}

void BeginOfStepEntry::deserialize(serial::Decoder& dec) {
  node = NodeId(dec.read_u32());
  step_name = dec.read_string();
}

std::size_t BeginOfStepEntry::byte_size() const {
  return 4 + serial::blob_size(step_name.size());
}

void OperationEntry::serialize(serial::Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind));
  enc.write_string(comp_op);
  params.serialize(enc);
  enc.write_u32(resource_node.value());
  enc.write_string(resource);
}

void OperationEntry::deserialize(serial::Decoder& dec) {
  kind = dec.read_enum(OpEntryKind::mixed);
  comp_op = dec.read_string();
  params.deserialize(dec);
  resource_node = NodeId(dec.read_u32());
  resource = dec.read_string();
}

std::size_t OperationEntry::byte_size() const {
  return 1 + serial::blob_size(comp_op.size()) + params.encoded_size() + 4 +
         serial::blob_size(resource.size());
}

void EndOfStepEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(node.value());
  enc.write_bool(has_mixed);
  enc.write_bool(cannot_compensate);
  enc.write_varint(alternatives.size());
  for (const auto n : alternatives) enc.write_u32(n.value());
}

void EndOfStepEntry::deserialize(serial::Decoder& dec) {
  node = NodeId(dec.read_u32());
  has_mixed = dec.read_bool();
  cannot_compensate = dec.read_bool();
  alternatives.resize(dec.read_count());
  for (auto& n : alternatives) n = NodeId(dec.read_u32());
}

std::size_t EndOfStepEntry::byte_size() const {
  return 4 + 1 + 1 + serial::varint_size(alternatives.size()) +
         4 * alternatives.size();
}

void LogEntry::serialize(serial::Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind()));
  std::visit([&enc](const auto& e) { e.serialize(enc); }, body_);
}

void LogEntry::deserialize(serial::Decoder& dec) {
  switch (dec.read_enum(EntryKind::end_of_step)) {
    case EntryKind::savepoint: {
      SavepointEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    case EntryKind::begin_of_step: {
      BeginOfStepEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    case EntryKind::operation: {
      OperationEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    case EntryKind::end_of_step: {
      EndOfStepEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
  }
}

void LogEntry::skip(serial::Decoder& dec) {
  switch (dec.read_enum(EntryKind::end_of_step)) {
    case EntryKind::savepoint:
      dec.skip(4);  // id
      (void)dec.read_enum(SavepointOrigin::sub_itinerary);
      dec.skip(4);  // depth
      (void)dec.read_bool();  // lightweight
      (void)dec.read_bool();  // transition
      serial::skip_value(dec);
      serial::skip_patch(dec);
      dec.skip(4 * dec.read_count());  // resume position
      return;
    case EntryKind::begin_of_step:
      dec.skip(4);
      (void)dec.read_bytes_view();
      return;
    case EntryKind::operation:
      (void)dec.read_enum(OpEntryKind::mixed);
      (void)dec.read_bytes_view();
      serial::skip_value(dec);
      dec.skip(4);
      (void)dec.read_bytes_view();
      return;
    case EntryKind::end_of_step:
      dec.skip(4);
      (void)dec.read_bool();  // has_mixed
      (void)dec.read_bool();  // cannot_compensate
      dec.skip(4 * dec.read_count());  // alternatives
      return;
  }
}

std::size_t LogEntry::byte_size() const {
  return 1 + std::visit([](const auto& e) { return e.byte_size(); }, body_);
}

std::string LogEntry::to_string() const {
  std::ostringstream os;
  switch (kind()) {
    case EntryKind::savepoint: {
      const auto& sp = savepoint();
      os << "SP_" << sp.id;
      if (sp.lightweight) os << "(light)";
      if (sp.transition) os << "(delta)";
      break;
    }
    case EntryKind::begin_of_step:
      os << "BOS(N" << begin_of_step().node << ","
         << begin_of_step().step_name << ")";
      break;
    case EntryKind::operation:
      os << "OE[" << rollback::to_string(operation().kind) << ","
         << operation().comp_op << "]";
      break;
    case EntryKind::end_of_step: {
      const auto& e = end_of_step();
      os << "EOS(N" << e.node << (e.has_mixed ? ",mixed" : "")
         << (e.cannot_compensate ? ",poison" : "") << ")";
      break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// RollbackLog
// ---------------------------------------------------------------------------

void RollbackLog::materialize() const {
  if (prefix_count_ == 0) return;
  std::vector<LogEntry> all;
  all.reserve(prefix_count_ + tail_.size());
  serial::Decoder dec(prefix_);
  for (std::size_t i = 0; i < prefix_count_; ++i) {
    all.emplace_back().deserialize(dec);  // validated by deserialize()
  }
  std::move(tail_.begin(), tail_.end(), std::back_inserter(all));
  tail_ = std::move(all);
  serial::Bytes().swap(prefix_);
  prefix_count_ = 0;
}

LogEntry RollbackLog::pop() {
  MAR_CHECK_MSG(!empty(), "pop on empty rollback log");
  if (tail_.empty()) materialize();
  LogEntry e = std::move(tail_.back());
  tail_.pop_back();
  append_clean_ = false;
  return e;
}

const LogEntry& RollbackLog::back() const {
  MAR_CHECK_MSG(!empty(), "back on empty rollback log");
  if (tail_.empty()) materialize();
  return tail_.back();
}

std::optional<SavepointId> RollbackLog::trailing_savepoint() const {
  if (!tail_.empty()) {
    if (!tail_.back().is_savepoint()) return std::nullopt;
    return tail_.back().savepoint().id;
  }
  if (prefix_count_ == 0) return std::nullopt;
  // The last encoded entry: a kind tag, then (for an SP) its u32 id.
  serial::Decoder dec(
      std::span<const std::uint8_t>(prefix_).subspan(last_offset_));
  if (static_cast<EntryKind>(dec.read_u8()) != EntryKind::savepoint) {
    return std::nullopt;
  }
  return SavepointId(dec.read_u32());
}

const EndOfStepEntry* RollbackLog::last_end_of_step() const {
  materialize();
  for (auto it = tail_.rbegin(); it != tail_.rend(); ++it) {
    if (it->kind() == EntryKind::end_of_step) return &it->end_of_step();
    // Only savepoint entries may trail the last end-of-step entry.
    if (it->kind() != EntryKind::savepoint) return nullptr;
  }
  return nullptr;
}

bool RollbackLog::contains_savepoint(SavepointId id) const {
  return find_savepoint(id) != nullptr;
}

bool RollbackLog::poisoned_since(SavepointId id) const {
  materialize();
  for (auto it = tail_.rbegin(); it != tail_.rend(); ++it) {
    if (it->is_savepoint() && it->savepoint().id == id) break;
    if (it->kind() == EntryKind::end_of_step &&
        it->end_of_step().cannot_compensate) {
      return true;
    }
  }
  return false;
}

std::vector<const OperationEntry*> RollbackLog::last_step_ops() const {
  materialize();
  std::vector<const OperationEntry*> ops;
  auto it = tail_.rbegin();
  while (it != tail_.rend() && it->is_savepoint()) ++it;
  if (it == tail_.rend() || it->kind() != EntryKind::end_of_step) {
    return ops;
  }
  for (++it; it != tail_.rend(); ++it) {
    if (it->kind() == EntryKind::begin_of_step) break;
    if (it->kind() != EntryKind::operation) return {};  // malformed
    ops.push_back(&it->operation());
  }
  // Collected back-to-front; restore logging order.
  std::reverse(ops.begin(), ops.end());
  return ops;
}

const SavepointEntry* RollbackLog::find_savepoint(SavepointId id) const {
  materialize();
  for (auto it = tail_.rbegin(); it != tail_.rend(); ++it) {
    if (it->is_savepoint() && it->savepoint().id == id) {
      return &it->savepoint();
    }
  }
  return nullptr;
}

SavepointId RollbackLog::first_savepoint() const {
  materialize();
  for (const auto& e : tail_) {
    if (e.is_savepoint()) return e.savepoint().id;
  }
  return SavepointId::invalid();
}

std::optional<bool> RollbackLog::gc_savepoint(SavepointId id) {
  materialize();
  auto& entries = tail_;
  for (std::size_t i = entries.size(); i-- > 0;) {
    if (!entries[i].is_savepoint() || entries[i].savepoint().id != id) {
      continue;
    }
    SavepointEntry removed = std::move(entries[i].savepoint());
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    append_clean_ = false;  // interior removal (and possible chain rewrite)
    if (removed.lightweight) return false;  // carried no data

    // Find the next data-carrying savepoint; it may depend on the removed
    // entry's data. (Lightweight savepoints after the removed one cannot
    // alias it: they would belong to a sub-itinerary nested inside the
    // completed one, which must have completed — and been GC'd — first.)
    for (std::size_t j = i; j < entries.size(); ++j) {
      if (!entries[j].is_savepoint()) continue;
      auto& sp = entries[j].savepoint();
      if (sp.lightweight) continue;
      if (!sp.transition) return false;  // self-contained; chain intact
      if (removed.transition) {
        // delta chain: fold the removed delta into the successor.
        sp.delta = serial::compose(removed.delta, sp.delta);
      } else {
        // The removed full image was the successor's base: materialize.
        sp.image = serial::apply(sp.delta, std::move(removed.image));
        sp.transition = false;
        sp.delta = serial::ValuePatch::none();
      }
      return false;
    }
    // No later data-carrying savepoint: whatever is written next must be a
    // full image (only relevant under transition logging).
    return true;
  }
  return std::nullopt;
}

Result<serial::Value> RollbackLog::strong_state_at(SavepointId id) const {
  const auto& entries = this->entries();
  // Locate the target savepoint.
  std::size_t target = entries.size();
  for (std::size_t i = entries.size(); i-- > 0;) {
    if (entries[i].is_savepoint() && entries[i].savepoint().id == id) {
      target = i;
      break;
    }
  }
  if (target == entries.size()) {
    return Status(Errc::not_found,
                  "savepoint not in log: " + std::to_string(id.value()));
  }
  // Walk back to the nearest full image (lightweight savepoints carry no
  // data; transition savepoints carry deltas).
  std::size_t base = target + 1;
  for (std::size_t i = target + 1; i-- > 0;) {
    if (!entries[i].is_savepoint()) continue;
    const auto& sp = entries[i].savepoint();
    if (!sp.lightweight && !sp.transition) {
      base = i;
      break;
    }
  }
  if (base == target + 1) {
    return Status(Errc::protocol_error,
                  "no full strong-object image at or before savepoint " +
                      std::to_string(id.value()));
  }
  serial::Value state = entries[base].savepoint().image;
  // Apply forward deltas of data-carrying savepoints up to the target.
  for (std::size_t i = base + 1; i <= target; ++i) {
    if (!entries[i].is_savepoint()) continue;
    const auto& sp = entries[i].savepoint();
    if (sp.lightweight) continue;
    MAR_CHECK_MSG(sp.transition,
                  "unexpected full image between base and target");
    state = serial::apply(sp.delta, std::move(state));
  }
  return state;
}

void RollbackLog::serialize(serial::Encoder& enc) const {
  enc.write_varint(size());
  enc.write_raw(prefix_);
  for (const auto& e : tail_) e.serialize(enc);
}

void RollbackLog::deserialize(serial::Decoder& dec) {
  const auto count = dec.read_count();
  const auto begin = dec.offset();
  std::size_t last = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    last = dec.offset() - begin;
    LogEntry::skip(dec);
  }
  const auto bytes = dec.consumed_since(begin);
  prefix_.assign(bytes.begin(), bytes.end());
  prefix_count_ = count;
  last_offset_ = last;
  tail_.clear();
  mark_baseline();  // decoded state == the durable state
}

std::size_t RollbackLog::byte_size() const {
  std::size_t n = serial::varint_size(size()) + prefix_.size();
  for (const auto& e : tail_) n += e.byte_size();
  return n;
}

std::string RollbackLog::to_string() const {
  const auto& entries = this->entries();
  std::ostringstream os;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) os << " ";
    os << entries[i].to_string();
  }
  return os.str();
}

}  // namespace mar::rollback
