#include "agent/agent.h"

#include <algorithm>

#include "util/check.h"

namespace mar::agent {

void SavepointStackEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(id.value());
  enc.write_u8(static_cast<std::uint8_t>(origin));
  enc.write_u32(depth);
}

void SavepointStackEntry::deserialize(serial::Decoder& dec) {
  id = SavepointId(dec.read_u32());
  origin = dec.read_enum(rollback::SavepointOrigin::sub_itinerary);
  depth = dec.read_u32();
}

SavepointId Agent::sub_savepoint(std::uint32_t levels_up) const {
  std::uint32_t seen = 0;
  for (auto it = sp_stack_.rbegin(); it != sp_stack_.rend(); ++it) {
    if (it->origin != rollback::SavepointOrigin::sub_itinerary) continue;
    if (seen == levels_up) return it->id;
    ++seen;
  }
  return SavepointId::invalid();
}

void Agent::serialize(serial::Encoder& enc) const {
  enc.write_u64(id_.value());
  enc.write_u8(static_cast<std::uint8_t>(run_state_));
  data_.serialize(enc);
  if (itinerary_bytes_.empty()) {
    itinerary_.serialize(enc);
  } else {
    enc.write_raw(itinerary_bytes_);
  }
  enc.write_varint(position_.size());
  for (const auto i : position_) enc.write_u32(i);
  enc.write_varint(sp_stack_.size());
  for (const auto& e : sp_stack_) e.serialize(enc);
  enc.write_u32(next_sp_);
  enc.write_u32(rollbacks_completed_);
  enc.write_u64(parent_.value());
  enc.write_u32(result_node_.value());
  enc.write_string(result_key_);
  enc.write_bool(retain_full_log_);
  enc.write_bool(force_full_sp_);
  last_sp_strong_.serialize(enc);
  log_.serialize(enc);
}

void Agent::deserialize(serial::Decoder& dec) {
  id_ = AgentId(dec.read_u64());
  run_state_ = dec.read_enum(RunState::done);
  data_.deserialize(dec);
  const auto itinerary_begin = dec.offset();
  itinerary_.deserialize(dec);
  const auto itinerary = dec.consumed_since(itinerary_begin);
  itinerary_bytes_.assign(itinerary.begin(), itinerary.end());
  position_.resize(dec.read_count());
  for (auto& i : position_) i = dec.read_u32();
  sp_stack_.resize(dec.read_count());
  for (auto& e : sp_stack_) e.deserialize(dec);
  next_sp_ = dec.read_u32();
  rollbacks_completed_ = dec.read_u32();
  parent_ = AgentId(dec.read_u64());
  result_node_ = NodeId(dec.read_u32());
  result_key_ = dec.read_string();
  retain_full_log_ = dec.read_bool();
  force_full_sp_ = dec.read_bool();
  last_sp_strong_.deserialize(dec);
  log_.deserialize(dec);
  mark_commit_baseline();  // the decoded state IS the durable state
}

std::size_t Agent::serialized_size() const {
  std::size_t n = 8 + 1;  // id, run_state
  n += data_.encoded_size();
  n += itinerary_bytes_.empty() ? itinerary_.encoded_size()
                                : itinerary_bytes_.size();
  n += serial::varint_size(position_.size()) + 4 * position_.size();
  n += serial::varint_size(sp_stack_.size()) +
       sp_stack_.size() * SavepointStackEntry::byte_size();
  n += 4 + 4 + 8 + 4;  // next_sp, rollbacks, parent, result_node
  n += serial::blob_size(result_key_.size());
  n += 1 + 1;  // retain_full_log, force_full_sp
  n += last_sp_strong_.encoded_size();
  n += log_.byte_size();
  return n;
}

serial::Bytes encode_agent(const Agent& agent) {
  const auto type = agent.type_name();
  serial::Encoder enc(serial::blob_size(type.size()) +
                      agent.serialized_size());
  enc.write_string(type);
  agent.serialize(enc);
  return std::move(enc).take();
}

std::unique_ptr<Agent> decode_agent(const AgentTypeRegistry& registry,
                                    std::span<const std::uint8_t> bytes) {
  serial::Decoder dec(bytes);
  const auto type = dec.read_string_view();
  // Wire input is untrusted: an unknown type is a malformed buffer, not
  // a programming error.
  if (!registry.contains(type)) {
    throw serial::DecodeError("unknown agent type: " + std::string(type));
  }
  auto agent = registry.create(type);
  agent->deserialize(dec);
  dec.expect_end();
  return agent;
}

// ---------------------------------------------------------------------------
// Incremental capture
// ---------------------------------------------------------------------------
//
// Delta record wire format (version-free; a delta is only ever decoded
// against the base image it was produced from, inside one storage record):
//
//   u8      run_state
//   varint  |position| + u32 each
//   varint  |sp_stack| + entries          (small; carried whole)
//   u32     next_sp
//   u32     rollbacks_completed
//   u64     parent
//   u32     result_node
//   string  result_key
//   bool    retain_full_log
//   bool    force_full_sp
//   bool    last_sp_strong changed        [+ Value when set]
//   u8      strong section: 0 = sparse slots, 1 = full map
//           sparse: varint n + (string name, Value) each; full: Value
//   u8      weak section: same encoding
//   varint  appended log entries + LogEntry each

namespace {
constexpr std::uint8_t kSparseSlots = 0;
constexpr std::uint8_t kFullMap = 1;

void encode_data_section(serial::Encoder& enc, const serial::Value& map,
                         const std::set<std::string>& dirty, bool all_dirty) {
  if (all_dirty) {
    enc.write_u8(kFullMap);
    map.serialize(enc);
    return;
  }
  enc.write_u8(kSparseSlots);
  enc.write_varint(dirty.size());
  for (const auto& name : dirty) {
    enc.write_string(name);
    // Top-level slots are never removed outside whole-map replacement
    // (which takes the full-map branch), so every dirty name resolves.
    map.at(name).serialize(enc);
  }
}
}  // namespace

serial::Bytes encode_agent_delta(const Agent& agent) {
  MAR_CHECK_MSG(agent.delta_ready(),
                "agent changes are not append-only; a full image is due");
  // Deltas are small by design; pre-sizing would run the dirty-slot walk
  // twice for a frame that rarely outgrows the first growth step.
  serial::Encoder enc;  // mar-lint: small-frame
  enc.write_u8(static_cast<std::uint8_t>(agent.run_state_));
  enc.write_varint(agent.position_.size());
  for (const auto i : agent.position_) enc.write_u32(i);
  enc.write_varint(agent.sp_stack_.size());
  for (const auto& e : agent.sp_stack_) e.serialize(enc);
  enc.write_u32(agent.next_sp_);
  enc.write_u32(agent.rollbacks_completed_);
  enc.write_u64(agent.parent_.value());
  enc.write_u32(agent.result_node_.value());
  enc.write_string(agent.result_key_);
  enc.write_bool(agent.retain_full_log_);
  enc.write_bool(agent.force_full_sp_);
  enc.write_bool(agent.last_sp_dirty_);
  if (agent.last_sp_dirty_) agent.last_sp_strong_.serialize(enc);
  const auto& data = agent.data_;
  encode_data_section(enc, data.strong_image(), data.dirty_strong(),
                      data.strong_all_dirty());
  encode_data_section(enc, data.weak_image(), data.dirty_weak(),
                      data.weak_all_dirty());
  const auto appended = agent.log_.appended_entries();
  enc.write_varint(appended.size());
  for (const auto& e : appended) e.serialize(enc);
  return std::move(enc).take();
}

void apply_agent_delta(Agent& agent, std::span<const std::uint8_t> delta) {
  serial::Decoder dec(delta);
  agent.run_state_ = dec.read_enum(Agent::RunState::done);
  agent.position_.resize(dec.read_count());
  for (auto& i : agent.position_) i = dec.read_u32();
  agent.sp_stack_.resize(dec.read_count());
  for (auto& e : agent.sp_stack_) e.deserialize(dec);
  agent.next_sp_ = dec.read_u32();
  agent.rollbacks_completed_ = dec.read_u32();
  agent.parent_ = AgentId(dec.read_u64());
  agent.result_node_ = NodeId(dec.read_u32());
  agent.result_key_ = dec.read_string();
  agent.retain_full_log_ = dec.read_bool();
  agent.force_full_sp_ = dec.read_bool();
  if (dec.read_bool()) agent.last_sp_strong_.deserialize(dec);
  for (const bool strong : {true, false}) {
    const auto mode = dec.read_u8();
    if (mode == kFullMap) {
      Value map;
      map.deserialize(dec);
      if (strong) {
        agent.data_.restore_strong(std::move(map));
      } else {
        agent.data_.replace_weak(std::move(map));
      }
      continue;
    }
    if (mode != kSparseSlots) {
      throw serial::DecodeError("bad delta data-section mode");
    }
    const auto n = dec.read_count();
    for (std::uint64_t i = 0; i < n; ++i) {
      auto name = dec.read_string();
      Value v;
      v.deserialize(dec);
      if (strong) {
        agent.data_.set_strong_slot(name, std::move(v));
      } else {
        agent.data_.set_weak_slot(name, std::move(v));
      }
    }
  }
  const auto appended = dec.read_count();
  for (std::uint64_t i = 0; i < appended; ++i) {
    rollback::LogEntry e;
    e.deserialize(dec);
    agent.log_.push(std::move(e));
  }
  dec.expect_end();
  agent.mark_commit_baseline();  // now bit-identical to the durable state
}

std::unique_ptr<Agent> decode_agent_segments(
    const AgentTypeRegistry& registry,
    const std::vector<serial::Bytes>& segments) {
  MAR_CHECK_MSG(!segments.empty(), "agent record has no base segment");
  auto agent = decode_agent(registry, segments.front());
  for (std::size_t i = 1; i < segments.size(); ++i) {
    apply_agent_delta(*agent, segments[i]);
  }
  return agent;
}

// ---------------------------------------------------------------------------
// Image-level deltas
// ---------------------------------------------------------------------------
//
// encode_image_delta writes the delta record format above from two encoded
// images; apply_image_delta splices the successor image out of base and
// delta slices. The canonical encoding makes byte equality of a section
// equality of its content, so no Value is ever built: the only parsing is
// bounds-checked skipping to find slice boundaries.

namespace {

constexpr auto kMapTag = static_cast<std::uint8_t>(serial::Value::Kind::map);

using ByteSpan = std::span<const std::uint8_t>;

/// The bytes `skip` advances `dec` over, as a slice of `buf` (the buffer
/// `dec` reads).
template <typename Skip>
ByteSpan slice(serial::Decoder& dec, ByteSpan buf, Skip&& skip) {
  const auto begin = dec.offset();
  skip();
  return buf.subspan(begin, dec.offset() - begin);
}

std::uint8_t read_run_state(serial::Decoder& dec) {
  return static_cast<std::uint8_t>(dec.read_enum(Agent::RunState::done));
}

/// Advance past the position ... force_full_sp fields, laid out
/// identically in an image and in a delta record.
void skip_platform_fields(serial::Decoder& dec) {
  dec.skip(4 * dec.read_count());  // position
  for (auto n = dec.read_count(); n > 0; --n) {  // savepoint stack
    dec.skip(4);
    (void)dec.read_enum(rollback::SavepointOrigin::sub_itinerary);
    dec.skip(4);
  }
  dec.skip(4 + 4 + 8 + 4);  // next_sp, rollbacks, parent, result_node
  (void)dec.read_bytes_view();  // result_key
  (void)dec.read_bool();        // retain_full_log
  (void)dec.read_bool();        // force_full_sp
}

bool same_bytes(ByteSpan a, ByteSpan b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// One encoded top-level data slot: its name and the (name, Value) pair
/// exactly as a map and a sparse delta section both encode it.
struct Slot {
  std::string_view name;
  ByteSpan value;
  ByteSpan pair;
};

/// Read `n` (name, Value) pairs from `dec` (reading `buf`).
void read_slots(serial::Decoder& dec, ByteSpan buf, std::uint64_t n,
                std::vector<Slot>& out) {
  out.reserve(out.size() + n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto begin = dec.offset();
    const auto name = dec.read_string_view();
    const auto value = slice(dec, buf, [&] { serial::skip_value(dec); });
    out.push_back({name, value, buf.subspan(begin, dec.offset() - begin)});
  }
}

/// The slots of an encoded map Value (scan_agent_image checked the tag).
/// Canonical maps list them in std::string key order.
std::vector<Slot> map_slots(ByteSpan map) {
  serial::Decoder dec(map);
  (void)dec.read_u8();
  std::vector<Slot> slots;
  read_slots(dec, map, dec.read_count(), slots);
  return slots;
}

/// A data section about to be written: one encoded Value carried whole
/// (never empty: a Value has at least its tag byte), or slot pairs.
struct Section {
  ByteSpan whole;
  std::vector<ByteSpan> slots;
  [[nodiscard]] bool is_whole() const { return !whole.empty(); }
  [[nodiscard]] std::size_t slot_bytes() const {
    std::size_t n = serial::varint_size(slots.size());
    for (const auto s : slots) n += s.size();
    return n;
  }
  void write_slots(serial::Encoder& enc) const {
    enc.write_varint(slots.size());
    for (const auto s : slots) enc.write_raw(s);
  }
};

/// Delta section for `base` -> `cur` (encoded maps), by a merge-join over
/// their key-ordered slots: the whole `cur` map when a base slot vanished
/// (the sparse form can only add and overwrite), else the slots that are
/// new or whose bytes changed.
Section diff_section(ByteSpan base, ByteSpan cur) {
  const auto b = map_slots(base);
  const auto c = map_slots(cur);
  Section out;
  std::size_t j = 0;
  for (const auto& slot : b) {
    while (j < c.size() && c[j].name < slot.name) {
      out.slots.push_back(c[j++].pair);
    }
    if (j == c.size() || c[j].name != slot.name) return Section{cur, {}};
    if (!same_bytes(slot.value, c[j].value)) out.slots.push_back(c[j].pair);
    ++j;
  }
  for (; j < c.size(); ++j) out.slots.push_back(c[j].pair);
  return out;
}

/// Image section for a delta's data section applied to `base` (an encoded
/// map). Sparse slots overwrite or add in key order; a repeated name keeps
/// its last occurrence, as apply_agent_delta's in-order sets would.
Section apply_section(serial::Decoder& dec, ByteSpan delta, ByteSpan base) {
  const auto mode = dec.read_u8();
  if (mode == kFullMap) {
    return Section{slice(dec, delta, [&] { serial::skip_value(dec); }), {}};
  }
  if (mode != kSparseSlots) {
    throw serial::DecodeError("bad delta data-section mode");
  }
  std::vector<Slot> updates;
  read_slots(dec, delta, dec.read_count(), updates);
  if (updates.empty()) return Section{base, {}};
  std::stable_sort(
      updates.begin(), updates.end(),
      [](const Slot& x, const Slot& y) { return x.name < y.name; });
  const auto slots = map_slots(base);
  Section out;
  out.slots.reserve(slots.size() + updates.size());
  std::size_t i = 0;
  for (std::size_t u = 0; u < updates.size(); ++u) {
    if (u + 1 < updates.size() && updates[u + 1].name == updates[u].name) {
      continue;  // a later write of the same slot wins
    }
    while (i < slots.size() && slots[i].name < updates[u].name) {
      out.slots.push_back(slots[i++].pair);
    }
    if (i < slots.size() && slots[i].name == updates[u].name) ++i;
    out.slots.push_back(updates[u].pair);
  }
  for (; i < slots.size(); ++i) out.slots.push_back(slots[i].pair);
  return out;
}

}  // namespace

AgentImage scan_agent_image(std::span<const std::uint8_t> image) {
  serial::Decoder dec(image);
  AgentImage a;
  a.head = slice(dec, image, [&] {
    (void)dec.read_bytes_view();  // type name
    dec.skip(8);                  // id
  });
  a.run_state = read_run_state(dec);
  a.strong = slice(dec, image, [&] { serial::skip_value(dec); });
  a.weak = slice(dec, image, [&] { serial::skip_value(dec); });
  if (a.strong.front() != kMapTag || a.weak.front() != kMapTag) {
    throw serial::DecodeError("agent data section is not a map");
  }
  a.itinerary = slice(dec, image, [&] { Itinerary::skip(dec); });
  a.fields = slice(dec, image, [&] { skip_platform_fields(dec); });
  a.last_sp_strong = slice(dec, image, [&] { serial::skip_value(dec); });
  a.log_count = dec.read_count();
  a.log_entries = image.subspan(dec.offset());
  return a;
}

std::optional<serial::Bytes> encode_image_delta(
    std::span<const std::uint8_t> base_image,
    std::span<const std::uint8_t> cur_image) {
  const auto base = scan_agent_image(base_image);
  const auto cur = scan_agent_image(cur_image);
  // The delta format carries appended log entries only: usable iff the
  // base's log is a prefix of the current log. Entries are self-delimiting,
  // so one comparison of the base's entry bytes decides it. Forward
  // execution only pushes; a rollback (pop/clear/GC) in between breaks it
  // and forces a full image.
  const auto prefix = base.log_entries;
  if (cur.log_count < base.log_count ||
      cur.log_entries.size() < prefix.size() ||
      !std::equal(prefix.begin(), prefix.end(), cur.log_entries.begin())) {
    return std::nullopt;
  }
  const auto appended = cur.log_entries.subspan(prefix.size());
  const bool sp_changed = !same_bytes(base.last_sp_strong, cur.last_sp_strong);
  // The itinerary is immutable after launch and lives in the base image
  // only; everything else is diffed or carried whole.
  const Section sections[] = {diff_section(base.strong, cur.strong),
                              diff_section(base.weak, cur.weak)};
  std::size_t size = 1 + cur.fields.size() + 1 +
                     (sp_changed ? cur.last_sp_strong.size() : 0) +
                     serial::varint_size(cur.log_count - base.log_count) +
                     appended.size();
  for (const auto& s : sections) {
    size += 1 + (s.is_whole() ? s.whole.size() : s.slot_bytes());
  }
  serial::Encoder enc(size);
  enc.write_u8(cur.run_state);
  enc.write_raw(cur.fields);
  enc.write_bool(sp_changed);
  if (sp_changed) enc.write_raw(cur.last_sp_strong);
  for (const auto& s : sections) {
    if (s.is_whole()) {
      enc.write_u8(kFullMap);
      enc.write_raw(s.whole);
    } else {
      enc.write_u8(kSparseSlots);
      s.write_slots(enc);
    }
  }
  enc.write_varint(cur.log_count - base.log_count);
  enc.write_raw(appended);
  return std::move(enc).take();
}

serial::Bytes apply_image_delta(std::span<const std::uint8_t> base_image,
                                std::span<const std::uint8_t> delta) {
  const auto base = scan_agent_image(base_image);
  serial::Decoder dec(delta);
  const auto run_state = read_run_state(dec);
  const auto fields = slice(dec, delta, [&] { skip_platform_fields(dec); });
  auto last_sp_strong = base.last_sp_strong;
  if (dec.read_bool()) {
    last_sp_strong = slice(dec, delta, [&] { serial::skip_value(dec); });
  }
  const Section sections[] = {apply_section(dec, delta, base.strong),
                              apply_section(dec, delta, base.weak)};
  const auto appended = dec.read_count();
  // The appended entries are walked once to validate them: they are the
  // delta's only part that is not a slice of a scanned section.
  const auto entries = slice(dec, delta, [&] {
    for (std::uint64_t i = 0; i < appended; ++i) rollback::LogEntry::skip(dec);
  });
  dec.expect_end();

  const auto log_count = base.log_count + appended;
  std::size_t size = base.head.size() + 1 + base.itinerary.size() +
                     fields.size() + last_sp_strong.size() +
                     serial::varint_size(log_count) +
                     base.log_entries.size() + entries.size();
  for (const auto& s : sections) {
    size += s.is_whole() ? s.whole.size() : 1 + s.slot_bytes();
  }
  serial::Encoder enc(size);
  enc.write_raw(base.head);
  enc.write_u8(run_state);
  for (const auto& s : sections) {
    if (s.is_whole()) {
      enc.write_raw(s.whole);
    } else {
      enc.write_u8(kMapTag);
      s.write_slots(enc);
    }
  }
  enc.write_raw(base.itinerary);
  enc.write_raw(fields);
  enc.write_raw(last_sp_strong);
  enc.write_varint(log_count);
  enc.write_raw(base.log_entries);
  enc.write_raw(entries);
  return std::move(enc).take();
}

serial::Bytes apply_image_delta_by_decode(
    const AgentTypeRegistry& registry, std::span<const std::uint8_t> base,
    std::span<const std::uint8_t> delta) {
  auto agent = decode_agent(registry, base);
  apply_agent_delta(*agent, delta);
  return encode_agent(*agent);
}

}  // namespace mar::agent
