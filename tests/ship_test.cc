// Delta-shipping migration subsystem (src/ship/): transfer-channel
// base+delta caching, full-image fallback (cache miss, epoch mismatch,
// unprofitable delta), convoy batching with participant-side sync
// coalescing, and exactly-once + bit-identical reconstruction under
// mid-transfer crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "rollback/log.h"
#include "ship/shipment_manager.h"
#include "util/rng.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

/// `age` warm-up steps on N1, then `hops` steps alternating N2/N1 —
/// the locality-heavy shape whose migrations delta-shipping compresses.
Itinerary ping_pong(int age, int hops) {
  Itinerary sub;
  for (int s = 0; s < age; ++s) sub.step("spend_logged", TestWorld::n(1));
  for (int h = 0; h < hops; ++h) {
    sub.step("spend_logged", TestWorld::n(h % 2 == 0 ? 2 : 1));
  }
  Itinerary main_it;
  main_it.sub(std::move(sub));
  return main_it;
}

struct RunOutcome {
  bool done = false;
  std::int64_t visits = 0;
  serial::Bytes final_agent;
  std::uint64_t convoy_bytes = 0;
};

/// One agent through ping_pong(age, hops) under `cfg`; `crash_seed` != 0
/// additionally injects a deterministic schedule of transient crashes on
/// both nodes (identical schedule for identical seeds).
RunOutcome run_ping_pong(PlatformConfig cfg, int age, int hops,
                         std::uint64_t crash_seed = 0) {
  cfg.discard_log_on_top_level = false;  // the aged log is the point
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/11);
  register_workload(w.platform);
  if (crash_seed != 0) {
    Rng rng(crash_seed);
    for (int k = 0; k < 6; ++k) {
      const NodeId node = TestWorld::n(1 + static_cast<int>(k % 2));
      const sim::TimeUs at = 2'000 + rng.next_below(150'000);
      const sim::TimeUs downtime = 1'000 + rng.next_below(15'000);
      w.faults.crash_at(node, at, downtime);
    }
  }
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(age, hops);
  ag->set_config("param_bytes", 64);
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  RunOutcome out;
  out.done = w.platform.run_until_finished(id.value()) &&
             w.platform.outcome(id.value()).state ==
                 AgentOutcome::State::done;
  if (out.done) {
    const auto& oc = w.platform.outcome(id.value());
    out.final_agent = oc.final_agent;
    auto fin = w.platform.decode(oc.final_agent);
    out.visits = fin->data().weak("visits").as_int();
  }
  const auto& by_type = w.net.stats().bytes_by_type;
  if (auto it = by_type.find("ship.convoy"); it != by_type.end()) {
    out.convoy_bytes = it->second;
  }
  return out;
}

// --------------------------------------------------------------------------
// BaseCache (unit)
// --------------------------------------------------------------------------

/// Reference LRU with the min-tick rule: every entry carries the tick of
/// its last put or find, and each eviction scans for the smallest tick.
struct MinTickLru {
  using Key = std::pair<std::uint32_t, std::uint64_t>;
  struct Entry {
    std::size_t bytes = 0;
    std::uint64_t tick = 0;
  };
  std::map<Key, Entry> entries;
  std::size_t total = 0;
  std::uint64_t tick = 0;

  bool find(const Key& k) {
    auto it = entries.find(k);
    if (it == entries.end()) return false;
    it->second.tick = ++tick;
    return true;
  }
  void erase(const Key& k) {
    auto it = entries.find(k);
    if (it == entries.end()) return;
    total -= it->second.bytes;
    entries.erase(it);
  }
  /// Returns the evicted keys in eviction order.
  std::vector<Key> put(const Key& k, std::size_t bytes, std::size_t budget) {
    erase(k);
    if (bytes > budget) return {};
    entries[k] = Entry{bytes, ++tick};
    total += bytes;
    std::vector<Key> evicted;
    while (total > budget) {
      auto lru = entries.begin();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->second.tick < lru->second.tick) lru = it;
      }
      evicted.push_back(lru->first);
      total -= lru->second.bytes;
      entries.erase(lru);
    }
    return evicted;
  }
};

TEST(BaseCacheTest, EvictsTheSameKeysAsAMinTickScan) {
  // Budget-constrained random put/find/erase sequences: after every
  // operation the cache holds exactly the reference's keys, so every put
  // evicted the same keys as the min-tick scan (one put evicting several
  // keys takes them oldest first in both).
  std::uint64_t evictions = 0;
  std::uint64_t multi_evictions = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ship::BaseCache cache;
    MinTickLru ref;
    const std::size_t budget = 1'500 + rng.next_below(3'000);
    auto check_same_keys = [&] {
      for (std::uint32_t peer = 1; peer <= 3; ++peer) {
        for (std::uint64_t agent = 1; agent <= 12; ++agent) {
          ASSERT_EQ(cache.contains(NodeId(peer), AgentId(agent)),
                    ref.entries.contains({peer, agent}))
              << "seed " << seed << " peer " << peer << " agent " << agent;
        }
      }
    };
    for (int op = 0; op < 400; ++op) {
      const auto peer = static_cast<std::uint32_t>(1 + rng.next_below(3));
      const std::uint64_t agent = 1 + rng.next_below(12);
      const auto roll = rng.next_below(100);
      if (roll < 55) {
        const std::size_t bytes = 40 + rng.next_below(budget / 3);
        cache.put(NodeId(peer), AgentId(agent),
                  serial::Bytes(bytes, static_cast<std::uint8_t>(op)),
                  /*epoch=*/1, budget);
        const auto evicted = ref.put({peer, agent}, bytes, budget);
        evictions += evicted.size();
        multi_evictions += evicted.size() > 1 ? 1 : 0;
      } else if (roll < 90) {
        const auto* hit = cache.find(NodeId(peer), AgentId(agent));
        ASSERT_EQ(hit != nullptr, ref.find({peer, agent})) << "seed " << seed;
        if (hit != nullptr) {
          EXPECT_EQ(hit->image.size(), ref.entries.at({peer, agent}).bytes);
        }
      } else {
        cache.erase(NodeId(peer), AgentId(agent));
        ref.erase({peer, agent});
      }
      check_same_keys();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(evictions, 20'000u);
  EXPECT_GT(multi_evictions, 2'000u);
}

// --------------------------------------------------------------------------
// content_hash (unit)
// --------------------------------------------------------------------------

serial::Bytes sample_image(int steps) {
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(2, 2);
  for (int s = 0; s < steps; ++s) {
    ag->data().strong("results").push_back(std::string(40, 'r'));
    ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "step"});
    rollback::EndOfStepEntry eos;
    eos.node = TestWorld::n(1);
    ag->log().push(std::move(eos));
  }
  return agent::encode_agent(*ag);
}

TEST(ContentHashTest, EqualBytesHashEquallyAndEveryBitFlipChangesIt) {
  const auto image = sample_image(6);
  const serial::Bytes copy = image;
  const auto h = ship::content_hash(image);
  EXPECT_EQ(ship::content_hash(copy), h);
  // Prefixes cover every tail shape (32-byte blocks, whole 8-byte words,
  // a partial last word); equal bytes agree, different lengths differ.
  std::set<std::uint64_t> prefix_hashes;
  for (std::size_t len = 0; len < 80; ++len) {
    const std::span<const std::uint8_t> prefix(image.data(), len);
    const serial::Bytes prefix_copy(prefix.begin(), prefix.end());
    EXPECT_EQ(ship::content_hash(prefix), ship::content_hash(prefix_copy));
    prefix_hashes.insert(ship::content_hash(prefix));
  }
  EXPECT_EQ(prefix_hashes.size(), 80u);
  serial::Bytes flipped = image;
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_NE(ship::content_hash(flipped), h)
          << "byte " << i << " bit " << bit;
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// --------------------------------------------------------------------------
// Image-level deltas (unit)
// --------------------------------------------------------------------------

agent::AgentTypeRegistry workload_registry() {
  agent::AgentTypeRegistry reg;
  reg.register_type<WorkloadAgent>("workload");
  return reg;
}

TEST(ImageDeltaTest, RoundTripsToBitIdenticalImage) {
  const auto reg = workload_registry();
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(2, 2);
  const auto base_bytes = agent::encode_agent(*ag);

  // Arbitrary forward progress: weak/strong slots change, log appends.
  ag->data().weak("cash") = std::int64_t{58};
  ag->data().strong("results").push_back(std::string("r1"));
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "step"});
  rollback::EndOfStepEntry eos;
  eos.node = TestWorld::n(1);
  ag->log().push(std::move(eos));
  const auto cur_bytes = agent::encode_agent(*ag);

  const auto delta = agent::encode_image_delta(base_bytes, cur_bytes);
  ASSERT_TRUE(delta.has_value());
  EXPECT_LT(delta->size(), cur_bytes.size());
  EXPECT_EQ(agent::apply_image_delta(base_bytes, *delta), cur_bytes);
  EXPECT_EQ(agent::apply_image_delta_by_decode(reg, base_bytes, *delta),
            cur_bytes);
}

TEST(ImageDeltaTest, DivergedLogRefusesDelta) {
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(1, 1);
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "a"});
  const auto base_bytes = agent::encode_agent(*ag);
  // A rollback popped the base's entry and pushed something else: the
  // base log is no longer a prefix.
  (void)ag->log().pop();
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(2), "b"});
  EXPECT_FALSE(agent::encode_image_delta(base_bytes, agent::encode_agent(*ag))
                   .has_value());
  // Shorter-than-base logs refuse as well.
  (void)ag->log().pop();
  EXPECT_FALSE(agent::encode_image_delta(base_bytes, agent::encode_agent(*ag))
                   .has_value());
}

TEST(ImageDeltaTest, ScanFindsEverySection) {
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(2, 1);
  ag->set_last_savepoint_strong(serial::Value(std::int64_t{5}));
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "a"});
  const auto image = agent::encode_agent(*ag);
  const auto a = agent::scan_agent_image(image);
  const auto bytes_of = [](const auto& obj) { return serial::to_bytes(obj); };
  const auto as_bytes = [](std::span<const std::uint8_t> s) {
    return serial::Bytes(s.begin(), s.end());
  };
  EXPECT_EQ(as_bytes(a.strong), bytes_of(ag->data().strong_image()));
  EXPECT_EQ(as_bytes(a.weak), bytes_of(ag->data().weak_image()));
  EXPECT_EQ(as_bytes(a.itinerary), bytes_of(ag->itinerary()));
  EXPECT_EQ(as_bytes(a.last_sp_strong),
            bytes_of(ag->last_savepoint_strong()));
  EXPECT_EQ(a.log_count, 1u);
  EXPECT_EQ(as_bytes(a.log_entries), bytes_of(ag->log().entries().front()));
  EXPECT_EQ(a.head.size() + 1 + a.strong.size() + a.weak.size() +
                a.itinerary.size() + a.fields.size() +
                a.last_sp_strong.size() + 1 + a.log_entries.size(),
            image.size());
}

// --------------------------------------------------------------------------
// Differential fuzz: image-level deltas against the object-level paths
// --------------------------------------------------------------------------

/// Test-local copy of the object-level diff the ship layer used before it
/// worked on encoded images: log prefix by LogEntry equality, data slots
/// by Value equality. `cur` must be a decoded agent (the next savepoint id
/// is read by allocating one, the only public way to see it).
std::optional<serial::Bytes> reference_delta(const agent::Agent& base,
                                             agent::Agent& cur) {
  const auto& base_log = base.log().entries();
  const auto& cur_log = cur.log().entries();
  if (cur_log.size() < base_log.size()) return std::nullopt;
  for (std::size_t i = 0; i < base_log.size(); ++i) {
    if (!(base_log[i] == cur_log[i])) return std::nullopt;
  }
  serial::Encoder enc;  // mar-lint: small-frame
  enc.write_u8(static_cast<std::uint8_t>(cur.run_state()));
  enc.write_varint(cur.position().size());
  for (const auto i : cur.position()) enc.write_u32(i);
  enc.write_varint(cur.savepoint_stack().size());
  for (const auto& e : cur.savepoint_stack()) e.serialize(enc);
  enc.write_u32(cur.allocate_savepoint_id().value());
  enc.write_u32(cur.rollbacks_completed());
  enc.write_u64(cur.parent().value());
  enc.write_u32(cur.result_node().value());
  enc.write_string(cur.result_key());
  enc.write_bool(cur.retain_full_log());
  enc.write_bool(cur.force_full_savepoint());
  const bool sp_changed =
      !(base.last_savepoint_strong() == cur.last_savepoint_strong());
  enc.write_bool(sp_changed);
  if (sp_changed) cur.last_savepoint_strong().serialize(enc);
  const auto section = [&enc](const serial::Value& b, const serial::Value& c) {
    for (const auto& [name, v] : b.as_map()) {
      (void)v;
      if (!c.has(name)) {
        enc.write_u8(1);  // full map
        c.serialize(enc);
        return;
      }
    }
    std::vector<const std::string*> changed;
    for (const auto& [name, v] : c.as_map()) {
      if (!b.has(name) || !(b.at(name) == v)) changed.push_back(&name);
    }
    enc.write_u8(0);  // sparse slots
    enc.write_varint(changed.size());
    for (const auto* name : changed) {
      enc.write_string(*name);
      c.at(*name).serialize(enc);
    }
  };
  section(base.data().strong_image(), cur.data().strong_image());
  section(base.data().weak_image(), cur.data().weak_image());
  enc.write_varint(cur_log.size() - base_log.size());
  for (std::size_t i = base_log.size(); i < cur_log.size(); ++i) {
    cur_log[i].serialize(enc);
  }
  return std::move(enc).take();
}

/// A random Value without reals, so byte equality and Value equality
/// coincide (a real's -0.0/+0.0 and NaN are where they part).
serial::Value random_value(Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 7 : 5)) {
    case 0:
      return {};
    case 1:
      return serial::Value(rng.next_below(2) == 0);
    case 2:
      return serial::Value(static_cast<std::int64_t>(rng.next_below(4000)) -
                           2000);
    case 3:
      return serial::Value("s" + std::to_string(rng.next_below(50)));
    case 4:
      return serial::Value(serial::Bytes(
          rng.next_below(20), static_cast<std::uint8_t>(rng.next_below(256))));
    case 5: {
      auto l = serial::Value::empty_list();
      for (auto n = rng.next_below(4); n > 0; --n) {
        l.push_back(random_value(rng, depth - 1));
      }
      return l;
    }
    default: {
      auto m = serial::Value::empty_map();
      for (auto n = rng.next_below(4); n > 0; --n) {
        m.set("k" + std::to_string(rng.next_below(6)),
              random_value(rng, depth - 1));
      }
      return m;
    }
  }
}

Itinerary random_itinerary(Rng& rng, int depth) {
  Itinerary it;
  for (auto n = 1 + rng.next_below(3); n > 0; --n) {
    const auto node = TestWorld::n(1 + static_cast<int>(rng.next_below(4)));
    switch (depth > 0 ? rng.next_below(4) : rng.next_below(2)) {
      case 0:
        it.step("work", {node, TestWorld::n(4)});
        break;
      case 1:
        it.step_if("work", node,
                   agent::Condition{"cash", agent::Condition::Op::ge,
                                    random_value(rng, 1)});
        break;
      case 2:
        it.sub(random_itinerary(rng, depth - 1), rng.next_below(2) == 0);
        break;
      default:
        it.alt({random_itinerary(rng, depth - 1),
                random_itinerary(rng, depth - 1)});
        break;
    }
  }
  return it;
}

rollback::LogEntry random_entry(Rng& rng) {
  const auto node = TestWorld::n(1 + static_cast<int>(rng.next_below(4)));
  switch (rng.next_below(4)) {
    case 0: {
      rollback::SavepointEntry sp;
      sp.id = SavepointId(static_cast<std::uint32_t>(1 + rng.next_below(40)));
      sp.origin = rng.next_below(2) == 0
                      ? rollback::SavepointOrigin::adhoc
                      : rollback::SavepointOrigin::sub_itinerary;
      sp.depth = static_cast<std::uint32_t>(rng.next_below(3));
      sp.lightweight = rng.next_below(4) == 0;
      sp.transition = rng.next_below(2) == 0;
      if (sp.transition) {
        sp.delta = serial::diff(random_value(rng, 2), random_value(rng, 2));
      } else {
        sp.image = random_value(rng, 2);
      }
      for (auto n = rng.next_below(3); n > 0; --n) {
        sp.resume_position.push_back(
            static_cast<std::uint32_t>(rng.next_below(5)));
      }
      return sp;
    }
    case 1:
      return rollback::BeginOfStepEntry{
          node, "step" + std::to_string(rng.next_below(9))};
    case 2: {
      rollback::OperationEntry op;
      op.kind = static_cast<rollback::OpEntryKind>(rng.next_below(3));
      op.comp_op = "comp." + std::to_string(rng.next_below(5));
      op.params = random_value(rng, 2);
      op.resource_node = node;
      op.resource = "bank";
      return op;
    }
    default: {
      rollback::EndOfStepEntry eos;
      eos.node = node;
      eos.has_mixed = rng.next_below(2) == 0;
      eos.cannot_compensate = rng.next_below(8) == 0;
      for (auto n = rng.next_below(3); n > 0; --n) {
        eos.alternatives.push_back(
            TestWorld::n(1 + static_cast<int>(rng.next_below(4))));
      }
      return eos;
    }
  }
}

/// Kinds of change a history applies; the fuzz counts how often each ran.
enum class Op {
  strong_add,
  strong_overwrite,
  strong_remove,
  results_push,
  weak_add,
  weak_overwrite,
  weak_remove,
  log_push,
  log_pop,
  sp_stack,
  last_sp_strong,
  platform_fields,
  count,
};

std::string random_slot(Rng& rng, const serial::Value& map) {
  const auto& m = map.as_map();
  auto it = m.begin();
  std::advance(it, static_cast<long>(rng.next_below(m.size())));
  return it->first;
}

Op mutate(agent::Agent& ag, Rng& rng) {
  auto& data = ag.data();
  const auto op = static_cast<Op>(rng.next_below(static_cast<int>(Op::count)));
  const auto slot = "x" + std::to_string(rng.next_below(5));
  switch (op) {
    case Op::strong_add:
      data.declare_strong("s" + slot, random_value(rng, 2));
      break;
    case Op::strong_overwrite:
      data.strong(random_slot(rng, data.strong_image())) =
          random_value(rng, 2);
      break;
    case Op::strong_remove: {
      auto image = data.strong_image();
      if (const auto name = random_slot(rng, image); name != "results") {
        image.erase(name);
      }
      data.restore_strong(std::move(image));
      break;
    }
    case Op::results_push: {
      auto& results = data.strong("results");
      if (!results.is_list()) results = serial::Value::empty_list();
      results.push_back(random_value(rng, 1));
      break;
    }
    case Op::weak_add:
      data.declare_weak("w" + slot, random_value(rng, 2));
      break;
    case Op::weak_overwrite:
      data.weak(random_slot(rng, data.weak_image())) = random_value(rng, 2);
      break;
    case Op::weak_remove: {
      auto* weak = data.weak_slots();
      if (weak->size() > 1) weak->erase(random_slot(rng, *weak));
      break;
    }
    case Op::log_push:
      ag.log().push(random_entry(rng));
      break;
    case Op::log_pop:
      if (!ag.log().empty()) (void)ag.log().pop();
      break;
    case Op::sp_stack: {
      auto& stack = ag.savepoint_stack();
      if (!stack.empty() && rng.next_below(2) == 0) {
        stack.pop_back();
      } else {
        stack.push_back({ag.allocate_savepoint_id(),
                         rollback::SavepointOrigin::sub_itinerary,
                         static_cast<std::uint32_t>(rng.next_below(3))});
      }
      break;
    }
    case Op::last_sp_strong:
      ag.set_last_savepoint_strong(random_value(rng, 2));
      break;
    default:
      ag.set_run_state(static_cast<agent::Agent::RunState>(rng.next_below(3)));
      ag.set_position({static_cast<std::uint32_t>(rng.next_below(3)),
                       static_cast<std::uint32_t>(rng.next_below(3))});
      if (rng.next_below(2) == 0) ag.note_rollback_completed();
      ag.set_force_full_savepoint(rng.next_below(2) == 0);
      break;
  }
  return op;
}

TEST(ImageDeltaFuzz, MatchesObjectLevelDiffAndApplyOverSeededHistories) {
  const auto reg = workload_registry();
  constexpr int kHistories = 2500;
  std::vector<int> ops(static_cast<std::size_t>(Op::count), 0);
  int deltas = 0;
  int refused = 0;
  int full_map_sections = 0;
  for (int seed = 1; seed <= kHistories; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary main_it;
    main_it.sub(random_itinerary(rng, 3));
    ag->itinerary() = std::move(main_it);
    for (auto n = rng.next_below(12); n > 0; --n) (void)mutate(*ag, rng);
    const auto base_bytes = agent::encode_agent(*ag);
    const auto base_log = ag->log().entries();
    for (auto n = rng.next_below(8); n > 0; --n) {
      ++ops[static_cast<std::size_t>(mutate(*ag, rng))];
    }
    const auto cur_bytes = agent::encode_agent(*ag);
    const auto& cur_log = ag->log().entries();
    const bool prefix =
        cur_log.size() >= base_log.size() &&
        std::equal(base_log.begin(), base_log.end(), cur_log.begin());

    const auto delta = agent::encode_image_delta(base_bytes, cur_bytes);
    ASSERT_EQ(delta.has_value(), prefix) << "seed " << seed;
    const auto base = agent::decode_agent(reg, base_bytes);
    auto cur = agent::decode_agent(reg, cur_bytes);
    const auto expected = reference_delta(*base, *cur);
    ASSERT_EQ(expected.has_value(), prefix) << "seed " << seed;
    if (!prefix) {
      ++refused;
      continue;
    }
    ++deltas;
    ASSERT_EQ(*delta, *expected) << "seed " << seed;
    ASSERT_EQ(agent::apply_image_delta(base_bytes, *delta), cur_bytes)
        << "seed " << seed;
    ASSERT_EQ(agent::apply_image_delta_by_decode(reg, base_bytes, *delta),
              cur_bytes)
        << "seed " << seed;
    // The strong section's mode byte follows run_state, the fields and
    // the last_sp_strong flag (+ value).
    const auto a = agent::scan_agent_image(cur_bytes);
    const std::size_t flag_at = 1 + a.fields.size();
    const std::size_t mode_at =
        flag_at + 1 + ((*delta)[flag_at] != 0 ? a.last_sp_strong.size() : 0);
    full_map_sections += (*delta)[mode_at] == 1 ? 1 : 0;
  }
  // Both outcomes and every kind of change are well represented.
  EXPECT_GT(deltas, kHistories / 4);
  EXPECT_GT(refused, kHistories / 20);
  EXPECT_GT(full_map_sections, 50);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    EXPECT_GT(ops[k], 500) << "op kind " << k;
  }
}

/// Turn a decoded agent into an eagerly decoded one: every log entry
/// built, and the itinerary encoded from its objects on the next capture.
void make_eager(agent::Agent& ag) {
  (void)ag.log().entries();
  (void)ag.itinerary();  // the mutable accessor drops the kept encoding
}

TEST(ImageDeltaFuzz, LazyDecodeCapturesLikeEagerDecodeOverSeededHistories) {
  const auto reg = workload_registry();
  int images = 0;
  int deltas = 0;
  for (int seed = 1; seed <= 1000; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary main_it;
    main_it.sub(random_itinerary(rng, 3));
    ag->itinerary() = std::move(main_it);
    for (auto n = rng.next_below(12); n > 0; --n) (void)mutate(*ag, rng);
    const auto bytes = agent::encode_agent(*ag);
    auto lazy = agent::decode_agent(reg, bytes);
    auto eager = agent::decode_agent(reg, bytes);
    make_eager(*eager);
    ASSERT_EQ(agent::encode_agent(*lazy), bytes) << "seed " << seed;
    ASSERT_EQ(agent::encode_agent(*eager), bytes) << "seed " << seed;
    // The rest of the history runs on the original and on both decodes.
    for (auto n = 1 + rng.next_below(8); n > 0; --n) {
      const auto step_seed = rng.next_u64();
      for (agent::Agent* a : {static_cast<agent::Agent*>(ag.get()),
                              lazy.get(), eager.get()}) {
        Rng step_rng(step_seed);
        (void)mutate(*a, step_rng);
      }
      const auto want = agent::encode_agent(*ag);
      ASSERT_EQ(agent::encode_agent(*lazy), want) << "seed " << seed;
      ASSERT_EQ(agent::encode_agent(*eager), want) << "seed " << seed;
      ++images;
    }
    if (lazy->delta_ready()) {
      ASSERT_EQ(agent::encode_agent_delta(*lazy),
                agent::encode_agent_delta(*eager))
          << "seed " << seed;
      ++deltas;
    }
  }
  EXPECT_GT(images, 3000);
  EXPECT_GT(deltas, 100);
}

// --------------------------------------------------------------------------
// End-to-end delta shipping
// --------------------------------------------------------------------------

TEST(ShipTest, DeltaShippingMatchesFullImagesBitForBit) {
  PlatformConfig delta_cfg;
  PlatformConfig full_cfg;
  full_cfg.ship_delta = false;
  const auto delta_run = run_ping_pong(delta_cfg, 32, 12);
  const auto full_run = run_ping_pong(full_cfg, 32, 12);
  ASSERT_TRUE(delta_run.done);
  ASSERT_TRUE(full_run.done);
  EXPECT_EQ(delta_run.visits, 32 + 12);  // exactly once each
  EXPECT_EQ(delta_run.final_agent, full_run.final_agent);
  // The aged log rides every full image but only once per channel here.
  EXPECT_LT(delta_run.convoy_bytes * 2, full_run.convoy_bytes);
}

TEST(ShipTest, ChannelsActuallyShipDeltas) {
  PlatformConfig cfg;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(8, 10);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  const auto& s2 = w.platform.node(TestWorld::n(2)).shipments().stats();
  // First crossing of each channel establishes the base; every later hop
  // ships a delta.
  EXPECT_EQ(s1.full_images + s2.full_images, 2u);
  EXPECT_EQ(s1.delta_ships + s2.delta_ships, 8u);
  EXPECT_EQ(s1.need_full_retries + s2.need_full_retries, 0u);
  // The receivers materialized full images out of small deltas.
  const auto& st2 = w.platform.node(TestWorld::n(2)).storage().stats();
  EXPECT_GT(st2.ship_bytes_reconstructed, st2.ship_bytes_received);
}

TEST(ShipTest, CacheGaugeStaysWithinTwiceTheBudget) {
  // Several aged agents ping-pong over one pair of channels under a budget
  // that holds only some of their images: the ship.cache_bytes gauge (send
  // plus receive side) must never exceed 2 x ship_cache_bytes, now that the
  // caches hold image bytes and nothing else.
  PlatformConfig cfg;
  cfg.discard_log_on_top_level = false;
  cfg.ship_cache_bytes = 6'000;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  std::vector<AgentId> ids;
  for (int a = 0; a < 4; ++a) {
    auto ag = std::make_unique<WorkloadAgent>();
    ag->itinerary() = ping_pong(8 + 4 * a, 10);
    ag->set_config("param_bytes", 64);
    auto id = w.platform.launch(std::move(ag));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  std::uint64_t peak = 0;
  const auto gauge = [&w](int node) {
    return w.platform.node(TestWorld::n(node)).shipments().cache_bytes();
  };
  const bool all_done = w.sim.run_while_pending([&] {
    for (const int node : {1, 2}) {
      peak = std::max<std::uint64_t>(peak, gauge(node));
      EXPECT_LE(gauge(node), 2 * cfg.ship_cache_bytes);
    }
    return std::all_of(ids.begin(), ids.end(), [&w](AgentId id) {
      return w.platform.finished(id);
    });
  });
  ASSERT_TRUE(all_done);
  // The budget binds (the peak is past one side's share) and deltas flowed.
  EXPECT_GT(peak, cfg.ship_cache_bytes);
  std::uint64_t deltas = 0;
  for (const int node : {1, 2}) {
    auto& rt = w.platform.node(TestWorld::n(node));
    deltas += rt.shipments().stats().delta_ships;
    EXPECT_EQ(rt.metrics_snapshot().scalars.at("ship.cache_bytes"),
              gauge(node));
  }
  EXPECT_GT(deltas, 0u);
}

TEST(ShipTest, TinyCacheFallsBackToFullImages) {
  PlatformConfig cfg;
  cfg.ship_cache_bytes = 16;  // nothing fits: every base is evicted
  const auto run = run_ping_pong(cfg, 8, 10);
  ASSERT_TRUE(run.done);
  EXPECT_EQ(run.visits, 18);
}

TEST(ShipTest, ZeroRatioNeverShipsDeltas) {
  PlatformConfig cfg;
  cfg.ship_delta_max_ratio = 0.0;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(4, 6);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  const auto& s2 = w.platform.node(TestWorld::n(2)).shipments().stats();
  EXPECT_EQ(s1.delta_ships + s2.delta_ships, 0u);
  EXPECT_GT(s1.delta_fallbacks + s2.delta_fallbacks, 0u);
}

TEST(ShipTest, ReceiverCrashForcesFullResync) {
  PlatformConfig cfg;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  // Wipe N2's receive cache mid-run — while an N1->N2 delta convoy is in
  // flight, so the transfer times out and is retried under a fresh
  // transaction. The retried delta references a base (and channel epoch)
  // N2 no longer has — answered need_full, and the channel re-establishes
  // itself with a full image. (With the piggybacked PREPARE a convoy is
  // one round trip, so the crash must intercept the convoy itself; there
  // is no separate stage-ack window any more.)
  w.faults.crash_at(TestWorld::n(2), 38'500, 5'000);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(8, 16);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(fin->data().weak("visits").as_int(), 24);  // exactly once
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  EXPECT_GE(s1.need_full_retries, 1u);
}

// --------------------------------------------------------------------------
// Convoy batching + participant-side sync coalescing
// --------------------------------------------------------------------------

/// `fleet` agents, each one spend_logged step on N1 then one on N2.
/// Returns (convoys, entries, syncs at the participant N2).
struct ConvoyCounts {
  std::uint64_t convoys = 0;
  std::uint64_t entries = 0;
  std::uint64_t participant_syncs = 0;
  bool ok = false;
};

ConvoyCounts run_fleet_migration(std::uint32_t convoy_window,
                                 std::uint32_t commit_window) {
  PlatformConfig cfg;
  cfg.node_concurrency = 4;
  cfg.ship_convoy_window = convoy_window;
  cfg.group_commit_window = commit_window;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  std::vector<AgentId> ids;
  for (int a = 0; a < 6; ++a) {
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary sub;
    sub.step("spend_logged", TestWorld::n(1));
    sub.step("spend_logged", TestWorld::n(2));
    Itinerary main_it;
    main_it.sub(std::move(sub));
    ag->itinerary() = std::move(main_it);
    auto id = w.platform.launch(std::move(ag));
    EXPECT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  ConvoyCounts c;
  c.ok = w.platform.run_until_all_finished(ids);
  for (const auto id : ids) {
    c.ok = c.ok &&
           w.platform.outcome(id).state == AgentOutcome::State::done;
  }
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  c.convoys = s1.convoys_sent;
  c.entries = s1.entries_sent;
  c.participant_syncs =
      w.platform.node(TestWorld::n(2)).storage().stats().sync_batches;
  return c;
}

TEST(ShipTest, ConvoyWindowBatchesTransfersAndCoalescesSyncs) {
  const auto solo = run_fleet_migration(1, 1);
  const auto batched = run_fleet_migration(4, 4);
  ASSERT_TRUE(solo.ok);
  ASSERT_TRUE(batched.ok);
  EXPECT_EQ(solo.entries, 6u);
  EXPECT_EQ(batched.entries, 6u);
  EXPECT_EQ(solo.convoys, 6u);
  EXPECT_LT(batched.convoys, batched.entries);
  // Participant-side group commit: prepares/applies of one convoy share
  // their syncs — at least the required 2x reduction.
  EXPECT_LE(batched.participant_syncs * 2, solo.participant_syncs);
}

// --------------------------------------------------------------------------
// Mid-transfer crashes (randomized, 3 seeds)
// --------------------------------------------------------------------------

TEST(ShipTest, MidTransferCrashesStayExactlyOnceAndBitIdentical) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    PlatformConfig delta_cfg;
    delta_cfg.ship_convoy_window = 2;  // convoys in flight when killed
    PlatformConfig full_cfg = delta_cfg;
    full_cfg.ship_delta = false;
    const auto delta_run = run_ping_pong(delta_cfg, 8, 16, seed);
    const auto full_run = run_ping_pong(full_cfg, 8, 16, seed);
    ASSERT_TRUE(delta_run.done) << "seed " << seed;
    ASSERT_TRUE(full_run.done) << "seed " << seed;
    // Exactly-once arrival: every step committed exactly once despite
    // destination crashes between convoy receipt and participant flush.
    EXPECT_EQ(delta_run.visits, 24) << "seed " << seed;
    EXPECT_EQ(full_run.visits, 24) << "seed " << seed;
    // Bit-identical reconstruction: the delta-shipped agent's final
    // state equals the full-image run's, byte for byte.
    EXPECT_EQ(delta_run.final_agent, full_run.final_agent)
        << "seed " << seed;
  }
}

TEST(ShipTest, PipelinedCommitCrashesStayExactlyOnceAndBitIdentical) {
  // Same randomized kill schedule, with the full pipeline live: convoy
  // frames carry piggybacked PREPAREs and the coordinator's decision
  // queue batches its syncs. Kills now land between decide and flush
  // (queued decisions presumed-abort) as well as mid-convoy; exactly-once
  // arrival and bit-identical reconstruction must survive regardless.
  // Window 1 runs the same protocol with a flush at every entry.
  struct Windows {
    std::uint32_t convoy;
    std::uint32_t group;
  };
  for (const Windows win : {Windows{4, 4}, Windows{1, 1}}) {
    for (const std::uint64_t seed : {404u, 505u, 707u}) {
      PlatformConfig delta_cfg;
      delta_cfg.ship_convoy_window = win.convoy;
      delta_cfg.group_commit_window = win.group;
      PlatformConfig full_cfg = delta_cfg;
      full_cfg.ship_delta = false;
      const auto delta_run = run_ping_pong(delta_cfg, 8, 16, seed);
      const auto full_run = run_ping_pong(full_cfg, 8, 16, seed);
      ASSERT_TRUE(delta_run.done) << "window " << win.group << " seed " << seed;
      ASSERT_TRUE(full_run.done) << "window " << win.group << " seed " << seed;
      EXPECT_EQ(delta_run.visits, 24)
          << "window " << win.group << " seed " << seed;
      EXPECT_EQ(full_run.visits, 24)
          << "window " << win.group << " seed " << seed;
      EXPECT_EQ(delta_run.final_agent, full_run.final_agent)
          << "window " << win.group << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mar
