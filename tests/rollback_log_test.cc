// Unit tests for the rollback log (Sec. 4.2): entry layout, Fig. 2
// structure, savepoint GC under state and transition logging,
// strong-state reconstruction, and the lazy decode (encoded prefix +
// decoded tail) against an eager reference decoder.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "rollback/log.h"
#include "serial/serializable.h"
#include "util/check.h"
#include "util/rng.h"

namespace mar::rollback {
namespace {

using serial::Value;

Value strong_state(std::int64_t x) {
  Value v = Value::empty_map();
  v.set("x", x);
  return v;
}

SavepointEntry full_sp(std::uint32_t id, std::int64_t x) {
  SavepointEntry sp;
  sp.id = SavepointId(id);
  sp.image = strong_state(x);
  sp.resume_position = {0, 0};
  return sp;
}

SavepointEntry delta_sp(std::uint32_t id, const Value& from, const Value& to) {
  SavepointEntry sp;
  sp.id = SavepointId(id);
  sp.transition = true;
  sp.delta = serial::diff(from, to);
  return sp;
}

SavepointEntry light_sp(std::uint32_t id) {
  SavepointEntry sp;
  sp.id = SavepointId(id);
  sp.lightweight = true;
  return sp;
}

OperationEntry op(OpEntryKind kind, std::string name) {
  OperationEntry oe;
  oe.kind = kind;
  oe.comp_op = std::move(name);
  oe.resource_node = NodeId(1);
  oe.resource = "bank";
  return oe;
}

/// Append a BOS / ops / EOS step segment.
void push_step(RollbackLog& log, std::uint32_t node,
               std::vector<OperationEntry> ops, bool mixed = false) {
  log.push(BeginOfStepEntry{NodeId(node), "step"});
  for (auto& o : ops) log.push(std::move(o));
  EndOfStepEntry eos;
  eos.node = NodeId(node);
  eos.has_mixed = mixed;
  log.push(std::move(eos));
}

TEST(LogEntryTest, RoundTripsEveryKind) {
  // savepoint
  {
    SavepointEntry sp = full_sp(3, 42);
    sp.origin = SavepointOrigin::sub_itinerary;
    sp.depth = 2;
    LogEntry e(sp);
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_EQ(back.kind(), EntryKind::savepoint);
    EXPECT_EQ(back.savepoint().id, SavepointId(3));
    EXPECT_EQ(back.savepoint().depth, 2u);
    EXPECT_EQ(back.savepoint().image, strong_state(42));
    EXPECT_EQ(back.savepoint().resume_position, (Position{0, 0}));
  }
  // begin-of-step
  {
    LogEntry e(BeginOfStepEntry{NodeId(7), "buy"});
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_EQ(back.begin_of_step().node, NodeId(7));
    EXPECT_EQ(back.begin_of_step().step_name, "buy");
  }
  // operation
  {
    OperationEntry oe = op(OpEntryKind::mixed, "comp.x");
    oe.params = strong_state(1);
    LogEntry e(oe);
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_EQ(back.operation().kind, OpEntryKind::mixed);
    EXPECT_EQ(back.operation().comp_op, "comp.x");
    EXPECT_EQ(back.operation().params, strong_state(1));
    EXPECT_EQ(back.operation().resource, "bank");
  }
  // end-of-step
  {
    EndOfStepEntry eos;
    eos.node = NodeId(4);
    eos.has_mixed = true;
    eos.cannot_compensate = true;
    eos.alternatives = {NodeId(5), NodeId(6)};
    LogEntry e(eos);
    auto back = serial::from_bytes<LogEntry>(serial::to_bytes(e));
    EXPECT_TRUE(back.end_of_step().has_mixed);
    EXPECT_TRUE(back.end_of_step().cannot_compensate);
    EXPECT_EQ(back.end_of_step().alternatives.size(), 2u);
  }
}

TEST(RollbackLogTest, Fig2Layout) {
  // Reproduce Fig. 2: ... SP_k BOS_n OE_n,1 OE_n,2 ... OE_n,p EOS_n ...
  RollbackLog log;
  log.push(full_sp(1, 0));
  push_step(log, 3,
            {op(OpEntryKind::resource, "c1"), op(OpEntryKind::agent, "c2"),
             op(OpEntryKind::resource, "c3")});
  EXPECT_EQ(log.to_string(),
            "SP_1 BOS(N3,step) OE[RCE,c1] OE[ACE,c2] OE[RCE,c3] EOS(N3)");
}

TEST(RollbackLogTest, PopReturnsReverseOrder) {
  RollbackLog log;
  push_step(log, 1, {op(OpEntryKind::resource, "c1"),
                     op(OpEntryKind::resource, "c2")});
  EXPECT_EQ(log.pop().kind(), EntryKind::end_of_step);
  EXPECT_EQ(log.pop().operation().comp_op, "c2");
  EXPECT_EQ(log.pop().operation().comp_op, "c1");
  EXPECT_EQ(log.pop().kind(), EntryKind::begin_of_step);
  EXPECT_TRUE(log.empty());
  EXPECT_THROW((void)log.pop(), LogicError);
}

TEST(RollbackLogTest, TrailingSavepointAndLastEos) {
  RollbackLog log;
  EXPECT_FALSE(log.trailing_savepoint().has_value());
  push_step(log, 2, {});
  EXPECT_EQ(log.last_end_of_step()->node, NodeId(2));
  log.push(full_sp(1, 0));
  log.push(light_sp(2));
  EXPECT_EQ(log.trailing_savepoint(), SavepointId(2));
  // last_end_of_step skips the trailing savepoints.
  EXPECT_EQ(log.last_end_of_step()->node, NodeId(2));
}

TEST(RollbackLogTest, SerializationRoundTrip) {
  RollbackLog log;
  log.push(full_sp(1, 7));
  push_step(log, 2, {op(OpEntryKind::mixed, "cx")}, /*mixed=*/true);
  log.push(light_sp(2));
  auto back = serial::from_bytes<RollbackLog>(serial::to_bytes(log));
  EXPECT_EQ(back.size(), log.size());
  EXPECT_EQ(back.to_string(), log.to_string());
  EXPECT_EQ(back.byte_size(), log.byte_size());
}

// --------------------------------------------------------------------------
// Strong-state reconstruction (state + transition logging)
// --------------------------------------------------------------------------

TEST(RollbackLogTest, StrongStateFromFullImage) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  push_step(log, 1, {});
  log.push(full_sp(2, 20));
  auto r = log.strong_state_at(SavepointId(1));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), strong_state(10));
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(20));
}

TEST(RollbackLogTest, StrongStateFromDeltaChain) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  push_step(log, 1, {});
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  push_step(log, 2, {});
  log.push(delta_sp(3, strong_state(20), strong_state(35)));
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).value(), strong_state(10));
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(20));
  EXPECT_EQ(log.strong_state_at(SavepointId(3)).value(), strong_state(35));
}

TEST(RollbackLogTest, LightweightSavepointAliasesPreviousData) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(light_sp(2));
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(10));
}

TEST(RollbackLogTest, MissingSavepointReported) {
  RollbackLog log;
  EXPECT_EQ(log.strong_state_at(SavepointId(9)).code(), Errc::not_found);
}

TEST(RollbackLogTest, DeltaWithoutBaseReported) {
  RollbackLog log;
  log.push(delta_sp(1, strong_state(0), strong_state(5)));
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).code(), Errc::protocol_error);
}

// --------------------------------------------------------------------------
// Savepoint GC (Sec. 4.4.2) — "non-trivial if transition logging is used"
// --------------------------------------------------------------------------

TEST(GcTest, StateLoggingGcJustRemoves) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  push_step(log, 1, {op(OpEntryKind::resource, "c")});
  log.push(full_sp(2, 20));
  push_step(log, 2, {});
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  // SP_2 was the last data-carrying entry, so the log reports that a next
  // savepoint must be a full image — irrelevant under state logging, where
  // every savepoint is full anyway.
  EXPECT_TRUE(*r);
  EXPECT_FALSE(log.contains_savepoint(SavepointId(2)));
  // Operation entries stay (paper: "but not the operation entries").
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).value(), strong_state(10));
}

TEST(GcTest, UnknownSavepointReturnsNullopt) {
  RollbackLog log;
  EXPECT_FALSE(log.gc_savepoint(SavepointId(4)).has_value());
}

TEST(GcTest, DeltaMergedIntoSuccessorOnGc) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  log.push(delta_sp(3, strong_state(20), strong_state(30)));
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(*r);
  // SP_3 must still reconstruct correctly through the composed delta.
  EXPECT_EQ(log.strong_state_at(SavepointId(3)).value(), strong_state(30));
}

TEST(GcTest, FullImageGcMaterializesSuccessor) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  auto r = log.gc_savepoint(SavepointId(1));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(*r);
  // SP_2 had only a delta; after GC of its base it must be self-contained.
  EXPECT_EQ(log.strong_state_at(SavepointId(2)).value(), strong_state(20));
}

TEST(GcTest, TailGcForcesNextFullImage) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(delta_sp(2, strong_state(10), strong_state(20)));
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(*r);  // chain tail left the log: next SP must be full
}

TEST(GcTest, LightweightGcIsFree) {
  RollbackLog log;
  log.push(full_sp(1, 10));
  log.push(light_sp(2));
  auto r = log.gc_savepoint(SavepointId(2));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(*r);
  EXPECT_EQ(log.strong_state_at(SavepointId(1)).value(), strong_state(10));
}

// Randomized chain property: any GC order of middle savepoints preserves
// reconstruction of the remaining ones.
class GcChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcChainProperty, ReconstructionSurvivesRandomGc) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    RollbackLog log;
    const int n = 4 + static_cast<int>(rng.next_below(6));
    std::vector<Value> states;
    states.push_back(strong_state(rng.next_in(0, 100)));
    log.push(full_sp(1, states[0].at("x").as_int()));
    for (int i = 1; i < n; ++i) {
      states.push_back(strong_state(rng.next_in(0, 100)));
      push_step(log, 1, {});
      log.push(delta_sp(static_cast<std::uint32_t>(i + 1), states[i - 1],
                        states[i]));
    }
    // GC a random subset of the middle savepoints, in random order.
    std::vector<int> victims;
    for (int i = 1; i < n; ++i) {
      if (rng.next_bool(0.4)) victims.push_back(i + 1);
    }
    rng.shuffle(victims);
    std::set<int> gone(victims.begin(), victims.end());
    for (int v : victims) {
      auto r = log.gc_savepoint(SavepointId(static_cast<std::uint32_t>(v)));
      ASSERT_TRUE(r.has_value());
    }
    for (int i = 0; i < n; ++i) {
      if (gone.contains(i + 1)) continue;
      auto r = log.strong_state_at(SavepointId(static_cast<std::uint32_t>(i + 1)));
      ASSERT_TRUE(r.is_ok()) << "sp " << i + 1 << ": " << r.status();
      EXPECT_EQ(r.value(), states[static_cast<std::size_t>(i)])
          << "sp " << i + 1 << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcChainProperty,
                         ::testing::Values(2, 71, 828, 1828));

// --------------------------------------------------------------------------
// Lazy decode: the entries a log was decoded with stay encoded
// --------------------------------------------------------------------------

/// The eager decoder the log had before it kept decoded entries encoded:
/// every entry is built on the spot. The reference for the lazy decode.
std::vector<LogEntry> eager_decode(std::span<const std::uint8_t> bytes) {
  serial::Decoder dec(bytes);
  std::vector<LogEntry> entries(dec.read_count());
  for (auto& e : entries) e.deserialize(dec);
  dec.expect_end();
  return entries;
}

/// A log built by pushes only, so every entry is decoded.
RollbackLog decoded_log(std::vector<LogEntry> entries) {
  RollbackLog log;
  for (auto& e : entries) log.push(std::move(e));
  log.mark_baseline();
  return log;
}

serial::Bytes entry_bytes(std::span<const LogEntry> entries) {
  serial::Encoder enc;  // mar-lint: small-frame
  for (const auto& e : entries) e.serialize(enc);
  return std::move(enc).take();
}

/// A random Value without reals (whose NaNs defeat equality checks).
Value random_value(Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 6 : 4)) {
    case 0: return {};
    case 1: return Value(rng.next_bool());
    case 2: return Value(rng.next_in(-500, 500));
    case 3: return Value("v" + std::to_string(rng.next_below(20)));
    case 4: {
      auto l = Value::empty_list();
      for (auto n = rng.next_below(3); n > 0; --n) {
        l.push_back(random_value(rng, depth - 1));
      }
      return l;
    }
    default: {
      auto m = Value::empty_map();
      for (auto n = rng.next_below(3); n > 0; --n) {
        m.set("k" + std::to_string(rng.next_below(4)),
              random_value(rng, depth - 1));
      }
      return m;
    }
  }
}

/// Savepoint ids come from a small range so lookups and GC find them.
LogEntry random_entry(Rng& rng) {
  const auto node = NodeId(static_cast<std::uint32_t>(1 + rng.next_below(4)));
  switch (rng.next_below(4)) {
    case 0: {
      SavepointEntry sp;
      sp.id = SavepointId(static_cast<std::uint32_t>(1 + rng.next_below(6)));
      sp.origin = rng.next_bool() ? SavepointOrigin::adhoc
                                  : SavepointOrigin::sub_itinerary;
      sp.depth = static_cast<std::uint32_t>(rng.next_below(3));
      sp.lightweight = rng.next_below(4) == 0;
      sp.transition = !sp.lightweight && rng.next_bool();
      if (sp.transition) {
        sp.delta = serial::diff(random_value(rng, 2), random_value(rng, 2));
      } else if (!sp.lightweight) {
        sp.image = random_value(rng, 2);
      }
      for (auto n = rng.next_below(3); n > 0; --n) {
        sp.resume_position.push_back(
            static_cast<std::uint32_t>(rng.next_below(5)));
      }
      return sp;
    }
    case 1:
      return BeginOfStepEntry{node, "s" + std::to_string(rng.next_below(5))};
    case 2: {
      OperationEntry oe = op(static_cast<OpEntryKind>(rng.next_below(3)),
                             "c" + std::to_string(rng.next_below(5)));
      oe.params = random_value(rng, 2);
      return oe;
    }
    default: {
      EndOfStepEntry eos;
      eos.node = node;
      eos.has_mixed = rng.next_bool();
      eos.cannot_compensate = rng.next_below(6) == 0;
      for (auto n = rng.next_below(3); n > 0; --n) {
        eos.alternatives.push_back(
            NodeId(static_cast<std::uint32_t>(1 + rng.next_below(4))));
      }
      return eos;
    }
  }
}

TEST(LazyLogTest, DecodeRejectsExactlyWhatTheEagerDecoderRejects) {
  Rng rng(0x1a2f);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 150; ++round) {
    RollbackLog log;
    for (auto n = 1 + rng.next_below(8); n > 0; --n) {
      log.push(random_entry(rng));
    }
    const auto bytes = serial::to_bytes(log);
    std::vector<serial::Bytes> inputs;
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      inputs.emplace_back(bytes.begin(),
                          bytes.begin() + static_cast<long>(len));
    }
    for (int f = 0; f < 60; ++f) {
      auto b = bytes;
      for (auto flips = 1 + rng.next_below(3); flips > 0; --flips) {
        b[rng.next_below(b.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      inputs.push_back(std::move(b));
    }
    for (const auto& in : inputs) {
      std::optional<std::vector<LogEntry>> eager;
      try {
        eager = eager_decode(in);
      } catch (const serial::DecodeError&) {
      }
      std::optional<RollbackLog> lazy;
      try {
        lazy = serial::from_bytes<RollbackLog>(in);
      } catch (const serial::DecodeError&) {
      }
      ASSERT_EQ(lazy.has_value(), eager.has_value())
          << "round " << round << ", input of " << in.size() << " bytes";
      if (!lazy.has_value()) {
        ++rejected;
        continue;
      }
      ++accepted;
      EXPECT_EQ(lazy->size(), eager->size());
      EXPECT_EQ(entry_bytes(lazy->entries()), entry_bytes(*eager));
    }
    // The untouched image is canonical: written back byte for byte.
    EXPECT_EQ(serial::to_bytes(serial::from_bytes<RollbackLog>(bytes)), bytes);
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 10000);
}

/// Compare a lazily decoded log with its fully decoded twin: bytes, sizes,
/// append tracking, and every query (run on a copy, so the lazy log stays
/// lazy for the operations that follow).
void expect_same(const RollbackLog& lazy, const RollbackLog& ref, Rng& rng) {
  ASSERT_EQ(serial::to_bytes(lazy), serial::to_bytes(ref));
  ASSERT_EQ(lazy.size(), ref.size());
  ASSERT_EQ(lazy.byte_size(), ref.byte_size());
  ASSERT_EQ(lazy.append_clean(), ref.append_clean());
  if (ref.append_clean()) {
    ASSERT_EQ(entry_bytes(lazy.appended_entries()),
              entry_bytes(ref.appended_entries()));
  }
  ASSERT_EQ(lazy.trailing_savepoint(), ref.trailing_savepoint());
  const auto id =
      SavepointId(static_cast<std::uint32_t>(1 + rng.next_below(6)));
  const RollbackLog probe = lazy;
  const auto* eos = probe.last_end_of_step();
  ASSERT_EQ(eos == nullptr, ref.last_end_of_step() == nullptr);
  if (eos != nullptr) {
    ASSERT_EQ(*eos, *ref.last_end_of_step());
  }
  ASSERT_EQ(RollbackLog(lazy).contains_savepoint(id),
            ref.contains_savepoint(id));
  ASSERT_EQ(RollbackLog(lazy).poisoned_since(id), ref.poisoned_since(id));
  ASSERT_EQ(RollbackLog(lazy).first_savepoint(), ref.first_savepoint());
  ASSERT_EQ(RollbackLog(lazy).last_step_ops().size(),
            ref.last_step_ops().size());
  const auto state = RollbackLog(lazy).strong_state_at(id);
  const auto ref_state = ref.strong_state_at(id);
  ASSERT_EQ(state.is_ok(), ref_state.is_ok());
  if (state.is_ok()) {
    ASSERT_EQ(state.value(), ref_state.value());
  }
  ASSERT_EQ(RollbackLog(lazy).to_string(), ref.to_string());
}

TEST(LazyLogTest, OperationSequencesMatchAFullyDecodedLog) {
  enum Op { push, pop, gc, clear, baseline, round_trip, count };
  std::vector<int> ran(count, 0);
  int lazy_pops = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    RollbackLog lazy;
    RollbackLog ref;
    bool encoded_tail_empty = false;  // lazy's tail is empty after decode
    for (int step = 0; step < 40; ++step) {
      const auto roll = rng.next_below(10);
      const Op o = roll < 4    ? push
                   : roll < 6  ? round_trip
                   : roll == 6 ? pop
                   : roll == 7 ? gc
                   : roll == 8 ? baseline
                               : (rng.next_below(3) == 0 ? clear : push);
      ++ran[o];
      switch (o) {
        case push: {
          const auto e = random_entry(rng);
          lazy.push(e);
          ref.push(e);
          encoded_tail_empty = false;
          break;
        }
        case pop:
          if (ref.empty()) break;
          lazy_pops += encoded_tail_empty ? 1 : 0;
          ASSERT_EQ(serial::to_bytes(lazy.pop()), serial::to_bytes(ref.pop()));
          break;
        case gc: {
          const auto id =
              SavepointId(static_cast<std::uint32_t>(1 + rng.next_below(6)));
          ASSERT_EQ(lazy.gc_savepoint(id), ref.gc_savepoint(id));
          break;
        }
        case clear:
          lazy.clear();
          ref.clear();
          break;
        case baseline:
          lazy.mark_baseline();
          ref.mark_baseline();
          break;
        default: {
          const auto bytes = serial::to_bytes(lazy);
          lazy = serial::from_bytes<RollbackLog>(bytes);
          ref = decoded_log(eager_decode(bytes));
          encoded_tail_empty = !ref.empty();
          break;
        }
      }
      expect_same(lazy, ref, rng);
    }
  }
  for (int k = 0; k < count; ++k) EXPECT_GT(ran[k], 300) << "op " << k;
  EXPECT_GT(lazy_pops, 100);  // pops that had to open the encoded prefix
}

}  // namespace
}  // namespace mar::rollback
