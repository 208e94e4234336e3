// Robustness of the wire formats and the mailbox resource.
//
// The platform trusts nothing it reads back from a queue or the network:
// every decode is bounds-checked and raises DecodeError on malformed
// input. These tests fuzz the codecs with truncations and byte flips —
// any outcome other than "decodes cleanly" or "throws DecodeError" (e.g.
// a crash, hang, or unchecked exception type) fails the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "harness/agents.h"
#include "harness/world.h"
#include "resource/mailbox.h"

namespace mar {
namespace {

using agent::Itinerary;
using harness::TestWorld;
using harness::WorkloadAgent;

serial::Bytes encoded_sample_agent() {
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  sub.step("touch_split", TestWorld::n(1))
      .step_if("noop", TestWorld::n(2),
               agent::Condition{"touches", agent::Condition::Op::ge,
                                serial::Value(1)});
  Itinerary fallback;
  fallback.step("collect", TestWorld::n(3));
  Itinerary alt_sub;
  alt_sub.alt({std::move(sub), std::move(fallback)});
  Itinerary main;
  main.sub(std::move(alt_sub));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 2, "sub", 0);
  agent->data().weak("cash") = std::int64_t{123};
  agent->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "s"});
  rollback::OperationEntry op;
  op.kind = rollback::OpEntryKind::mixed;
  op.comp_op = "comp.x";
  op.params = serial::Value("p");
  op.resource_node = TestWorld::n(1);
  op.resource = "dir";
  agent->log().push(op);
  rollback::EndOfStepEntry eos;
  eos.node = TestWorld::n(1);
  eos.has_mixed = true;
  agent->log().push(eos);
  return agent::encode_agent(*agent);
}

agent::AgentTypeRegistry registry_with_workload() {
  agent::AgentTypeRegistry reg;
  reg.register_type<WorkloadAgent>("workload");
  return reg;
}

TEST(FuzzDecode, SampleAgentRoundTrips) {
  const auto bytes = encoded_sample_agent();
  const auto reg = registry_with_workload();
  auto agent = agent::decode_agent(reg, bytes);
  EXPECT_EQ(agent->data().weak("cash").as_int(), 123);
  EXPECT_EQ(agent->log().size(), 3u);
  EXPECT_EQ(agent::encode_agent(*agent), bytes);  // canonical encoding
}

TEST(FuzzDecode, StepWithoutLocationsIsRejected) {
  // Encode a one-step agent, then rewrite its step's location list from
  // one node to none. The rest of the image still parses, so only the
  // empty-list check can reject it.
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  sub.step("zz_step", TestWorld::n(7));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  auto bytes = agent::encode_agent(*agent);
  const std::string method = "zz_step";
  serial::Bytes needle{static_cast<std::uint8_t>(method.size())};
  needle.insert(needle.end(), method.begin(), method.end());
  needle.insert(needle.end(), {1, 7, 0, 0, 0});  // count 1, node u32 LE
  const auto at = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(at, bytes.end());
  const auto count = at + 1 + static_cast<long>(method.size());
  *count = 0;
  bytes.erase(count + 1, count + 5);
  const auto reg = registry_with_workload();
  EXPECT_THROW((void)agent::decode_agent(reg, bytes), serial::DecodeError);
  // The ship layer's scan walks the itinerary with Itinerary::skip, which
  // must reject it too.
  EXPECT_THROW((void)agent::scan_agent_image(bytes), serial::DecodeError);
}

// --- enum bytes: an out-of-range value is a DecodeError -------------------

/// `bytes` with the byte at `at` replaced by `v`.
serial::Bytes with_byte(serial::Bytes bytes, std::size_t at, std::uint8_t v) {
  bytes.at(at) = v;
  return bytes;
}

std::size_t offset_in(const serial::Bytes& image,
                      std::span<const std::uint8_t> section) {
  return static_cast<std::size_t>(section.data() - image.data());
}

/// The first log entry of `agent`'s image with one byte replaced: the
/// image, and the entry alone (for LogEntry's decoder and skip walk).
struct BadEntry {
  serial::Bytes image;
  serial::Bytes entry;
};

BadEntry corrupt_first_entry(const agent::Agent& agent, std::size_t at,
                             std::uint8_t v) {
  const auto image = agent::encode_agent(agent);
  const auto first = serial::to_bytes(agent.log().entries().front());
  const auto start =
      offset_in(image, agent::scan_agent_image(image).log_entries);
  return {with_byte(image, start + at, v), with_byte(first, at, v)};
}

void expect_entry_rejected(const BadEntry& bad) {
  const auto reg = registry_with_workload();
  EXPECT_THROW((void)agent::decode_agent(reg, bad.image), serial::DecodeError);
  EXPECT_THROW((void)serial::from_bytes<rollback::LogEntry>(bad.entry),
               serial::DecodeError);
  serial::Decoder dec(bad.entry);
  EXPECT_THROW(rollback::LogEntry::skip(dec), serial::DecodeError);
}

TEST(FuzzDecode, OutOfRangeRunStateIsRejected) {
  const auto reg = registry_with_workload();
  const auto image = encoded_sample_agent();
  const auto at = agent::scan_agent_image(image).head.size();
  ASSERT_EQ(image[at], 0);  // fresh
  const auto bad = with_byte(image, at, 3);
  EXPECT_THROW((void)agent::decode_agent(reg, bad), serial::DecodeError);
  EXPECT_THROW((void)agent::scan_agent_image(bad), serial::DecodeError);
  // A delta record leads with the run state.
  auto agent = agent::decode_agent(reg, image);
  const auto delta = with_byte(agent::encode_agent_delta(*agent), 0, 3);
  EXPECT_THROW(agent::apply_agent_delta(*agent, delta), serial::DecodeError);
  EXPECT_THROW((void)agent::apply_image_delta(image, delta),
               serial::DecodeError);
}

TEST(FuzzDecode, OutOfRangeSavepointOriginIsRejected) {
  WorkloadAgent agent;
  rollback::SavepointEntry sp;
  sp.id = SavepointId(1);
  sp.origin = rollback::SavepointOrigin::sub_itinerary;
  agent.log().push(sp);
  // kind tag, u32 id, then the origin byte
  expect_entry_rejected(corrupt_first_entry(agent, 5, 2));
}

TEST(FuzzDecode, OutOfRangeSavepointStackOriginIsRejected) {
  WorkloadAgent agent;
  agent.savepoint_stack().push_back(
      {SavepointId(1), rollback::SavepointOrigin::sub_itinerary, 1});
  const auto image = agent::encode_agent(agent);
  // The fields open with the (empty) position and the stack count; the
  // stack entry is a u32 id, then the origin byte.
  const auto at =
      offset_in(image, agent::scan_agent_image(image).fields) + 1 + 1 + 4;
  ASSERT_EQ(image[at], 1);
  const auto bad = with_byte(image, at, 2);
  const auto reg = registry_with_workload();
  EXPECT_THROW((void)agent::decode_agent(reg, bad), serial::DecodeError);
  EXPECT_THROW((void)agent::scan_agent_image(bad), serial::DecodeError);
}

TEST(FuzzDecode, OutOfRangeOpEntryKindIsRejected) {
  WorkloadAgent agent;
  rollback::OperationEntry op;
  op.kind = rollback::OpEntryKind::mixed;
  op.comp_op = "comp.x";
  agent.log().push(op);
  expect_entry_rejected(corrupt_first_entry(agent, 1, 3));  // after the tag
}

TEST(FuzzDecode, OutOfRangeConditionOpIsRejected) {
  // The sample's conditional step tests weak slot "touches" with ge (7).
  auto image = encoded_sample_agent();
  const std::string slot = "touches";
  serial::Bytes needle{static_cast<std::uint8_t>(slot.size())};
  needle.insert(needle.end(), slot.begin(), slot.end());
  needle.push_back(7);
  const auto at = std::search(image.begin(), image.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(at, image.end());
  *(at + static_cast<long>(needle.size()) - 1) = 8;
  const auto reg = registry_with_workload();
  EXPECT_THROW((void)agent::decode_agent(reg, image), serial::DecodeError);
  EXPECT_THROW((void)agent::scan_agent_image(image), serial::DecodeError);
}

TEST(FuzzDecode, ItinerarySkipRejectsExactlyWhatDeserializeRejects) {
  const auto reg = registry_with_workload();
  Itinerary plain;
  plain.step("a", TestWorld::n(1))
      .step("b", {TestWorld::n(2), TestWorld::n(3)});
  Itinerary main;
  main.sub(std::move(plain), /*vital=*/false);
  const std::vector<serial::Bytes> samples = {
      serial::to_bytes(
          agent::decode_agent(reg, encoded_sample_agent())->itinerary()),
      serial::to_bytes(main)};
  Rng rng(0x5c1b);
  int accepted = 0;
  int rejected = 0;
  for (const auto& bytes : samples) {
    std::vector<serial::Bytes> inputs;
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      inputs.emplace_back(bytes.begin(),
                          bytes.begin() + static_cast<long>(len));
    }
    // Every byte zeroed in turn (a location count of zero among them),
    // then random flips.
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      inputs.push_back(with_byte(bytes, at, 0));
    }
    for (int round = 0; round < 3000; ++round) {
      auto b = bytes;
      for (auto flips = 1 + rng.next_below(3); flips > 0; --flips) {
        b[rng.next_below(b.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      inputs.push_back(std::move(b));
    }
    for (const auto& in : inputs) {
      serial::Decoder full(in);
      serial::Decoder skip(in);
      bool full_ok = true;
      bool skip_ok = true;
      try {
        Itinerary it;
        it.deserialize(full);
      } catch (const serial::DecodeError&) {
        full_ok = false;
      }
      try {
        Itinerary::skip(skip);
      } catch (const serial::DecodeError&) {
        skip_ok = false;
      }
      ASSERT_EQ(skip_ok, full_ok) << "input of " << in.size() << " bytes";
      if (full_ok) {
        ASSERT_EQ(skip.offset(), full.offset());
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

TEST(FuzzDecode, EveryTruncationThrowsOrDecodes) {
  const auto bytes = encoded_sample_agent();
  const auto reg = registry_with_workload();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serial::Bytes cut(bytes.begin(),
                      bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)agent::decode_agent(reg, cut), serial::DecodeError)
        << "truncation at " << len;
  }
}

TEST(FuzzDecode, RandomByteFlipsNeverCrash) {
  const auto bytes = encoded_sample_agent();
  const auto reg = registry_with_workload();
  Rng rng(0xf1e5);
  int decoded = 0;
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    serial::Bytes mutated = bytes;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto at = rng.next_below(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    try {
      auto agent = agent::decode_agent(reg, mutated);
      ++decoded;  // the flip hit a benign spot
    } catch (const serial::DecodeError&) {
      ++rejected;
    } catch (const std::bad_alloc&) {
      // A flipped length prefix may demand absurd allocations; the codec
      // bounds-checks against the remaining buffer, so this must not
      // happen.
      FAIL() << "unbounded allocation on flipped input";
    }
  }
  EXPECT_EQ(decoded + rejected, 2000);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzDecode, QueueRecordTruncationsThrow) {
  storage::QueueRecord rec;
  rec.record_id = 42;
  rec.agent = AgentId(7);
  rec.kind = storage::RecordKind::compensate;
  rec.rollback_target = SavepointId(3);
  rec.completion = storage::QueueRecord::Completion::next_alt;
  rec.payload = serial::Bytes{1, 2, 3, 4};
  const auto bytes = serial::to_bytes(rec);
  const auto back = serial::from_bytes<storage::QueueRecord>(bytes);
  EXPECT_EQ(back.record_id, 42u);
  EXPECT_EQ(back.completion, storage::QueueRecord::Completion::next_alt);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serial::Bytes cut(bytes.begin(),
                      bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)serial::from_bytes<storage::QueueRecord>(cut),
                 serial::DecodeError);
  }
}

TEST(FuzzDecode, RollbackLogTruncationsThrow) {
  const auto bytes = encoded_sample_agent();
  const auto reg = registry_with_workload();
  auto agent = agent::decode_agent(reg, bytes);
  const auto log_bytes = serial::to_bytes(agent->log());
  for (std::size_t len = 0; len < log_bytes.size(); ++len) {
    serial::Bytes cut(log_bytes.begin(),
                      log_bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)serial::from_bytes<rollback::RollbackLog>(cut),
                 serial::DecodeError);
  }
}

// ---------------------------------------------------------------------------
// Image-level delta codec (the ship layer's diff and splice)
// ---------------------------------------------------------------------------

/// The sample agent as a delta-shipping base, a successor image with
/// changed, added and removed slots and appended log entries, and the
/// delta between them.
struct ImageTriple {
  serial::Bytes base;
  serial::Bytes cur;
  serial::Bytes delta;
};

ImageTriple sample_image_delta() {
  const auto reg = registry_with_workload();
  ImageTriple t;
  t.base = encoded_sample_agent();
  auto agent = agent::decode_agent(reg, t.base);
  agent->data().weak("cash") = std::int64_t{7};
  agent->data().declare_weak("fresh", serial::Value("slot"));
  agent->data().strong("results").push_back(serial::Value("r"));
  agent->set_last_savepoint_strong(serial::Value(std::int64_t{3}));
  rollback::SavepointEntry sp;
  sp.id = SavepointId(4);
  sp.image = agent->data().strong_image();
  sp.resume_position = {0, 1};
  agent->log().push(sp);
  agent->log().push(rollback::BeginOfStepEntry{TestWorld::n(2), "t"});
  t.cur = agent::encode_agent(*agent);
  t.delta = agent::encode_image_delta(t.base, t.cur).value();
  return t;
}

/// Run every image-codec entry point on (base, cur, delta). Each call must
/// return or throw DecodeError; any other exception escapes and fails the
/// test. Returns how many calls threw.
int image_codec_rejections(const serial::Bytes& base, const serial::Bytes& cur,
                           const serial::Bytes& delta) {
  int rejected = 0;
  const auto attempt = [&rejected](auto&& fn) {
    try {
      fn();
    } catch (const serial::DecodeError&) {
      ++rejected;
    }
  };
  attempt([&] { (void)agent::scan_agent_image(base); });
  attempt([&] { (void)agent::encode_image_delta(base, cur); });
  attempt([&] { (void)agent::apply_image_delta(base, delta); });
  return rejected;
}

TEST(FuzzImageDelta, SampleTripleRoundTrips) {
  const auto t = sample_image_delta();
  EXPECT_EQ(agent::apply_image_delta(t.base, t.delta), t.cur);
  EXPECT_EQ(image_codec_rejections(t.base, t.cur, t.delta), 0);
}

TEST(FuzzImageDelta, EveryTruncationThrowsOrReturns) {
  const auto t = sample_image_delta();
  const auto cut = [](const serial::Bytes& b, std::size_t len) {
    return serial::Bytes(b.begin(), b.begin() + static_cast<long>(len));
  };
  for (std::size_t len = 0; len < t.base.size(); ++len) {
    (void)image_codec_rejections(cut(t.base, len), t.cur, t.delta);
  }
  for (std::size_t len = 0; len < t.cur.size(); ++len) {
    (void)image_codec_rejections(t.base, cut(t.cur, len), t.delta);
  }
  // A delta is fully walked (its log entries are validated), so no strict
  // prefix of one applies.
  for (std::size_t len = 0; len < t.delta.size(); ++len) {
    EXPECT_THROW((void)agent::apply_image_delta(t.base, cut(t.delta, len)),
                 serial::DecodeError)
        << "truncation at " << len;
  }
}

TEST(FuzzImageDelta, RandomByteFlipsNeverCrash) {
  const auto t = sample_image_delta();
  Rng rng(0x1d17a);
  const auto flip = [&rng](serial::Bytes b) {
    for (auto flips = 1 + rng.next_below(4); flips > 0; --flips) {
      b[rng.next_below(b.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    return b;
  };
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    rejected += image_codec_rejections(flip(t.base), t.cur, t.delta);
    rejected += image_codec_rejections(t.base, flip(t.cur), flip(t.delta));
  }
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Mailbox resource
// ---------------------------------------------------------------------------

serial::Value params(
    std::initializer_list<std::pair<std::string, serial::Value>> kv) {
  serial::Value v = serial::Value::empty_map();
  for (auto& [k, val] : kv) v.set(k, val);
  return v;
}

TEST(MailboxTest, PutPeekTakeLifecycle) {
  resource::Mailbox box;
  auto state = box.initial_state();

  auto missing = box.invoke("peek", params({{"key", "a"}}), state);
  EXPECT_EQ(missing.code(), Errc::not_found);

  ASSERT_TRUE(box.invoke("put", params({{"key", "a"}, {"value", 41}}), state)
                  .is_ok());
  auto peeked = box.invoke("peek", params({{"key", "a"}}), state);
  ASSERT_TRUE(peeked.is_ok());
  EXPECT_EQ(peeked.value().at("value").as_int(), 41);

  // Peek does not consume; take does.
  auto taken = box.invoke("take", params({{"key", "a"}}), state);
  ASSERT_TRUE(taken.is_ok());
  EXPECT_EQ(taken.value().at("value").as_int(), 41);
  EXPECT_EQ(box.invoke("take", params({{"key", "a"}}), state).code(),
            Errc::not_found);
}

TEST(MailboxTest, PutOverwritesAndExistsReports) {
  resource::Mailbox box;
  auto state = box.initial_state();
  ASSERT_TRUE(box.invoke("put", params({{"key", "k"}, {"value", 1}}), state)
                  .is_ok());
  ASSERT_TRUE(box.invoke("put", params({{"key", "k"}, {"value", 2}}), state)
                  .is_ok());
  auto v = box.invoke("take", params({{"key", "k"}}), state);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().at("value").as_int(), 2);
  auto exists = box.invoke("exists", params({{"key", "k"}}), state);
  ASSERT_TRUE(exists.is_ok());
  EXPECT_FALSE(exists.value().at("present").as_bool());
}

TEST(MailboxTest, UnknownOpIsRejected) {
  resource::Mailbox box;
  auto state = box.initial_state();
  EXPECT_EQ(box.invoke("drop_all", params({}), state).code(),
            Errc::rejected);
}

TEST(MailboxTest, TakeIsUndoneByTransactionAbort) {
  // Through the transactional ResourceManager: an aborted take leaves the
  // message in place (this is what makes a parked join retry sound).
  TestWorld w(agent::PlatformConfig{}, 1);
  auto& rm = w.platform.node(TestWorld::n(1)).resources();
  auto& txm = w.platform.node(TestWorld::n(1)).txm();

  serial::Value state = rm.committed_state("mailbox");
  state.as_map().at("slots").set("msg", serial::Value(7));
  rm.poke_state("mailbox", std::move(state));

  const TxId tx = txm.begin();
  auto taken = rm.invoke(tx, "mailbox", "take", params({{"key", "msg"}}));
  ASSERT_TRUE(taken.is_ok());
  txm.abort_tx(tx);

  const TxId tx2 = txm.begin();
  auto again = rm.invoke(tx2, "mailbox", "take", params({{"key", "msg"}}));
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().at("value").as_int(), 7);
  txm.abort_tx(tx2);
}

}  // namespace
}  // namespace mar
