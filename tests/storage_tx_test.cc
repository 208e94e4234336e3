// Unit tests for stable storage, queue staging, and the distributed
// transaction manager (1PC fast path, 2PC, presumed abort, recovery).
#include <gtest/gtest.h>

#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"
#include "tx/tx_manager.h"
#include "util/rng.h"
#include "util/trace.h"

namespace mar {
namespace {

using storage::QueueRecord;
using storage::RecordKind;
using storage::StableStorage;

QueueRecord record(std::uint64_t id, std::uint64_t agent = 1) {
  QueueRecord r;
  r.record_id = id;
  r.agent = AgentId(agent);
  r.kind = RecordKind::execute;
  r.payload = {1, 2, 3};
  return r;
}

TEST(StableStorageTest, KvBasics) {
  StableStorage s;
  EXPECT_FALSE(s.get("k").has_value());
  s.put("k", {1, 2});
  ASSERT_TRUE(s.get("k").has_value());
  EXPECT_EQ(s.get("k")->size(), 2u);
  EXPECT_TRUE(s.contains("k"));
  EXPECT_TRUE(s.erase("k"));
  EXPECT_FALSE(s.erase("k"));
}

TEST(StableStorageTest, PrefixScan) {
  StableStorage s;
  s.put("a:1", {});
  s.put("a:2", {});
  s.put("b:1", {});
  EXPECT_EQ(s.keys_with_prefix("a:").size(), 2u);
  EXPECT_EQ(s.keys_with_prefix("b:").size(), 1u);
  EXPECT_TRUE(s.keys_with_prefix("c:").empty());
}

TEST(StableStorageTest, QueueFifoAndRemove) {
  StableStorage s;
  s.enqueue(record(1));
  s.enqueue(record(2));
  ASSERT_NE(s.front(), nullptr);
  EXPECT_EQ(s.front()->record_id, 1u);
  EXPECT_TRUE(s.remove(1));
  EXPECT_EQ(s.front()->record_id, 2u);
  EXPECT_FALSE(s.remove(1));
}

TEST(StableStorageTest, DuplicateEnqueueIgnoredEvenAfterRemoval) {
  // Exactly-once: a duplicate commit of the same transfer must not
  // resurrect a consumed record.
  StableStorage s;
  s.enqueue(record(7));
  EXPECT_TRUE(s.remove(7));
  s.enqueue(record(7));
  EXPECT_TRUE(s.queue_empty());
}

TEST(StableStorageTest, MetersBytesWritten) {
  StableStorage s;
  const auto before = s.stats().bytes_written;
  s.put("key", serial::Bytes(100));
  s.enqueue(record(1));
  EXPECT_GT(s.stats().bytes_written, before + 100);
  EXPECT_EQ(s.stats().kv_writes, 1u);
  EXPECT_EQ(s.stats().queue_ops, 1u);
}

TEST(QueueRecordTest, SerializationRoundTrip) {
  QueueRecord r;
  r.record_id = 42;
  r.agent = AgentId(9);
  r.kind = RecordKind::compensate;
  r.rollback_target = SavepointId(3);
  r.payload = {9, 9, 9};
  serial::Encoder enc;
  r.serialize(enc);
  serial::Decoder dec(enc.buffer());
  QueueRecord back;
  back.deserialize(dec);
  EXPECT_EQ(back.record_id, 42u);
  EXPECT_EQ(back.agent, AgentId(9));
  EXPECT_EQ(back.kind, RecordKind::compensate);
  EXPECT_EQ(back.rollback_target, SavepointId(3));
  EXPECT_EQ(back.payload, serial::Bytes({9, 9, 9}));
}

// --------------------------------------------------------------------------
// QueueManager as a participant
// --------------------------------------------------------------------------

TEST(StableStorageTest, RecordAreaBasics) {
  StableStorage s;
  EXPECT_FALSE(s.has_record("agent:1"));
  EXPECT_EQ(s.record_segment_count("agent:1"), 0u);
  s.record_reset("agent:1", {1, 2, 3});
  s.record_append("agent:1", {4});
  s.record_append("agent:1", {5, 6});
  ASSERT_TRUE(s.has_record("agent:1"));
  const auto* segs = s.record_segments("agent:1");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 3u);
  EXPECT_EQ((*segs)[0], (serial::Bytes{1, 2, 3}));
  EXPECT_EQ((*segs)[2], (serial::Bytes{5, 6}));
  // Compaction: reset folds the chain back to one base segment.
  s.record_reset("agent:1", {9});
  EXPECT_EQ(s.record_segment_count("agent:1"), 1u);
  EXPECT_TRUE(s.record_erase("agent:1"));
  EXPECT_FALSE(s.record_erase("agent:1"));
  EXPECT_EQ(s.record_segments("agent:1"), nullptr);
}

TEST(StableStorageTest, RecordAreaMetersAppendsNotRewrites) {
  StableStorage s;
  s.record_reset("k", serial::Bytes(1000, 0xAA));
  const auto after_base = s.stats().bytes_written;
  s.record_append("k", serial::Bytes(10, 0xBB));
  // The append is metered at delta size, not record size: exactly one log
  // frame, crc32 (4) | len (4) | op (1) | key_len (4) | key | data.
  constexpr std::size_t kFrameHeader = 4 + 4;
  constexpr std::size_t kPayloadHeader = 1 + 4;
  EXPECT_EQ(s.stats().bytes_written,
            after_base + kFrameHeader + kPayloadHeader + 1 + 10);
  EXPECT_EQ(s.stats().record_resets, 1u);
  EXPECT_EQ(s.stats().record_appends, 1u);
}

TEST(StableStorageTest, ForEachWithPrefixVisitsInOrder) {
  StableStorage s;
  s.put("a:2", {2});
  s.put("a:1", {1});
  s.put("b:1", {3});
  std::vector<std::string> seen;
  s.for_each_with_prefix("a:", [&seen](const std::string& key,
                                       const serial::Bytes& bytes) {
    seen.push_back(key + "=" + std::to_string(bytes[0]));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a:1=1");
  EXPECT_EQ(seen[1], "a:2=2");
}

TEST(QueueManagerTest, FifoOfferWhileNothingAborts) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1, 1));
  s.enqueue(record(2, 2));
  std::unordered_set<AgentId> busy;
  // Classic behaviour: first unclaimed, non-busy record in queue order.
  ASSERT_NE(qm.next_eligible(busy), nullptr);
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 1u);
  ASSERT_TRUE(qm.claim(1));
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 2u);
  busy.insert(AgentId(2));
  EXPECT_EQ(qm.next_eligible(busy), nullptr);
}

TEST(QueueManagerTest, AgedAdmissionUnpinsAbortedHeadWithoutStarvingIt) {
  // A repeatedly conflict-aborted record must not pin the queue head:
  // records behind it are admitted first, and every bypass ages the
  // passed-over record back towards admission (bounded bypassing).
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1, 1));
  s.enqueue(record(2, 2));
  s.enqueue(record(3, 3));
  std::unordered_set<AgentId> busy;

  // Record 1 is claimed and aborted twice (released while still queued).
  ASSERT_EQ(qm.next_eligible(busy)->record_id, 1u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(qm.claim(1));
    qm.release(1);
  }
  // The aged score now admits the fresher records ahead of the head...
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 2u);
  ASSERT_TRUE(qm.claim(2));
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 3u);
  ASSERT_TRUE(qm.claim(3));
  // ...and with everything else claimed, the aborted head is re-offered.
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 1u);
  qm.release(2);
  qm.release(3);
  // Each bypass aged record 1 (2 releases − 2 bypasses = 0), while 2 and
  // 3 were each released once: the aged head is back in front — bounded
  // bypassing, no starvation.
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 1u);

  // Terminal release (after the record was consumed) must not count.
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  qm.release(1);  // release_slot on the commit path: record already gone
  EXPECT_EQ(qm.next_eligible(busy)->record_id, 2u);
}

/// Differential oracle for aged admission: the original two-map rule.
/// Separate release and bypass counts per record, a full queue scan that
/// collects every eligible record, the first minimum of releases −
/// bypasses wins, and every eligible record ahead of it gains a bypass.
/// QueueManager restates this as one score with an early exit; both must
/// admit the same record every time.
struct ReferenceAdmission {
  std::unordered_map<std::uint64_t, std::uint32_t> releases;
  std::unordered_map<std::uint64_t, std::uint32_t> bypasses;
  std::uint64_t overtakes = 0;  ///< admissions that passed a record over

  const QueueRecord* next_eligible(const StableStorage& s,
                                   const std::unordered_set<AgentId>& busy) {
    std::vector<const QueueRecord*> eligible;
    for (const auto& r : s.queue()) {
      if (s.claimed(r.record_id)) continue;
      if (busy.contains(r.agent)) continue;
      eligible.push_back(&r);
    }
    if (eligible.empty()) return nullptr;
    auto score_of = [this](std::uint64_t id) {
      const auto rit = releases.find(id);
      const auto bit = bypasses.find(id);
      return static_cast<std::int64_t>(rit == releases.end() ? 0
                                                             : rit->second) -
             static_cast<std::int64_t>(bit == bypasses.end() ? 0
                                                             : bit->second);
    };
    const QueueRecord* best = eligible.front();
    std::int64_t best_score = score_of(best->record_id);
    for (std::size_t i = 1; i < eligible.size(); ++i) {
      const auto score = score_of(eligible[i]->record_id);
      if (score < best_score) {
        best = eligible[i];
        best_score = score;
      }
    }
    if (best != eligible.front()) ++overtakes;
    for (const auto* r : eligible) {
      if (r == best) break;
      ++bypasses[r->record_id];
    }
    return best;
  }
  void release(const StableStorage& s, std::uint64_t id) {
    if (s.contains_record(id)) ++releases[id];
  }
  void consumed(std::uint64_t id) {
    releases.erase(id);
    bypasses.erase(id);
  }
  void crash() {
    releases.clear();
    bypasses.clear();
  }
};

TEST(QueueManagerTest, EarlyExitAdmissionMatchesFullScanReference) {
  // Seeded random schedules of enqueue, admission + claim, release after
  // abort, commit (remove + terminal release), busy-agent sets and
  // crashes. The QueueManager and the reference share one storage (queue
  // and claims) and keep their own aging state; every admission must
  // name the same record.
  constexpr int kSeeds = 3000;
  constexpr int kOps = 120;
  std::uint64_t admissions = 0;
  std::uint64_t overtakes = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    StableStorage s;
    tx::QueueManager qm(s);
    ReferenceAdmission ref;
    std::uint64_t next_id = 1;
    std::uint64_t next_tx = 1;
    const auto agents = 2 + rng.next_below(10);
    std::vector<std::uint64_t> claimed;
    std::unordered_set<AgentId> busy;
    auto admit = [&] {
      const auto* expected = ref.next_eligible(s, busy);
      const auto* got = qm.next_eligible(busy);
      ASSERT_EQ(expected == nullptr, got == nullptr) << "seed " << seed;
      if (got == nullptr) return;
      ASSERT_EQ(got->record_id, expected->record_id) << "seed " << seed;
      ++admissions;
      if (rng.next_bool(0.8)) {
        ASSERT_TRUE(qm.claim(got->record_id));
        claimed.push_back(got->record_id);
      }
    };
    for (int op = 0; op < kOps; ++op) {
      const auto roll = rng.next_below(100);
      if (roll < 25) {
        s.enqueue(record(next_id++, 1 + rng.next_below(agents)));
      } else if (roll < 55) {
        admit();
        if (testing::Test::HasFatalFailure()) return;
      } else if (roll < 75 && !claimed.empty()) {
        // Abort: the claim is released while the record stays queued.
        const auto i = rng.next_below(claimed.size());
        const auto id = claimed[i];
        claimed.erase(claimed.begin() + static_cast<std::ptrdiff_t>(i));
        ref.release(s, id);
        qm.release(id);
      } else if (roll < 85 && !s.queue_empty()) {
        // Commit consumes a record (claimed or not), then the terminal
        // release of its slot must not count towards aging.
        auto it = s.queue().begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(s.queue().size())));
        const auto id = it->record_id;
        const TxId tx(next_tx++);
        qm.stage_remove(tx, id);
        ASSERT_TRUE(qm.prepare(tx));
        qm.commit(tx);
        ref.consumed(id);
        ref.release(s, id);
        qm.release(id);
        std::erase(claimed, id);
      } else if (roll < 97) {
        busy.clear();
        for (std::uint64_t a = 1; a <= agents; ++a) {
          if (rng.next_bool(0.2)) busy.insert(AgentId(a));
        }
      } else {
        qm.on_crash();
        s.clear_claims();
        ref.crash();
        claimed.clear();
      }
    }
    overtakes += ref.overtakes;
  }
  // The schedules must actually exercise aging, not only the FIFO offer.
  EXPECT_GT(admissions, 60'000u);
  EXPECT_GT(overtakes, 10'000u);
}

TEST(QueueManagerTest, CommitAppliesStagedOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1));
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  qm.stage_enqueue(tx, record(2));
  EXPECT_TRUE(qm.has_tx(tx));
  // Nothing applied until commit.
  EXPECT_EQ(s.front()->record_id, 1u);
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  ASSERT_NE(s.front(), nullptr);
  EXPECT_EQ(s.front()->record_id, 2u);
  EXPECT_FALSE(qm.has_tx(tx));
}

TEST(QueueManagerTest, AbortDiscardsStagedOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1));
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  qm.abort(tx);
  EXPECT_EQ(s.front()->record_id, 1u);
}

TEST(QueueManagerTest, PreparedStateSurvivesCrash) {
  StableStorage s;
  tx::QueueManager qm(s);
  const TxId prepared_tx(1);
  const TxId volatile_tx(2);
  qm.stage_enqueue(prepared_tx, record(10));
  qm.stage_enqueue(volatile_tx, record(20));
  EXPECT_TRUE(qm.prepare(prepared_tx));
  qm.on_crash();  // volatile staging evaporates, prepared reloads
  EXPECT_TRUE(qm.has_tx(prepared_tx));
  EXPECT_FALSE(qm.has_tx(volatile_tx));
  qm.commit(prepared_tx);
  ASSERT_NE(s.front(), nullptr);
  EXPECT_EQ(s.front()->record_id, 10u);
}

TEST(QueueManagerTest, RecordOpsGroupCommitWithQueueOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1));
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  qm.stage_enqueue(tx, record(2));
  qm.stage_record_reset(tx, "agentimg:1", {1, 2});
  qm.stage_record_append(tx, "agentimg:1", {3});
  // Nothing visible before commit.
  EXPECT_FALSE(s.has_record("agentimg:1"));
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  ASSERT_EQ(s.record_segment_count("agentimg:1"), 2u);
  EXPECT_EQ((*s.record_segments("agentimg:1"))[1], (serial::Bytes{3}));
  EXPECT_EQ(s.front()->record_id, 2u);
}

TEST(QueueManagerTest, AbortDiscardsRecordOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.record_reset("agentimg:1", {1});
  const TxId tx(100);
  qm.stage_record_append(tx, "agentimg:1", {2});
  qm.stage_record_erase(tx, "agentimg:1");
  qm.abort(tx);
  EXPECT_EQ(s.record_segment_count("agentimg:1"), 1u);
}

TEST(QueueManagerTest, PreparedRecordOpsSurviveCrash) {
  StableStorage s;
  tx::QueueManager qm(s);
  const TxId tx(7);
  qm.stage_record_reset(tx, "agentimg:9", {1, 2, 3});
  qm.stage_record_append(tx, "agentimg:9", {4});
  EXPECT_TRUE(qm.prepare(tx));
  qm.on_crash();  // reloads the prepared staging, record ops included
  EXPECT_TRUE(qm.has_tx(tx));
  qm.commit(tx);
  ASSERT_EQ(s.record_segment_count("agentimg:9"), 2u);
  EXPECT_EQ((*s.record_segments("agentimg:9"))[0], (serial::Bytes{1, 2, 3}));
}

TEST(QueueManagerTest, CommitIsIdempotent) {
  StableStorage s;
  tx::QueueManager qm(s);
  const TxId tx(1);
  qm.stage_enqueue(tx, record(10));
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  qm.commit(tx);  // duplicate decision delivery
  EXPECT_EQ(s.queue().size(), 1u);
}

// --------------------------------------------------------------------------
// TxManager: 2PC
// --------------------------------------------------------------------------

struct TxWorld {
  sim::Simulator sim;
  TraceSink trace;
  net::Network net{sim, trace};
  struct Node {
    StableStorage storage;
    std::unique_ptr<tx::QueueManager> qm;
    std::unique_ptr<tx::TxManager> txm;
  };
  std::map<NodeId, Node> nodes;

  explicit TxWorld(int n) {
    for (int i = 1; i <= n; ++i) {
      const NodeId id(static_cast<std::uint32_t>(i));
      auto& node = nodes[id];
      node.qm = std::make_unique<tx::QueueManager>(node.storage);
      node.txm = std::make_unique<tx::TxManager>(id, sim, net, node.storage);
      node.txm->register_participant(*node.qm);
      net.add_node(id, [this, id](const net::Message& m) {
        nodes.at(id).txm->on_message(m);
      });
      net.subscribe_node_state([this, id](NodeId n2, bool up) {
        if (n2 != id) return;
        if (up) {
          nodes.at(id).txm->on_recover();
        } else {
          nodes.at(id).txm->on_crash();
        }
      });
    }
  }
  Node& n(int i) { return nodes.at(NodeId(static_cast<std::uint32_t>(i))); }
};

TEST(TxManagerTest, TxIdEncodesCoordinator) {
  const TxId tx = tx::make_tx_id(NodeId(7), 123);
  EXPECT_EQ(tx::coordinator_of(tx), NodeId(7));
}

TEST(TxManagerTest, LocalOnlyCommit) {
  TxWorld w(1);
  auto& n1 = w.n(1);
  const TxId tx = n1.txm->begin();
  n1.qm->stage_enqueue(tx, record(1));
  bool committed = false;
  n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
  w.sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(n1.storage.queue().size(), 1u);
  EXPECT_TRUE(n1.txm->idle());
}

TEST(TxManagerTest, DistributedCommitAppliesOnBothNodes) {
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n1.qm->stage_remove(tx, 99);  // no-op remove, still stages
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  bool committed = false;
  n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
  w.sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(n2.storage.queue().size(), 1u);
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, AbortDiscardsRemoteStaging) {
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->abort_tx(tx);
  w.sim.run();
  EXPECT_TRUE(n2.storage.queue_empty());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, ParticipantVotesNoWhenStagingLost) {
  // Participant crashed after staging but before prepare: its volatile
  // staging is gone, so it must vote NO and the commit must fail.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  // Crash + instant recovery wipes volatile staging.
  w.net.crash_node(NodeId(2));
  w.net.recover_node(NodeId(2));
  bool done = false;
  bool committed = true;
  n1.txm->commit_async(tx, [&](bool ok) {
    done = true;
    committed = ok;
  });
  w.sim.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(committed);
  EXPECT_TRUE(n2.storage.queue_empty());
}

TEST(TxManagerTest, CommitSurvivesParticipantCrashAfterPrepare) {
  // Once prepared, the participant must apply the decision after recovery
  // (coordinator re-drives COMMIT).
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));

  bool committed = false;
  n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
  // Let PREPARE/VOTE happen, then crash N2 just as COMMIT is in flight.
  w.sim.schedule_at(1'500, [&] { w.net.crash_node(NodeId(2)); });
  w.sim.schedule_at(400'000, [&] { w.net.recover_node(NodeId(2)); });
  w.sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(n2.storage.queue().size(), 1u);
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, PresumedAbortAfterCoordinatorCrash) {
  // Coordinator crashes before deciding: the prepared participant must
  // learn ABORT through its inquiry (presumed abort).
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->commit_async(tx, [](bool) {});
  // Crash the coordinator while votes are in flight; recover later.
  w.sim.schedule_at(700, [&] { w.net.crash_node(NodeId(1)); });
  w.sim.schedule_at(600'000, [&] { w.net.recover_node(NodeId(1)); });
  w.sim.run();
  EXPECT_TRUE(n2.storage.queue_empty());  // aborted, nothing applied
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, CoordinatorCrashBetweenDecideAndFlush) {
  // Pipelined coordinator: all votes are in and the decision sits in the
  // decision queue awaiting its batched durability flush. A crash before
  // the flush persisted nothing — no txdec: record exists — so the
  // prepared participant's inquiry must resolve to presumed abort and
  // both sides converge with nothing applied.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  n1.txm->set_group_commit(8, 50'000);  // long dwell: decision stays queued
  n2.txm->set_group_commit(1, 0);       // participant votes immediately
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->commit_async(tx, [](bool) {});
  // The vote is back ~2 round trips in; the decision then dwells in the
  // queue until the 50 ms flush timer. Crash the coordinator inside that
  // window, long before the flush.
  w.sim.schedule_at(10'000, [&] { w.net.crash_node(NodeId(1)); });
  w.sim.schedule_at(600'000, [&] { w.net.recover_node(NodeId(1)); });
  w.sim.run();
  EXPECT_TRUE(n1.storage.keys_with_prefix("txdec:").empty());
  EXPECT_TRUE(n2.storage.queue_empty());  // presumed abort discarded staging
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, DecisionQueueSharesOneCoordinatorSync) {
  // Four distributed commits decided in one same-instant burst flush
  // under ONE coordinator sync, with the inflight gauge peaking at 4.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  n1.txm->set_group_commit(4, 1'000);
  n2.txm->set_group_commit(4, 100);
  int committed = 0;
  for (int i = 0; i < 4; ++i) {
    const TxId tx = n1.txm->begin();
    n2.qm->stage_enqueue(tx, record(1 + i));
    n2.txm->note_remote_staged(tx);
    n1.txm->enlist_remote(tx, NodeId(2));
    n1.txm->commit_async(tx, [&](bool ok) { committed += ok ? 1 : 0; });
  }
  w.sim.run();
  EXPECT_EQ(committed, 4);
  EXPECT_EQ(n2.storage.queue().size(), 4u);
  EXPECT_EQ(n1.txm->stats().coordinator_syncs.load(), 1u);
  EXPECT_EQ(n1.txm->stats().pipeline_depth_max.load(), 4u);
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, GroupFlushCallbackMayStartTheNextCommit) {
  // A completion callback delivered from the batched local flush
  // immediately begins and commits the next transaction — re-entering
  // the manager from inside its own flush loop must be safe.
  TxWorld w(1);
  auto& n1 = w.n(1);
  n1.txm->set_group_commit(2, 100);
  int committed = 0;
  const TxId t1 = n1.txm->begin();
  n1.qm->stage_enqueue(t1, record(1));
  n1.txm->commit_async(t1, [&](bool ok) {
    committed += ok ? 1 : 0;
    const TxId t3 = n1.txm->begin();
    n1.qm->stage_enqueue(t3, record(3));
    n1.txm->commit_async(t3, [&](bool ok2) { committed += ok2 ? 1 : 0; });
  });
  const TxId t2 = n1.txm->begin();
  n1.qm->stage_enqueue(t2, record(2));
  n1.txm->commit_async(t2, [&](bool ok) { committed += ok ? 1 : 0; });
  w.sim.run();
  EXPECT_EQ(committed, 3);
  EXPECT_EQ(n1.storage.queue().size(), 3u);
  EXPECT_TRUE(n1.txm->idle());
}

TEST(TxManagerTest, DecisionRecordRedrivenAfterCoordinatorCrash) {
  // Coordinator crashes right after persisting the commit decision: on
  // recovery it must re-drive COMMIT from the decision record.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->commit_async(tx, [](bool) {});
  // Prepare round trip takes ~2 * (latency + ack); crash shortly after the
  // decision should have been persisted but before acks return.
  w.sim.schedule_at(2'100, [&] { w.net.crash_node(NodeId(1)); });
  w.sim.schedule_at(500'000, [&] { w.net.recover_node(NodeId(1)); });
  w.sim.run();
  // Whatever the exact crash interleaving, the protocol must converge with
  // both sides idle and consistent: either both applied or neither.
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
  if (n1.storage.keys_with_prefix("txdec:").empty() &&
      !n2.storage.queue_empty()) {
    SUCCEED();  // committed everywhere
  } else {
    EXPECT_TRUE(n2.storage.queue_empty());  // aborted everywhere
  }
}

}  // namespace
}  // namespace mar
