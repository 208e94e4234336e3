// Delta-shipping migration subsystem (src/ship/): transfer-channel
// base+delta caching, full-image fallback (cache miss, epoch mismatch,
// unprofitable delta), convoy batching with participant-side sync
// coalescing, and exactly-once + bit-identical reconstruction under
// mid-transfer crashes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
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
// encode_agent_delta_between (unit)
// --------------------------------------------------------------------------

TEST(DeltaBetweenTest, RoundTripsToBitIdenticalImage) {
  TestWorld w;
  register_workload(w.platform);
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

  const auto base = w.platform.decode(base_bytes);
  const auto cur = w.platform.decode(cur_bytes);
  const auto delta = agent::encode_agent_delta_between(*base, *cur);
  ASSERT_TRUE(delta.has_value());
  EXPECT_LT(delta->size(), cur_bytes.size());

  auto rebuilt = w.platform.decode(base_bytes);
  agent::apply_agent_delta(*rebuilt, *delta);
  EXPECT_EQ(agent::encode_agent(*rebuilt), cur_bytes);
}

TEST(DeltaBetweenTest, DivergedLogRefusesDelta) {
  TestWorld w;
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(1, 1);
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "a"});
  const auto base_bytes = agent::encode_agent(*ag);
  // A rollback popped the base's entry and pushed something else: the
  // base log is no longer a prefix.
  (void)ag->log().pop();
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(2), "b"});
  const auto cur_bytes = agent::encode_agent(*ag);
  const auto base = w.platform.decode(base_bytes);
  const auto cur = w.platform.decode(cur_bytes);
  EXPECT_FALSE(agent::encode_agent_delta_between(*base, *cur).has_value());
  // Shorter-than-base logs refuse as well.
  (void)ag->log().pop();
  const auto shorter = w.platform.decode(agent::encode_agent(*ag));
  EXPECT_FALSE(
      agent::encode_agent_delta_between(*base, *shorter).has_value());
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
