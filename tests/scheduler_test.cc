// Slotted node scheduler (node_concurrency) and the expt/ parallel
// multi-world driver.
//
// The exactly-once step protocol isolates concurrent queue records through
// transactions and resource locks; these tests pin down what the slotted
// scheduler layers on top: interleaved progress of several agents on one
// node, lock-conflict abort/retry between slots, crash-epoch invalidation
// of in-flight slots with a restartable queue, and determinism of
// seed-replicated worlds run on OS threads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "expt/parallel_worlds.h"
#include "harness/agents.h"
#include "harness/world.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;
using harness::WorkloadAgent;

std::unique_ptr<WorkloadAgent> fleet_agent(const std::string& step,
                                           int steps) {
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < steps; ++s) tour.step(step, TestWorld::n(1));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  return ag;
}

struct FleetRun {
  bool all_done = false;
  sim::TimeUs makespan_us = 0;
  std::uint64_t lock_conflicts = 0;
  std::uint64_t step_aborts = 0;
  bool interleaved = false;  ///< some step of agent 2 began before agent 1
                             ///< finished (and vice versa)
  std::uint64_t admissions = 0;        ///< queue.admissions
  std::uint64_t records_examined = 0;  ///< queue.records_examined
};

FleetRun run_fleet(std::uint32_t concurrency, const std::string& step,
                   int agents, int steps, std::uint64_t seed = 7) {
  agent::PlatformConfig cfg;
  cfg.node_concurrency = concurrency;
  // These tests pin exact serialized makespans and use whole-instance
  // lock conflicts as the contention signal, so they lock per instance
  // and sync every commit (window 1); per-key locking and group-commit
  // batching have their own suites (keylock_test, ship_test).
  cfg.lock_granularity = resource::LockGranularity::instance;
  cfg.group_commit_window = 1;
  TestWorld w(cfg, /*node_count=*/1, seed);
  harness::register_workload(w.platform);
  w.publish(1, "info", serial::Value("x"));

  std::vector<AgentId> ids;
  for (int a = 0; a < agents; ++a) {
    auto r = w.platform.launch(fleet_agent(step, steps));
    EXPECT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }

  FleetRun run;
  if (!w.platform.run_until_all_finished(ids)) return run;
  run.all_done = true;
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    run.all_done = run.all_done && out.state == AgentOutcome::State::done;
    run.makespan_us = std::max(run.makespan_us, out.finished_at);
    if (out.state == AgentOutcome::State::done) {
      auto fin = w.platform.decode(out.final_agent);
      EXPECT_EQ(fin->data().weak("visits").as_int(), steps)
          << "agent " << id.value() << " ran a step more or less than once";
    }
  }
  run.lock_conflicts = w.platform.lock_conflict_aborts();
  run.step_aborts = w.trace.count(TraceKind::step_abort);
  const auto snap = w.platform.metrics_snapshot();
  run.admissions = snap.scalars.at("queue.admissions");
  run.records_examined = snap.scalars.at("queue.records_examined");

  // Interleaving evidence: between two step_begin events of one agent,
  // another agent's step_begin appears.
  if (ids.size() >= 2) {
    const auto begins = w.trace.of_kind(TraceKind::step_begin);
    auto agent_of = [](const TraceEvent& e) {
      return e.detail.substr(e.detail.rfind(' ') + 1);
    };
    for (std::size_t i = 0; i + 2 < begins.size() && !run.interleaved; ++i) {
      run.interleaved = agent_of(begins[i]) != agent_of(begins[i + 1]) &&
                        agent_of(begins[i]) == agent_of(begins[i + 2]);
    }
  }
  return run;
}

TEST(SchedulerTest, SingleSlotSerializesLikeTheClassicRuntime) {
  const auto run = run_fleet(1, "work", 2, 6);
  ASSERT_TRUE(run.all_done);
  EXPECT_EQ(run.lock_conflicts, 0u);
  EXPECT_EQ(run.step_aborts, 0u);
  // One slot, FIFO queue: 2 agents x 6 steps x 200us service, serialized.
  EXPECT_EQ(run.makespan_us, 2u * 6u * 200u);
}

TEST(SchedulerTest, TwoAgentsInterleaveOnOneNode) {
  const auto serial = run_fleet(1, "work", 2, 6);
  const auto slotted = run_fleet(2, "work", 2, 6);
  ASSERT_TRUE(serial.all_done);
  ASSERT_TRUE(slotted.all_done);
  EXPECT_TRUE(slotted.interleaved);
  // Two slots overlap the two agents' service times fully.
  EXPECT_LT(slotted.makespan_us, serial.makespan_us);
  EXPECT_EQ(slotted.makespan_us, 6u * 200u);
  EXPECT_EQ(slotted.lock_conflicts, 0u);
}

TEST(SchedulerTest, ExtraSlotsBeyondFleetDoNotChangeAnything) {
  const auto two = run_fleet(2, "work", 2, 6);
  const auto eight = run_fleet(8, "work", 2, 6);
  ASSERT_TRUE(two.all_done);
  ASSERT_TRUE(eight.all_done);
  EXPECT_EQ(two.makespan_us, eight.makespan_us);
}

TEST(SchedulerTest, LockConflictAbortsAndRetries) {
  // Every "collect" step locks the node's one directory instance, so two
  // slots must conflict; the loser aborts, backs off, retries, and both
  // agents still complete with every step executed exactly once.
  const auto run = run_fleet(2, "collect", 2, 4);
  ASSERT_TRUE(run.all_done);
  EXPECT_GT(run.lock_conflicts, 0u);
  EXPECT_GT(run.step_aborts, 0u);

  // Serial execution of the same fleet never conflicts.
  const auto serial = run_fleet(1, "collect", 2, 4);
  ASSERT_TRUE(serial.all_done);
  EXPECT_EQ(serial.lock_conflicts, 0u);
}

TEST(SchedulerTest, CrashDuringInFlightSlotsLeavesQueueRestartable) {
  // Two agents mid-flight in two slots when the node crashes: the epoch
  // bump invalidates both slots, their records stay queued, and recovery
  // re-runs them — no step lost, none duplicated.
  agent::PlatformConfig cfg;
  cfg.node_concurrency = 2;
  TestWorld w(cfg, /*node_count=*/1, 7);
  harness::register_workload(w.platform);
  w.open_account(1, "acct", 10'000);

  std::vector<AgentId> ids;
  for (int a = 0; a < 2; ++a) {
    auto r = w.platform.launch(fleet_agent("withdraw", 3));
    ASSERT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }
  // Both slots are busy from t=0 (one executing, one conflicting/backing
  // off); crash in the middle of the first service interval and again
  // later to also hit a retry window.
  w.faults.crash_at(TestWorld::n(1), /*at=*/100, /*downtime=*/10'000);
  w.faults.crash_at(TestWorld::n(1), /*at=*/60'000, /*downtime=*/10'000);

  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  std::int64_t total_cash = 0;
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    ASSERT_EQ(out.state, AgentOutcome::State::done);
    auto fin = w.platform.decode(out.final_agent);
    EXPECT_EQ(fin->data().weak("visits").as_int(), 3);
    EXPECT_EQ(fin->data().weak("cash").as_int(), 300);
    total_cash += fin->data().weak("cash").as_int();
  }
  // Exactly-once despite crash + conflicts: the committed balance matches
  // the cash the agents carried away, to the cent.
  const auto& bank = w.committed(1, "bank");
  EXPECT_EQ(bank.at("accounts").at("acct").at("balance").as_int(),
            10'000 - total_cash);
  EXPECT_GE(w.trace.count(TraceKind::crash), 1u);
}

TEST(SchedulerTest, ConcurrencyOneReproducesSeedShapes) {
  // node_concurrency = 1 must be indistinguishable from the classic
  // one-record-at-a-time runtime: same seed -> same timings.
  const auto a = run_fleet(1, "collect", 3, 4, /*seed=*/11);
  const auto b = run_fleet(1, "collect", 3, 4, /*seed=*/11);
  ASSERT_TRUE(a.all_done);
  ASSERT_TRUE(b.all_done);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.step_aborts, b.step_aborts);
}

TEST(SchedulerTest, AdmissionScanLengthIndependentOfFleetSize) {
  // Scale gate as an exact work count: admitting a record visits a small
  // constant number of queue records whether 256 or 4096 agents wait in
  // the queue (only the records claimed by the 4 slots precede the pick).
  auto scan_length = [](int agents) {
    const auto run = run_fleet(4, "work", agents, 4);
    EXPECT_TRUE(run.all_done);
    EXPECT_EQ(run.lock_conflicts, 0u);
    EXPECT_GE(run.admissions, static_cast<std::uint64_t>(agents) * 4u);
    return static_cast<double>(run.records_examined) /
           static_cast<double>(run.admissions);
  };
  const double small = scan_length(256);
  const double large = scan_length(4096);
  EXPECT_LE(small, 8.0);
  EXPECT_LE(large, 8.0);
  EXPECT_LE(large, small) << "records examined per admission grew with F";
}

TEST(ParallelWorldsTest, ReplicateSeedsAreDistinct) {
  const auto seeds = expt::replicate_seeds(7, 64);
  ASSERT_EQ(seeds.size(), 64u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
}

TEST(ParallelWorldsTest, SeedReplicatedWorldsAreReproducibleAcrossThreads) {
  // >= 8 worlds, each a full slotted-fleet simulation, run via the
  // parallel driver with different thread counts and sequentially: the
  // per-seed metrics must be bit-identical regardless of scheduling.
  const auto seeds = expt::replicate_seeds(42, 8);
  auto job = [&seeds](std::size_t i) {
    const auto run = run_fleet(4, "collect", 4, 3, seeds[i]);
    EXPECT_TRUE(run.all_done);
    return std::pair<sim::TimeUs, std::uint64_t>(run.makespan_us,
                                                 run.step_aborts);
  };
  const auto parallel_a = expt::run_worlds(seeds.size(), job, 8);
  const auto parallel_b = expt::run_worlds(seeds.size(), job, 3);
  const auto sequential = expt::run_worlds(seeds.size(), job, 1);
  EXPECT_EQ(parallel_a, sequential);
  EXPECT_EQ(parallel_b, sequential);
}

}  // namespace
}  // namespace mar
