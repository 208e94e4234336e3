// Golden control-path test: NodeRuntime's hand-off, terminal-commit and
// rollback paths, pinned byte for byte.
//
// Each scenario runs a small deterministic world and renders what the
// control paths produced: the whole trace stream (kinds, detail text and
// the virtual time of every event), each agent's outcome (state, status
// text, final node, finish time and a content hash of its final image),
// and the fleet's metrics snapshot. The rendering is compared with
// tests/testdata/control_path/<scenario>.golden.
//
// Regenerate the golden files (only when a behaviour change is intended)
// by running this binary with MAR_UPDATE_GOLDEN=1 in the environment.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <set>
#include <sstream>

#include "harness/agents.h"
#include "harness/world.h"
#include "ship/shipment_manager.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using agent::RollbackStrategy;
using agent::StepContext;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

/// Spawns two workload children in its "spawn" step (one launched on this
/// node, one routed away) and, when configured, rolls its sub-itinerary
/// back once in "decide" — which cancels the children it spawned.
class SpawnerAgent final : public agent::Agent {
 public:
  SpawnerAgent() { data().declare_weak("rollback", false); }
  std::string type_name() const override { return "spawner"; }
  void run_step(const std::string& step, StepContext& ctx) override {
    if (step == "spawn") {
      auto away = std::make_unique<WorkloadAgent>();
      Itinerary a;
      a.step("touch_split", TestWorld::n(2)).step("noop", TestWorld::n(3));
      Itinerary amain;
      amain.sub(std::move(a));
      away->itinerary() = std::move(amain);
      ctx.spawn_child(std::move(away), ctx.node(), "r-away");

      auto local = std::make_unique<WorkloadAgent>();
      Itinerary l;
      l.step("touch_split", TestWorld::n(1));
      Itinerary lmain;
      lmain.sub(std::move(l));
      local->itinerary() = std::move(lmain);
      ctx.spawn_child(std::move(local), ctx.node(), "r-local");
      return;
    }
    if (step == "decide" && data().weak("rollback").as_bool() &&
        rollbacks_completed() == 0) {
      ctx.request_rollback_sub_itinerary();
    }
  }
};

/// A heavy strong state (migrating is dear), then a step whose mixed
/// compensation the resource node refuses, then a sub rollback.
class RefusedMixedAgent final : public agent::Agent {
 public:
  RefusedMixedAgent() { data().declare_strong("blob", serial::Bytes{}); }
  std::string type_name() const override { return "refused_mixed"; }
  void run_step(const std::string& step, StepContext& ctx) override {
    if (step == "heavy") {
      data().strong("blob") = serial::Bytes(16 * 1024, std::uint8_t{0x5A});
    } else if (step == "refusable") {
      ctx.log_mixed_compensation("dir", "comp.refuse",
                                 serial::Value::empty_map());
    } else if (step == "rollback") {
      ctx.request_rollback_sub_itinerary();
    }
  }
};

void register_refusal(agent::Platform& platform) {
  platform.agent_types().register_type<RefusedMixedAgent>("refused_mixed");
  platform.compensations().register_op(
      "comp.refuse", [](rollback::CompensationContext&) {
        return Status(Errc::compensation_failed, "refused");
      });
}

std::unique_ptr<SpawnerAgent> spawner(bool rollback) {
  auto agent = std::make_unique<SpawnerAgent>();
  agent->data().weak("rollback") = rollback;
  Itinerary sub;
  sub.step("spawn", TestWorld::n(1)).step("decide", TestWorld::n(2));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  return agent;
}

Itinerary single_sub(std::vector<std::pair<std::string, int>> steps) {
  Itinerary sub;
  for (auto& [method, node] : steps) sub.step(method, TestWorld::n(node));
  Itinerary main;
  main.sub(std::move(sub));
  return main;
}

std::unique_ptr<WorkloadAgent> workload(Itinerary itinerary) {
  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() = std::move(itinerary);
  return agent;
}

/// main( SI_a(first..., vital per arg), SI_b(touch@3, noop@4) ).
Itinerary two_subs(Itinerary a, bool first_vital) {
  Itinerary b;
  b.step("touch_split", TestWorld::n(3)).step("noop", TestWorld::n(4));
  Itinerary main;
  main.sub(std::move(a), first_vital);
  main.sub(std::move(b));
  return main;
}

Itinerary touch_then_noop() {
  Itinerary a;
  a.step("touch_split", TestWorld::n(1)).step("noop", TestWorld::n(2));
  return a;
}

/// An alternatives entry whose option 0 (`failing`) fails permanently in a
/// noop, followed by option 1 (a touch on node 3), then a noop on node 4.
Itinerary alternatives(Itinerary failing) {
  Itinerary fallback;
  fallback.step("touch_split", TestWorld::n(3));
  Itinerary sub;
  sub.alt({std::move(failing), std::move(fallback)});
  sub.step("noop", TestWorld::n(4));
  Itinerary main;
  main.sub(std::move(sub));
  return main;
}

const char* state_name(AgentOutcome::State s) {
  switch (s) {
    case AgentOutcome::State::running: return "running";
    case AgentOutcome::State::done: return "done";
    case AgentOutcome::State::failed: return "failed";
    case AgentOutcome::State::cancelled: return "cancelled";
  }
  return "?";
}

/// Launch the scenario's agents, drive the world until they (and every
/// child they spawned) finished, and render the control-path record.
std::string run_scenario(
    PlatformConfig cfg, int nodes,
    const std::function<std::vector<AgentId>(TestWorld&)>& setup) {
  TestWorld w(cfg, nodes);
  register_workload(w.platform);
  w.platform.agent_types().register_type<SpawnerAgent>("spawner");
  std::vector<AgentId> ids = setup(w);
  std::set<AgentId> seen(ids.begin(), ids.end());
  for (;;) {
    EXPECT_TRUE(w.platform.run_until_all_finished(ids));
    const auto before = ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (const auto child : w.platform.children_of(ids[i])) {
        if (seen.insert(child).second) ids.push_back(child);
      }
    }
    if (ids.size() == before) break;
  }

  // Every final image captures identically after a lazy decode and after
  // an eager one (every log entry built, itinerary re-encoded).
  for (const auto id : ids) {
    const auto& image = w.platform.outcome(id).final_agent;
    if (image.empty()) continue;
    const auto lazy = agent::decode_agent(w.platform.agent_types(), image);
    EXPECT_EQ(agent::encode_agent(*lazy), image) << "agent " << id.value();
    auto eager = agent::decode_agent(w.platform.agent_types(), image);
    (void)eager->log().entries();
    (void)eager->itinerary();
    EXPECT_EQ(agent::encode_agent(*eager), image) << "agent " << id.value();
  }

  std::ostringstream os;
  os << "== trace ==\n";
  w.trace.print(os);
  os << "== agents ==\n";
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    os << "agent " << id.value() << ": state=" << state_name(out.state)
       << " status=" << out.status.to_string()
       << " node=N" << out.final_node.value()
       << " finished_at=" << out.finished_at << " image=" << std::hex
       << std::setw(16) << std::setfill('0')
       << ship::content_hash(out.final_agent) << std::dec
       << std::setfill(' ') << " bytes=" << out.final_agent.size() << "\n";
  }
  os << "== metrics ==\n" << w.platform.metrics_snapshot().to_json() << "\n";
  return os.str();
}

struct Scenario {
  std::string name;
  std::function<std::string()> run;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

PlatformConfig with_strategy(RollbackStrategy s) {
  PlatformConfig cfg;
  cfg.strategy = s;
  return cfg;
}

std::vector<AgentId> launch(TestWorld& w,
                            std::unique_ptr<agent::Agent> agent) {
  auto id = w.platform.launch(std::move(agent));
  EXPECT_TRUE(id.is_ok());
  return {id.value()};
}

/// Withdraw on nodes 1 and 2, touch on 3, then roll the sub back from the
/// noop on node 4: RCE/ACE steps and a directory touch to compensate.
std::string compensated_rollback(RollbackStrategy strategy) {
  return run_scenario(with_strategy(strategy), 4, [](TestWorld& w) {
    w.open_account(1, "acct", 1000);
    w.open_account(2, "acct", 1000);
    auto agent = workload(single_sub(
        {{"withdraw", 1}, {"withdraw", 2}, {"touch_split", 3}, {"noop", 4}}));
    agent->set_trigger("noop", 4, "sub", 0);
    return launch(w, std::move(agent));
  });
}

/// A cancellation that lands mid-itinerary: a complete rollback across
/// three committed directory touches.
std::string cancel_compensated(RollbackStrategy strategy) {
  return run_scenario(with_strategy(strategy), 4, [](TestWorld& w) {
    auto ids = launch(w, workload(single_sub({{"touch_split", 1},
                                              {"touch_split", 2},
                                              {"touch_split", 3},
                                              {"noop", 4}})));
    const auto id = ids.front();
    w.sim.schedule_at(5'000, [&w, id] { w.platform.request_cancel(id); });
    return ids;
  });
}

/// The compensation nodes crash while the rollback is under way.
std::string crash_mid_rollback(RollbackStrategy strategy) {
  return run_scenario(with_strategy(strategy), 4, [](TestWorld& w) {
    w.open_account(1, "acct", 1000);
    w.open_account(2, "acct", 1000);
    auto agent = workload(
        single_sub({{"withdraw", 1}, {"withdraw", 2}, {"noop", 3}}));
    agent->set_trigger("noop", 3, "sub", 0);
    w.faults.crash_at(TestWorld::n(2), 8'000, 400'000);
    w.faults.crash_at(TestWorld::n(1), 20'000, 600'000);
    return launch(w, std::move(agent));
  });
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> s;
  s.push_back({"spawn_launch", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   return launch(w, spawner(false));
                 });
               }});
  s.push_back({"spawn_rollback_cancels_children", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   return launch(w, spawner(true));
                 });
               }});
  s.push_back({"cancel_void", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   Itinerary first;
                   first.step("touch_split", TestWorld::n(1));
                   Itinerary second;
                   second.step("touch_split", TestWorld::n(2))
                       .step("touch_split", TestWorld::n(3));
                   Itinerary main;
                   main.sub(std::move(first));
                   main.sub(std::move(second));
                   auto ids = launch(w, workload(std::move(main)));
                   const auto id = ids.front();
                   w.sim.schedule_at(
                       8'000, [&w, id] { w.platform.request_cancel(id); });
                   return ids;
                 });
               }});
  s.push_back({"cancel_immediate", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto ids = launch(w, workload(single_sub(
                                            {{"touch_split", 1},
                                             {"noop", 2}})));
                   w.platform.request_cancel(ids.front());
                   return ids;
                 });
               }});
  s.push_back({"cancel_compensated_basic",
               [] { return cancel_compensated(RollbackStrategy::basic); }});
  s.push_back({"cancel_compensated_optimized", [] {
                 return cancel_compensated(RollbackStrategy::optimized);
               }});
  s.push_back({"rollback_immediate", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto agent = workload(
                       single_sub({{"noop", 1}, {"touch_split", 2}}));
                   agent->set_trigger("noop", 1, "sub", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"rollback_basic",
               [] { return compensated_rollback(RollbackStrategy::basic); }});
  s.push_back({"rollback_optimized", [] {
                 return compensated_rollback(RollbackStrategy::optimized);
               }});
  s.push_back({"rollback_adaptive_mce", [] {
                 // A heavy strong state and tiny undo parameters: shipping
                 // the mixed steps' entries beats migrating the agent.
                 return run_scenario(
                     with_strategy(RollbackStrategy::adaptive), 5,
                     [](TestWorld& w) {
                       auto agent = workload(single_sub(
                           {{"grow_strong", 1},
                            {"touch_mixed", 2},
                            {"touch_mixed", 3},
                            {"touch_mixed", 4},
                            {"noop", 5}}));
                       agent->set_trigger("noop", 5, "sub", 0);
                       agent->set_config("strong_bytes", 16 * 1024);
                       agent->set_config("weak_bytes", 16);
                       agent->set_config("param_bytes", 16);
                       return launch(w, std::move(agent));
                     });
               }});
  s.push_back({"rollback_optimized_mixed", [] {
                 // A mixed step on node 2 rolled back from node 3: the
                 // agent travels to node 2 and runs its MCE there.
                 return run_scenario(
                     with_strategy(RollbackStrategy::optimized), 3,
                     [](TestWorld& w) {
                       auto agent = workload(single_sub({{"touch_split", 1},
                                                         {"touch_mixed", 2},
                                                         {"noop", 3}}));
                       agent->set_trigger("noop", 3, "sub", 0);
                       return launch(w, std::move(agent));
                     });
               }});
  s.push_back({"rollback_adaptive_migrate", [] {
                 // A heavy weak state: shipping it to the mixed steps'
                 // nodes and back is priced dearer than migrating.
                 return run_scenario(
                     with_strategy(RollbackStrategy::adaptive), 4,
                     [](TestWorld& w) {
                       auto agent = workload(single_sub(
                           {{"grow_weak", 1},
                            {"touch_mixed", 2},
                            {"touch_mixed", 3},
                            {"noop", 4}}));
                       agent->set_trigger("noop", 4, "sub", 0);
                       agent->set_config("weak_bytes", 16 * 1024);
                       agent->set_config("param_bytes", 16);
                       return launch(w, std::move(agent));
                     });
               }});
  s.push_back({"adaptive_mce_nack", [] {
                 // The shipped mixed entry is refused at node 2 on every
                 // attempt until max_compensation_attempts fails the run.
                 PlatformConfig cfg = with_strategy(RollbackStrategy::adaptive);
                 cfg.max_compensation_attempts = 3;
                 return run_scenario(cfg, 3, [](TestWorld& w) {
                   register_refusal(w.platform);
                   auto agent = std::make_unique<RefusedMixedAgent>();
                   Itinerary sub;
                   sub.step("heavy", TestWorld::n(1))
                       .step("refusable", TestWorld::n(2))
                       .step("rollback", TestWorld::n(3));
                   Itinerary main;
                   main.sub(std::move(sub));
                   agent->itinerary() = std::move(main);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"skip_sub", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto agent =
                       workload(two_subs(touch_then_noop(), true));
                   agent->set_trigger("noop", 2, "abandon", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"skip_sub_last", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto agent = workload(
                       single_sub({{"touch_split", 1}, {"noop", 2}}));
                   agent->set_trigger("noop", 2, "abandon", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"skip_sub_immediate", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   Itinerary a;
                   a.step("noop", TestWorld::n(1))
                       .step("touch_split", TestWorld::n(2));
                   auto agent = workload(two_subs(std::move(a), true));
                   agent->set_trigger("noop", 1, "abandon", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"skip_sub_immediate_last", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto agent = workload(single_sub({{"noop", 1}}));
                   agent->set_trigger("noop", 1, "abandon", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"next_alt", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   Itinerary failing;
                   failing.step("touch_split", TestWorld::n(1))
                       .step("noop", TestWorld::n(2));
                   auto agent = workload(alternatives(std::move(failing)));
                   agent->set_trigger("noop", 2, "fail", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"next_alt_immediate", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   Itinerary failing;
                   failing.step("noop", TestWorld::n(2));
                   auto agent = workload(alternatives(std::move(failing)));
                   agent->set_trigger("noop", 1, "fail", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"permanent_failure_vital", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto agent =
                       workload(two_subs(touch_then_noop(), true));
                   agent->set_trigger("noop", 2, "fail", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"permanent_failure_non_vital", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   auto agent =
                       workload(two_subs(touch_then_noop(), false));
                   agent->set_trigger("noop", 2, "fail", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"rollback_target_discarded", [] {
                 return run_scenario({}, 4, [](TestWorld& w) {
                   Itinerary first;
                   first.step("savepoint", TestWorld::n(1));
                   Itinerary second;
                   second.step("noop", TestWorld::n(2));
                   Itinerary main;
                   main.sub(std::move(first)).sub(std::move(second));
                   auto agent = workload(std::move(main));
                   agent->set_trigger("noop", 2, "last_sp", 0);
                   return launch(w, std::move(agent));
                 });
               }});
  s.push_back({"compensation_failed", [] {
                 PlatformConfig cfg;
                 cfg.max_compensation_attempts = 5;
                 return run_scenario(cfg, 4, [](TestWorld& w) {
                   w.open_account(1, "acct", 0, /*overdraft=*/false);
                   auto agent = workload(
                       single_sub({{"deposit", 1}, {"noop", 2}}));
                   agent->data().weak("cash") = std::int64_t{100};
                   agent->set_trigger("noop", 2, "sub", 0);
                   auto ids = launch(w, std::move(agent));
                   // Drain the account once the deposit committed, before
                   // the compensating withdraw can run.
                   w.sim.run_while_pending([&w] {
                     return resource::Bank::balance_in(
                                w.committed(1, "bank"), "acct") == 50;
                   });
                   auto state = w.committed(1, "bank");
                   state.as_map().at("accounts").as_map().at("acct").set(
                       "balance", std::int64_t{0});
                   w.platform.node(TestWorld::n(1)).resources().poke_state(
                       "bank", std::move(state));
                   return ids;
                 });
               }});
  s.push_back({"lock_conflict_retry", [] {
                 // Two slots on node 1: the second withdraw hits the
                 // first one's account lock and restarts.
                 PlatformConfig cfg;
                 cfg.node_concurrency = 2;
                 cfg.resource_op_service_us = 50'000;
                 return run_scenario(cfg, 4, [](TestWorld& w) {
                   w.open_account(1, "acct", 1000);
                   auto a = launch(w, workload(single_sub(
                                          {{"withdraw", 1}, {"noop", 2}})));
                   auto b = launch(w, workload(single_sub(
                                          {{"withdraw", 1}, {"noop", 2}})));
                   a.insert(a.end(), b.begin(), b.end());
                   return a;
                 });
               }});
  s.push_back({"crash_mid_rollback_basic",
               [] { return crash_mid_rollback(RollbackStrategy::basic); }});
  s.push_back({"crash_mid_rollback_optimized", [] {
                 return crash_mid_rollback(RollbackStrategy::optimized);
               }});
  s.push_back({"remote_result_delivery", [] {
                 // Child 2 finishes on node 3, away from its parent's
                 // mailbox on node 1, and delivers its result over
                 // ctr.invoke/ctr.result. The mailbox node is down for the
                 // first attempt, so that RPC times out and is retried.
                 return run_scenario({}, 4, [](TestWorld& w) {
                   w.faults.crash_at(TestWorld::n(1), 7'000, 3'000'000);
                   return launch(w, spawner(false));
                 });
               }});
  s.push_back({"mce_timeout_resource_down", [] {
                 // The resource node of the last mixed step is down when
                 // its MCE shipment leaves: the shipment times out.
                 return run_scenario(
                     with_strategy(RollbackStrategy::adaptive), 5,
                     [](TestWorld& w) {
                       auto agent = workload(single_sub(
                           {{"grow_strong", 1},
                            {"touch_mixed", 2},
                            {"touch_mixed", 3},
                            {"touch_mixed", 4},
                            {"noop", 5}}));
                       agent->set_trigger("noop", 5, "sub", 0);
                       agent->set_config("strong_bytes", 16 * 1024);
                       agent->set_config("weak_bytes", 16);
                       agent->set_config("param_bytes", 16);
                       w.faults.crash_at(TestWorld::n(4), 63'000, 3'000'000);
                       return launch(w, std::move(agent));
                     });
               }});
  s.push_back({"rce_timeout", [] {
                 // The node holding the first shipped RCE list is down
                 // longer than the stage timeout.
                 return run_scenario(
                     with_strategy(RollbackStrategy::optimized), 4,
                     [](TestWorld& w) {
                       w.open_account(1, "acct", 1000);
                       w.open_account(2, "acct", 1000);
                       auto agent = workload(single_sub({{"withdraw", 1},
                                                         {"withdraw", 2},
                                                         {"touch_split", 3},
                                                         {"noop", 4}}));
                       agent->set_trigger("noop", 4, "sub", 0);
                       w.faults.crash_at(TestWorld::n(3), 8'000, 3'000'000);
                       return launch(w, std::move(agent));
                     });
               }});
  s.push_back({"convoy_crash_in_dwell", [] {
                 // Three agents leave node 1 for node 2 together and wait
                 // in a partial convoy (window 4) when node 1 crashes;
                 // after recovery they convoy again with a full dwell.
                 PlatformConfig cfg;
                 cfg.ship_convoy_window = 4;
                 cfg.node_concurrency = 4;
                 return run_scenario(cfg, 3, [](TestWorld& w) {
                   std::vector<AgentId> ids;
                   for (int i = 0; i < 3; ++i) {
                     auto id = launch(w, workload(single_sub(
                                             {{"noop", 1}, {"noop", 2}})));
                     ids.push_back(id.front());
                   }
                   w.faults.crash_at(TestWorld::n(1), 100, 50'000);
                   return ids;
                 });
               }});
  s.push_back({"decision_burst_over_window", [] {
                 // Six transfers ride one convoy; node 2 votes in batches
                 // of the window (2), and all six votes reach node 1 in
                 // the same instant: one same-instant decision flush.
                 PlatformConfig cfg;
                 cfg.ship_convoy_window = 8;
                 cfg.node_concurrency = 6;
                 cfg.group_commit_window = 2;
                 return run_scenario(cfg, 2, [](TestWorld& w) {
                   std::vector<AgentId> ids;
                   for (int i = 0; i < 6; ++i) {
                     auto id = launch(w, workload(single_sub(
                                             {{"noop", 1}, {"noop", 2}})));
                     ids.push_back(id.front());
                   }
                   return ids;
                 });
               }});
  return s;
}

std::string golden_path(const std::string& name) {
  return std::string(MAR_TESTDATA_DIR) + "/control_path/" + name + ".golden";
}

/// First line on which two renderings differ, for a readable failure.
std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "identical";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + "\n  golden: " +
             (more_a ? la : "<end>") + "\n  actual: " + (more_b ? lb : "<end>");
    }
  }
}

class ControlPathGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(ControlPathGolden, MatchesRecordedRun) {
  const auto& scenario = GetParam();
  const std::string got = scenario.run();
  const std::string path = golden_path(scenario.name);
  const char* update = std::getenv("MAR_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_TRUE(want.str() == got)
      << scenario.name << " diverged from " << path << " at "
      << first_difference(want.str(), got);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ControlPathGolden, ::testing::ValuesIn(scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mar
