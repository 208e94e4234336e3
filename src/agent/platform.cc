#include "agent/platform.h"

#include "agent/node_runtime.h"
#include "util/check.h"

namespace mar::agent {

Platform::Platform(sim::Simulator& sim, net::Network& net, TraceSink& trace,
                   PlatformConfig config, std::uint64_t seed)
    : sim_(sim), net_(net), trace_(trace), config_(config), rng_(seed) {
  spans_.set_enabled(config_.span_tracing);
  spans_.set_capacity(config_.flight_recorder_spans);
  net_.subscribe_node_state([this](NodeId id, bool up) {
    auto it = nodes_.find(id);
    if (it != nodes_.end()) it->second->on_node_state(up);
  });
  // System compensating operation behind spawn entries (multi-agent
  // executions, Sec. 6): rolling back a step that spawned a child cancels
  // that child — or, if it already finished, re-injects it as a
  // compensating execution of its own committed steps.
  comp_registry_.register_op(
      "sys.cancel_child", [this](rollback::CompensationContext& ctx) {
        return cancel_child(AgentId(static_cast<std::uint64_t>(
            ctx.params().at("child").as_int())));
      });
}

Platform::~Platform() = default;

NodeRuntime& Platform::add_node(NodeId id) {
  MAR_CHECK_MSG(!nodes_.contains(id), "node already exists: " << id);
  auto runtime = std::make_unique<NodeRuntime>(*this, id);
  NodeRuntime& ref = *runtime;
  nodes_.emplace(id, std::move(runtime));
  net_.add_node(id, [&ref](const net::Message& m) { ref.handle_message(m); });
  return ref;
}

NodeRuntime& Platform::node(NodeId id) {
  auto it = nodes_.find(id);
  MAR_CHECK_MSG(it != nodes_.end(), "unknown node: " << id);
  return *it->second;
}

Result<AgentId> Platform::launch(std::unique_ptr<Agent> agent) {
  MAR_CHECK(agent != nullptr);
  MAR_CHECK_MSG(agent_types_.contains(agent->type_name()),
                "agent type not registered: " << agent->type_name());
  if (config_.itinerary_savepoints) {
    MAR_RETURN_IF_ERROR(agent->itinerary().validate_main());
  }
  auto first = agent->itinerary().first_step();
  if (!first.has_value()) {
    return Status(Errc::invalid_itinerary, "itinerary contains no steps");
  }
  const AgentId id(next_agent_++);
  agent->set_id(id);
  agent->set_run_state(Agent::RunState::running);
  agent->set_position(*first);
  agent->set_force_full_savepoint(true);

  const NodeId start = agent->itinerary().step_at(*first).primary();
  MAR_CHECK_MSG(nodes_.contains(start), "itinerary starts at unknown node "
                                            << start);
  // Initial savepoints for the sub-itineraries entered at launch.
  advance_itinerary(start, *agent, Position{}, first, {});

  storage::QueueRecord record;
  record.record_id = next_record_id();
  record.agent = id;
  record.kind = storage::RecordKind::execute;
  // One trace per agent execution; the agent id doubles as the trace id
  // (unique, deterministic, readable in dumps). The launch record has no
  // parent hop.
  record.trace_id = id.value();
  record.payload = encode_agent(*agent);
  outcomes_[id] = AgentOutcome{};
  node(start).enqueue_initial(std::move(record));
  return id;
}

Result<AgentId> Platform::prepare_child(Agent& child, AgentId parent,
                                        NodeId where, NodeId result_node,
                                        std::string result_key) {
  MAR_CHECK_MSG(agent_types_.contains(child.type_name()),
                "agent type not registered: " << child.type_name());
  if (config_.itinerary_savepoints) {
    MAR_RETURN_IF_ERROR(child.itinerary().validate_main());
  }
  auto first = child.itinerary().first_step();
  if (!first.has_value()) {
    return Status(Errc::invalid_itinerary, "itinerary contains no steps");
  }
  if (!result_key.empty() && !nodes_.contains(result_node)) {
    return Status(Errc::not_found, "result node does not exist");
  }
  const AgentId id(next_agent_++);
  child.set_id(id);
  child.set_parent(parent);
  child.set_result_target(result_node, std::move(result_key));
  // The spawn is compensable (sys.cancel_child), so the child must stay
  // completely rollback-able for its whole life (see Agent docs).
  child.set_retain_full_log(true);
  child.set_run_state(Agent::RunState::running);
  child.set_position(*first);
  child.set_force_full_savepoint(true);
  advance_itinerary(where, child, Position{}, first, {});
  outcomes_[id] = AgentOutcome{};
  children_[parent].push_back(id);
  return id;
}

std::vector<AgentId> Platform::children_of(AgentId parent) const {
  auto it = children_.find(parent);
  if (it == children_.end()) return {};
  return it->second;
}

void Platform::request_cancel(AgentId id) { cancel_requested_.insert(id); }

bool Platform::cancel_requested(AgentId id) const {
  return cancel_requested_.contains(id);
}

void Platform::clear_cancel(AgentId id) { cancel_requested_.erase(id); }

void Platform::forget_agent(AgentId id) {
  outcomes_.erase(id);
  cancel_requested_.erase(id);
  for (auto& [parent, kids] : children_) {
    std::erase(kids, id);
  }
}

Status Platform::cancel_child(AgentId child) {
  auto it = outcomes_.find(child);
  if (it == outcomes_.end()) {
    return Status(Errc::not_found, "unknown child agent");
  }
  switch (it->second.state) {
    case AgentOutcome::State::running:
      // Cancelled at the child's next step boundary (eventually — the
      // same liveness argument as the rollback itself).
      request_cancel(child);
      return Status::ok();
    case AgentOutcome::State::failed:
    case AgentOutcome::State::cancelled:
      return Status::ok();  // nothing committed beyond what it undid
    case AgentOutcome::State::done:
      break;
  }
  // The child already finished: compensate it by re-injecting its final
  // state as a compensating execution that rolls back to its oldest
  // savepoint. Possible only while its log still reaches back to launch —
  // after a top-level discard the child's effects are final (Sec. 4.4.2),
  // and this compensation FAILS (Sec. 3.2's failing compensation).
  auto fin = decode(it->second.final_agent);
  const auto target = fin->log().first_savepoint();
  if (!target.valid()) {
    return Status(Errc::not_compensatable,
                  "child's rollback log was discarded; its effects are "
                  "final");
  }
  const NodeId where = it->second.final_node;
  storage::QueueRecord rec;
  rec.record_id = next_record_id();
  rec.agent = child;
  rec.kind = storage::RecordKind::compensate;
  rec.rollback_target = target;
  rec.completion = storage::QueueRecord::Completion::cancel;
  rec.trace_id = child.value();  // compensating execution, same agent trace
  rec.payload = it->second.final_agent;
  it->second = AgentOutcome{};  // running again, as a compensator
  trace_.emit(sim_.now(), TraceKind::msg, where.value(),
              "re-injecting finished child " + std::to_string(child.value()) +
                  " for compensation");
  node(where).enqueue_initial(std::move(rec));
  return Status::ok();
}

const AgentOutcome& Platform::outcome(AgentId id) const {
  auto it = outcomes_.find(id);
  MAR_CHECK_MSG(it != outcomes_.end(), "unknown agent: " << id);
  return it->second;
}

bool Platform::finished(AgentId id) const {
  return outcome(id).state != AgentOutcome::State::running;
}

bool Platform::run_until_finished(AgentId id) {
  return sim_.run_while_pending([this, id] { return finished(id); });
}

bool Platform::run_until_all_finished(std::span<const AgentId> ids) {
  // Amortized O(1) per event: the cursor skips the finished prefix; at the
  // end every id is re-verified, as cancel_child can re-run a `done` child.
  std::size_t cursor = 0;
  return sim_.run_while_pending([this, ids, &cursor] {
    while (cursor < ids.size() && finished(ids[cursor])) ++cursor;
    if (cursor < ids.size()) return false;
    cursor = 0;
    while (cursor < ids.size() && finished(ids[cursor])) ++cursor;
    return cursor == ids.size();
  });
}

std::unique_ptr<Agent> Platform::decode(
    std::span<const std::uint8_t> bytes) const {
  return decode_agent(agent_types_, bytes);
}

void Platform::record_outcome(AgentId id, AgentOutcome outcome) {
  outcomes_[id] = std::move(outcome);
  // A cancellation may have been requested while the agent's terminal
  // transaction was already committing (its outcome lands here a little
  // after the commit became durable). Settle the request now: a `done`
  // agent is compensated by re-injection; failed/cancelled agents have
  // nothing left to undo.
  if (cancel_requested_.contains(id) &&
      outcomes_[id].state != AgentOutcome::State::running) {
    cancel_requested_.erase(id);
    if (outcomes_[id].state == AgentOutcome::State::done) {
      const auto st = cancel_child(id);
      if (!st.is_ok()) {
        trace_.emit(sim_.now(), TraceKind::msg, 0,
                    "late cancel of agent " + std::to_string(id.value()) +
                        " impossible: " + st.to_string());
      }
    }
  }
}

MetricsSnapshot Platform::metrics_snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [id, runtime] : nodes_) {
    snap.merge(runtime->metrics_snapshot());
  }
  snap.scalars["platform.rollback_transfers"] = rollback_transfers_;
  snap.scalars["platform.mixed_ships"] = mixed_ships_;
  snap.scalars["platform.lock_conflict_aborts"] = lock_conflict_aborts_;
  return snap;
}

// ---------------------------------------------------------------------------
// Savepoints and itinerary integration (Sec. 4.4.2)
// ---------------------------------------------------------------------------

void Platform::append_savepoint(NodeId where, Agent& agent,
                                SavepointId id,
                                rollback::SavepointOrigin origin,
                                std::uint32_t depth, Position resume) {
  auto& log = agent.log();
  rollback::SavepointEntry sp;
  sp.id = id;
  sp.origin = origin;
  sp.depth = depth;
  sp.resume_position = std::move(resume);
  // Sec. 4.4.2: when no step has run since the previous savepoint (the log
  // still ends with an SP entry), a "special savepoint entry without data
  // for the strongly reversible objects" suffices.
  sp.lightweight = !log.empty() && log.back().is_savepoint();
  if (!sp.lightweight) {
    Value strong = agent.data().strong_image();
    if (config_.logging == LoggingMode::state ||
        agent.force_full_savepoint()) {
      sp.transition = false;
      sp.image = strong;
    } else {
      sp.transition = true;
      sp.delta = serial::diff(agent.last_savepoint_strong(), strong);
    }
    agent.set_last_savepoint_strong(std::move(strong));
    agent.set_force_full_savepoint(false);
  }
  trace_.emit(sim_.now(), TraceKind::savepoint, where.value(),
              "SP_" + std::to_string(id.value()) +
                  (sp.lightweight ? " (lightweight)" : "") +
                  (sp.transition ? " (delta)" : ""));
  log.push(std::move(sp));
  agent.savepoint_stack().push_back(SavepointStackEntry{id, origin, depth});
}

void Platform::advance_itinerary(NodeId where, Agent& agent,
                                 const Position& from,
                                 const std::optional<Position>& to,
                                 const std::vector<SavepointId>& adhoc) {
  auto& log = agent.log();
  const Position to_pos = to.value_or(Position{});

  // Application-requested savepoints (Sec. 2) are written first: they were
  // constituted at the end of the just-committed step and belong to that
  // step's (possibly completing) sub-itinerary era — so a top-level
  // discard below wipes them, keeping "no rollback across a completed
  // top-level sub-itinerary" airtight.
  if (to.has_value()) {
    const auto from_depth =
        static_cast<std::uint32_t>(Itinerary::active_subs(from).size());
    for (const auto id : adhoc) {
      append_savepoint(where, agent, id, rollback::SavepointOrigin::adhoc,
                       from_depth, to_pos);
    }
  }

  // Completed sub-itineraries, innermost first.
  for (const auto& sub : Itinerary::exited_subs(from, to_pos)) {
    const auto depth = static_cast<std::uint32_t>(sub.size());
    if (depth == 1 && config_.discard_log_on_top_level &&
        config_.itinerary_savepoints && !agent.retain_full_log()) {
      // Sec. 4.4.2: completing a sub-itinerary directly contained in the
      // main itinerary deletes ALL information in the rollback log.
      trace_.emit(sim_.now(), TraceKind::log_discard, where.value(),
                  "top-level sub-itinerary completed; " +
                      std::to_string(log.size()) + " entries dropped");
      log.clear();
      agent.savepoint_stack().clear();
      agent.set_force_full_savepoint(true);
      continue;
    }
    if (!config_.itinerary_savepoints) continue;
    // Find this sub-itinerary's savepoint on the stack (topmost matching).
    auto& stack = agent.savepoint_stack();
    for (std::size_t i = stack.size(); i-- > 0;) {
      if (stack[i].origin != rollback::SavepointOrigin::sub_itinerary ||
          stack[i].depth != depth) {
        continue;
      }
      const SavepointId sp_id = stack[i].id;
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(i));
      // A retained-log agent keeps its launch savepoint (the first one it
      // allocated) so a complete rollback stays possible.
      if (agent.retain_full_log() && sp_id.value() == 1) continue;
      if (config_.gc_savepoints) {
        auto gc = log.gc_savepoint(sp_id);
        if (gc.has_value()) {
          if (*gc) agent.set_force_full_savepoint(true);
          trace_.emit(sim_.now(), TraceKind::sp_gc, where.value(),
                      "SP_" + std::to_string(sp_id.value()) +
                          " (sub-itinerary completed)");
        }
      }
      break;
    }
  }

  if (!to.has_value()) return;  // agent finished; nothing to establish

  // Sub-itineraries being entered, outermost first (Sec. 4.4.2).
  if (config_.itinerary_savepoints) {
    for (const auto& sub : Itinerary::entered_subs(from, to_pos)) {
      append_savepoint(where, agent, agent.allocate_savepoint_id(),
                       rollback::SavepointOrigin::sub_itinerary,
                       static_cast<std::uint32_t>(sub.size()), to_pos);
    }
  }
}

}  // namespace mar::agent
