#include "agent/node_runtime.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <utility>

#include "contract/contract.h"
#include "resource/lock_audit.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::agent {

using rollback::EntryKind;
using rollback::OpEntryKind;
using rollback::OperationEntry;
using storage::QueueRecord;
using storage::RecordKind;

namespace {
/// Candidate nodes of the agent's current step. Reads through a const
/// agent, as every itinerary read here does: the mutable accessor would
/// drop the encoded itinerary the agent kept from its decode.
const std::vector<NodeId>& step_locations(const Agent& agent) {
  return agent.itinerary().step_at(agent.position()).locations;
}
}  // namespace

NodeRuntime::NodeRuntime(Platform& platform, NodeId id)
    : p_(platform), id_(id), qm_(storage_), rm_(storage_),
      txm_(id, platform.sim(), platform.net(), storage_),
      timers_(platform.sim()),
      ship_(platform, id, timers_, txm_, qm_, storage_) {
  txm_.register_participant(qm_);
  txm_.register_participant(rm_);
  txm_.set_apply_listener([this] {
    if (up_) pump();
  });
  rm_.set_granularity(platform.config().lock_granularity);
  if (platform.config().lock_audit) rm_.enable_lock_audit();
  txm_.set_group_commit(platform.config().group_commit_window,
                        platform.config().group_commit_flush_us);
  txm_.set_trace(&platform.trace());
  storage_.enable_segmented_log(
      storage::SegmentLogConfig{platform.config().segment_bytes});
  txm_.set_checkpoint(platform.config().checkpoint_interval_bytes);
  qm_.set_clock([this] { return p_.sim().now(); });

  // Metrics registry (DESIGN.md §12): every stats counter of this node's
  // subsystems under a dotted name, so one snapshot reports the node
  // uniformly. The structs stay the hot-path write sites; the registry
  // only holds pointers.
  const auto& st = storage_.stats();
  metrics_.register_counter("storage.bytes_written", &st.bytes_written);
  metrics_.register_counter("storage.kv_writes", &st.kv_writes);
  metrics_.register_counter("storage.queue_ops", &st.queue_ops);
  metrics_.register_counter("storage.record_appends", &st.record_appends);
  metrics_.register_counter("storage.record_resets", &st.record_resets);
  metrics_.register_counter("storage.sync_batches", &st.sync_batches);
  metrics_.register_counter("storage.ship_bytes_received",
                            &st.ship_bytes_received);
  metrics_.register_counter("storage.ship_bytes_reconstructed",
                            &st.ship_bytes_reconstructed);
  metrics_.register_counter("storage.recovery_replayed_bytes",
                            &st.recovery_replayed_bytes);
  metrics_.register_counter("storage.recovery_segments",
                            &st.recovery_segments);
  metrics_.register_counter("storage.checkpoints_completed",
                            &st.checkpoints_completed);
  const auto& qs = qm_.stats();
  metrics_.register_counter("queue.admissions", &qs.admissions);
  metrics_.register_counter("queue.records_examined", &qs.records_examined);
  const auto& sh = ship_.stats();
  metrics_.register_counter("ship.convoys_sent", &sh.convoys_sent);
  metrics_.register_counter("ship.entries_sent", &sh.entries_sent);
  metrics_.register_counter("ship.full_images", &sh.full_images);
  metrics_.register_counter("ship.delta_ships", &sh.delta_ships);
  metrics_.register_counter("ship.delta_fallbacks", &sh.delta_fallbacks);
  metrics_.register_counter("ship.need_full_retries", &sh.need_full_retries);
  metrics_.register_counter("ship.wire_payload_bytes",
                            &sh.wire_payload_bytes);
  metrics_.register_gauge("ship.cache_bytes",
                          [this] { return ship_.cache_bytes(); });
  const auto& tx = txm_.stats();
  metrics_.register_counter("tx.inflight_tx", &tx.inflight_tx);
  metrics_.register_counter("tx.coordinator_syncs", &tx.coordinator_syncs);
  metrics_.register_counter("tx.pipeline_depth_max", &tx.pipeline_depth_max);
  metrics_.register_gauge("tx.participant_syncs",
                          [this] { return txm_.participant_syncs(); });
  hist_hop_us_ = &metrics_.histogram("hop.latency_us");
  hist_step_us_ = &metrics_.histogram("step.latency_us");
  hist_queue_wait_us_ = &metrics_.histogram("queue.wait_us");
  hist_commit_flush_us_ = &metrics_.histogram("commit.flush_us");
}

void NodeRuntime::trace(TraceKind kind, std::string detail) {
  p_.trace().emit(p_.sim().now(), kind, id_.value(), std::move(detail));
}

// ---------------------------------------------------------------------------
// Observability plumbing (DESIGN.md §12)
// ---------------------------------------------------------------------------

void NodeRuntime::span_hop_begin(QueueRecord& rec) {
  auto& spans = p_.spans();
  if (!spans.enabled()) return;
  const auto now = p_.sim().now();
  if (!hop_traces_.empty()) {
    if (const auto it = hop_traces_.find(rec.record_id);
        it != hop_traces_.end()) {
      // Re-claim after an abort: resume the stashed hop span and close
      // the lock-wait (backoff + re-admission) window the abort opened.
      rec.hop_span_id = it->second.span_id;
      rec.hop_begin_us = it->second.begin_us;
      if (it->second.lock_wait_since != 0) {
        record_span(rec, SpanKind::lock_wait, it->second.lock_wait_since);
      }
      hop_traces_.erase(it);
      return;
    }
  }
  // First claim: open the root hop span (its id is needed NOW so the
  // phase children and the successor record can parent to it; the span
  // itself is recorded when the hop closes) and emit the queue-wait.
  // The state lives in THIS record copy — the processing path threads it
  // by value through its continuations, so no lookup table is touched.
  rec.hop_span_id = spans.next_id();
  rec.hop_begin_us = rec.enqueued_us != 0 && rec.enqueued_us <= now
                         ? rec.enqueued_us
                         : now;
  record_span(rec, SpanKind::queue_wait, rec.hop_begin_us);
  hist_queue_wait_us_->record(now - rec.hop_begin_us);
}

void NodeRuntime::span_hop_end(const QueueRecord& rec) {
  if (rec.hop_span_id == 0) return;  // tracing was off when claimed
  if (!p_.spans().enabled()) return;
  record_span(rec, SpanKind::hop, rec.hop_begin_us,
              rec.kind == RecordKind::compensate ? "comp" : "");
  hist_hop_us_->record(p_.sim().now() - rec.hop_begin_us);
}

void NodeRuntime::span_commit_flush(const QueueRecord& rec,
                                    std::uint64_t begin_us) {
  if (!p_.spans().enabled()) return;
  record_span(rec, SpanKind::commit_flush, begin_us);
  hist_commit_flush_us_->record(p_.sim().now() - begin_us);
}

void NodeRuntime::record_span(const QueueRecord& rec, SpanKind kind,
                              std::uint64_t begin_us, std::string note) {
  // The hop span was opened (its id drawn) at claim time; every other
  // span is a fresh child of the hop.
  const bool hop = kind == SpanKind::hop;
  p_.spans().add(rec.trace_id, hop ? rec.hop_span_id : 0,
                 hop ? rec.trace_parent : rec.hop_span_id, kind, id_.value(),
                 rec.agent.valid() ? rec.agent.value() : 0, begin_us,
                 p_.sim().now(), std::move(note));
}

void NodeRuntime::propagate_trace(const QueueRecord& from,
                                  QueueRecord& to) const {
  to.trace_id = from.trace_id;
  to.trace_parent =
      from.hop_span_id != 0 ? from.hop_span_id : from.trace_parent;
}

void NodeRuntime::flight_dump(std::string_view reason) {
  const auto& path = p_.config().flight_dump_path;
  if (path.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os) return;
  p_.spans().dump_node(id_.value(), reason, p_.sim().now(), os);
}

std::unique_ptr<Agent> NodeRuntime::decode(const serial::Bytes& bytes) const {
  return decode_agent(p_.agent_types(), bytes);
}

std::shared_ptr<Agent> NodeRuntime::load_committed_agent(
    const storage::QueueRecord& rec) const {
  if (!rec.payload.empty()) return decode(rec.payload);
  const auto* segments = storage_.record_segments(agent_image_key(rec.agent));
  MAR_CHECK_MSG(segments != nullptr,
                "incremental record has no stable agent image");
  return decode_agent_segments(p_.agent_types(), *segments);
}

std::shared_ptr<Agent> NodeRuntime::load_agent_for_step(
    const storage::QueueRecord& rec) {
  if (rec.payload.empty()) {
    auto it = resident_.find(rec.agent);
    if (it != resident_.end()) return it->second;
  }
  return load_committed_agent(rec);
}

std::size_t NodeRuntime::committed_agent_bytes(
    const storage::QueueRecord& rec) const {
  if (!rec.payload.empty()) return rec.payload.size();
  const auto* segments = storage_.record_segments(agent_image_key(rec.agent));
  if (segments == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& s : *segments) n += s.size();
  return n;
}

bool NodeRuntime::should_compact(const std::string& key) const {
  const auto& cfg = p_.config();
  const auto interval =
      std::max<std::uint32_t>(1, cfg.compaction_interval_steps);
  const auto* segments = storage_.record_segments(key);
  if (segments == nullptr || segments->size() < 2) return false;
  // Hard cap: bound the recovery replay length regardless of sizes.
  if (segments->size() >= interval + 1) return true;
  // Bytes-ratio policy: compact once the delta chain outweighs the base,
  // so the stale-segment footprint stays proportional to the agent
  // (amortized-flat) instead of rewriting on a fixed cadence.
  if (cfg.compaction_ratio > 0) {
    std::size_t delta_bytes = 0;
    for (std::size_t i = 1; i < segments->size(); ++i) {
      delta_bytes += (*segments)[i].size();
    }
    return static_cast<double>(delta_bytes) >
           cfg.compaction_ratio * static_cast<double>(segments->front().size());
  }
  return false;
}

storage::QueueRecord NodeRuntime::stage_incremental_image(
    TxId tx, const Agent& agent, const storage::QueueRecord& prev) {
  const auto key = agent_image_key(agent.id());
  if (!agent.delta_ready()) {
    // The log saw pops / GC / discard this step: not expressible as an
    // append. Rewrite the base (which also resets the delta chain).
    qm_.stage_record_reset(tx, key, encode_agent(agent));
  } else if (!prev.payload.empty()) {
    // First local commit after arrival: the consumed record's payload is
    // exactly the pre-step image — establish it as the base and append
    // this step's delta, all within the step transaction.
    qm_.stage_record_reset(tx, key, prev.payload);
    qm_.stage_record_append(tx, key, encode_agent_delta(agent));
  } else if (should_compact(key)) {
    // Compaction: fold the chain back into one full image.
    qm_.stage_record_reset(tx, key, encode_agent(agent));
  } else {
    qm_.stage_record_append(tx, key, encode_agent_delta(agent));
  }
  storage::QueueRecord rec;
  rec.record_id = p_.next_record_id();
  rec.agent = agent.id();
  rec.kind = RecordKind::execute;
  rec.rollback_target = SavepointId::invalid();
  // payload stays empty: the record area holds the durable image.
  return rec;
}

QueueRecord NodeRuntime::make_record(const Agent& agent, RecordKind kind,
                                     SavepointId rollback_target) {
  QueueRecord rec;
  rec.record_id = p_.next_record_id();
  rec.agent = agent.id();
  rec.kind = kind;
  rec.rollback_target = rollback_target;
  rec.payload = encode_agent(agent);
  return rec;
}

void NodeRuntime::enqueue_initial(QueueRecord record) {
  record.enqueued_us = p_.sim().now();
  storage_.enqueue(std::move(record));
  pump();
}

void NodeRuntime::pump() {
  if (!up_) return;
  const auto slot_cap =
      std::max<std::uint32_t>(1, p_.config().node_concurrency);
  while (slots_.size() < slot_cap) {
    const QueueRecord* next = qm_.next_eligible(busy_agents_);
    if (next == nullptr) return;
    const auto record_id = next->record_id;
    MAR_CHECK(qm_.claim(record_id));
    slots_.insert(record_id);
    busy_agents_.insert(next->agent);
    timers_.after(0, [this, record_id] { process_record(record_id); });
  }
}

void NodeRuntime::release_slot(const QueueRecord& rec) {
  qm_.release(rec.record_id);
  slots_.erase(rec.record_id);
  busy_agents_.erase(rec.agent);
}

std::uint32_t NodeRuntime::attempt_count(std::uint64_t record_id) const {
  auto it = attempts_.find(record_id);
  return it == attempts_.end() ? 0 : it->second;
}

void NodeRuntime::process_record(std::uint64_t record_id) {
  if (!up_ || !slots_.contains(record_id)) return;
  const QueueRecord* found = storage_.find_record(record_id);
  MAR_CHECK_MSG(found != nullptr, "claimed record vanished from the queue");
  QueueRecord rec = *found;  // stable copy; the queue owns the original
  span_hop_begin(rec);
  try {
    // Multi-agent executions (Sec. 6): a requested cancellation takes
    // effect at the next step boundary — exactly here, before the record
    // is processed. In-flight rollbacks are never interrupted.
    if (rec.kind != RecordKind::compensate &&
        p_.cancel_requested(rec.agent)) {
      execute_cancel(rec);
      return;
    }
    switch (rec.kind) {
      case RecordKind::execute:
        execute_step(rec);
        return;
      case RecordKind::compensate:
        execute_compensation(rec);
        return;
      case RecordKind::launch:
        execute_launch(rec);
        return;
    }
  } catch (const resource::LockAuditError&) {
    // Post-mortem artifact before the validator's hard failure unwinds
    // the run: the node's recent spans show what led into the cycle.
    flight_dump("lock_audit");
    throw;
  }
  MAR_CHECK_MSG(false, "unknown queue record kind");
}

void NodeRuntime::execute_launch(const QueueRecord& rec) {
  // The spawn committed with the parent's step; this record only routes
  // the child to its first step's node, with the usual retry machinery.
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = decode(rec.payload);
  const NodeId dest = pick_node(rec, step_locations(*agent));
  QueueRecord next_rec =
      make_record(*agent, RecordKind::execute, SavepointId::invalid());
  if (dest != id_) {
    trace(TraceKind::migrate,
          "child agent " + std::to_string(rec.agent.value()) + " -> N" +
              std::to_string(dest.value()) + " (launch, " +
              std::to_string(next_rec.payload.size()) + " bytes)");
  }
  hand_off(tx, dest, std::move(next_rec), rec);
}

void NodeRuntime::execute_cancel(const QueueRecord& rec) {
  std::shared_ptr<Agent> agent = load_committed_agent(rec);
  const auto target = agent->log().first_savepoint();
  if (!target.valid()) {
    // Sec. 4.4.2: a complete rollback (abort) is only possible while the
    // first top-level sub-itinerary executes. The log was discarded: the
    // cancellation is void; the agent runs on to completion.
    trace(TraceKind::msg,
          "cancel of agent " + std::to_string(rec.agent.value()) +
              " void (rollback log discarded); agent continues");
    p_.clear_cancel(rec.agent);
    if (rec.kind == RecordKind::execute) {
      execute_step(rec);
    } else {
      execute_launch(rec);
    }
    return;
  }
  p_.clear_cancel(rec.agent);
  trace(TraceKind::rollback_begin,
        "cancelling agent " + std::to_string(rec.agent.value()) +
            " (complete rollback to SP_" + std::to_string(target.value()) +
            ")");
  initiate_rollback(rec, target, QueueRecord::Completion::cancel);
}

void NodeRuntime::retry_later(const QueueRecord& rec) {
  const auto backoff =
      tx::kRetryBackoffUs + p_.rng().next_below(tx::kRetryBackoffUs + 1);
  // The abort -> re-claim window is the hop's lock-wait phase. The open
  // hop span rode this attempt's record copy; stash it so the re-claim
  // (a fresh copy of the queued original) can resume the same span and
  // close the lock-wait window.
  if (rec.hop_span_id != 0 && p_.spans().enabled()) {
    auto& ht = hop_traces_[rec.record_id];
    if (ht.span_id == 0) {
      ht.span_id = rec.hop_span_id;
      ht.begin_us = rec.hop_begin_us;
      ht.lock_wait_since = p_.sim().now();
    }
  }
  timers_.after(backoff, [this] { pump(); });
}

void NodeRuntime::on_node_state(bool up) {
  // Invalidating the timers cancels every pending continuation; the slot
  // and claim wipes invalidate all in-flight executions at once. Their
  // records are still queued (removal only commits), so recovery re-offers
  // them.
  timers_.invalidate();
  up_ = up;
  if (!up) flight_dump("crash");  // post-mortem before volatile state goes
  slots_.clear();
  busy_agents_.clear();
  resident_.clear();  // volatile cache; recovery decodes from the record area
  hop_traces_.clear();  // re-offered records open fresh hop spans
  storage_.clear_claims();
  replies_.clear();
  ship_.on_node_state(up);
  if (up) {
    // Rebuild the record read path BEFORE the tx layer re-drives decided
    // commits: commit_locals may apply staged record ops on top of it.
    // Replays the checksummed log (possibly truncating a torn tail, or
    // throwing CorruptionError on mid-log damage).
    storage::RecoveryReport report;
    const auto recovery_begin = p_.sim().now();
    try {
      report = storage_.recover_records();
    } catch (const storage::CorruptionError&) {
      flight_dump("corruption");
      throw;
    }
    trace(TraceKind::storage_recovery,
          "replayed_bytes=" + std::to_string(report.replayed_bytes) +
              " segments=" + std::to_string(report.segments_scanned) +
              " torn_tail=" + std::to_string(report.truncated_torn_tail) +
              " checkpoint=" + std::to_string(report.used_checkpoint) +
              " fell_back=" + std::to_string(report.checkpoint_fell_back));
    if (p_.spans().enabled()) {
      // The replay is instantaneous in simulated time (its cost is a
      // byte meter, A8's subject); the span marks the event and carries
      // the replay size for the timeline. It is node-level: no hop, no
      // agent.
      record_span(QueueRecord{}, SpanKind::recovery_replay, recovery_begin,
                  "replayed_bytes=" + std::to_string(report.replayed_bytes) +
                      " segments=" + std::to_string(report.segments_scanned));
    }
    txm_.on_recover();
    pump();
  } else {
    const auto fault = p_.config().storage_fault;
    if (fault != storage::StorageFault::none) {
      // Crash-time damage: deterministic in the platform seed, drawn only
      // when a fault is configured so clean runs stay bit-identical.
      storage_.inject_storage_fault(fault, p_.rng().next_u64());
    }
    txm_.on_crash();
  }
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void NodeRuntime::handle_message(const net::Message& m) {
  if (m.type.rfind("tx.", 0) == 0) {
    txm_.on_message(m);
    pump();  // a tx.commit may have delivered a queue record
    return;
  }
  if (m.type == ship::msg::convoy) {
    // A remote coordinator's convoy stages agent transfers into our queue
    // (full images or deltas against the channel cache).
    ship_.on_convoy(m);
    return;
  }
  if (m.type == ship::msg::convoy_ack) {
    ship_.on_convoy_ack(m);
    return;
  }
  serial::Decoder dec(m.payload);
  if (m.type == msg::rce_exec || m.type == msg::mce_exec) {
    // Shipped compensation entries, run here inside the coordinator's
    // compensation transaction: an RCE list (optimized algorithm), or a
    // mixed step's entries plus the agent's weak-state snapshot (mce.exec,
    // adaptive strategy, Sec. 4.4.1). The weak-state mutations travel
    // back with the ack and become durable only when the coordinator
    // commits, so a lost reply or an abort discards them.
    const TxId tx(dec.read_u64());
    std::vector<OperationEntry> ops(dec.read_count());
    for (auto& op : ops) op.deserialize(dec);
    std::optional<serial::Value> weak;
    if (m.type == msg::mce_exec) weak.emplace().deserialize(dec);
    const auto service =
        static_cast<sim::TimeUs>(ops.size()) * p_.config().comp_op_service_us;
    serve(tx, service, [this, tx, ops = std::move(ops), weak = std::move(weak),
                        from = m.from]() mutable {
      const Status st = run_comp_ops(tx, ops, weak ? &*weak : nullptr);
      serial::Encoder enc(8 + 1 + (weak ? weak->encoded_size() : 0));
      enc.write_u64(tx.value());
      enc.write_bool(st.is_ok());
      if (weak) weak->serialize(enc);
      return net::Message{id_, from, weak ? msg::mce_ack : msg::rce_ack,
                          std::move(enc).take()};
    });
    return;
  }
  if (m.type == contract::msg::invoke) {
    // Remote resource access by RPC: used by the ConTract-style central
    // baseline and available as the Sec. 4.4.1 "further optimization".
    auto req = contract::decode_invoke(m);
    const TxId tx = req.tx;
    serve(tx, p_.config().resource_op_service_us,
          [this, req = std::move(req), from = m.from] {
            // A resource operation, or a shipped compensating operation in
            // a resource-entry context.
            const Status st =
                req.comp_op.empty()
                    ? rm_.invoke(req.tx, req.resource, req.op, req.params)
                          .status()
                    : run_comp_ops(req.tx,
                                   {OperationEntry{OpEntryKind::resource,
                                                   req.comp_op, req.params,
                                                   id_, req.resource}},
                                   nullptr);
            return net::Message{id_, from, contract::msg::result,
                                contract::encode_result(req.tx, st)};
          });
    return;
  }
  if (m.type == msg::rce_ack || m.type == msg::mce_ack ||
      m.type == contract::msg::result) {
    take_reply(TxId(dec.read_u64()), &m);  // every reply leads with its tx
    return;
  }
  MAR_CHECK_MSG(false, "unknown message type " << m.type);
}

void NodeRuntime::serve(TxId tx, sim::TimeUs service,
                        std::function<net::Message()> run) {
  // An aborted attempt's request runs nothing and gets no reply: its
  // coordinator gave up on it, and running would only stage orphaned
  // effects (and locks) until an inquiry presumes the abort. The abort
  // may have overtaken the request, or arrive during the service time.
  if (txm_.take_early_abort(tx)) return;
  txm_.note_remote_staged(tx);
  timers_.after(service, [this, tx, run = std::move(run)] {
    if (txm_.in_doubt(tx)) p_.net().send(run());
  });
}

// ---------------------------------------------------------------------------
// Transfer / commit plumbing
// ---------------------------------------------------------------------------

void NodeRuntime::stage_and_commit(TxId tx, NodeId dest, QueueRecord record,
                                   std::function<void(bool)> done) {
  // A full-payload handoff (migration, rollback, launch, resume)
  // supersedes any incremental image this node still holds for the agent:
  // drop the record-area state within the same transaction.
  if (!record.payload.empty()) {
    const auto key = agent_image_key(record.agent);
    if (storage_.has_record(key)) qm_.stage_record_erase(tx, key);
  }
  if (dest == id_) {
    qm_.stage_enqueue(tx, std::move(record));
    txm_.commit_async(tx, std::move(done));
    return;
  }
  // Remote staging rides the destination's convoy: the shipment manager
  // batches transfers, delta-ships against the channel cache and handles
  // full-image fallback and timeouts. The convoy frame carries the
  // PREPARE, so the commit machinery starts NOW instead of after a staging
  // ack round trip — one round trip covers transfer + vote, and the
  // batched decision flush amortizes the coordinator sync across every
  // transaction decided in the window. The continuation in `done`
  // re-pumps the scheduler slot at ack drain. A shipment timeout aborts
  // only while votes are still outstanding (once decided, the timeout is
  // stale).
  txm_.enlist_remote(tx, dest);
  txm_.note_piggybacked(tx, dest);
  ship_.stage_remote(tx, dest, std::move(record), [this, tx](bool ok) {
    if (!ok) txm_.abort_if_preparing(tx);
  });
  txm_.commit_async(tx, std::move(done));
}

void NodeRuntime::hand_off(TxId tx, NodeId dest, QueueRecord next,
                           const QueueRecord& rec) {
  propagate_trace(rec, next);
  // A compensation transaction's outcome is traced as such (CT).
  const bool ct = rec.kind == RecordKind::compensate;
  stage_and_commit(tx, dest, std::move(next), [this, rec, ct](bool committed) {
    release_slot(rec);
    if (committed) {
      if (ct) trace(TraceKind::comp_commit, "CT committed");
      span_hop_end(rec);
      attempts_.erase(rec.record_id);
      pump();
    } else {
      if (ct) trace(TraceKind::comp_abort, "commit failed (will retry)");
      ++attempts_[rec.record_id];
      retry_later(rec);
    }
  });
}

NodeId NodeRuntime::pick_node(const QueueRecord& rec,
                              const std::vector<NodeId>& nodes) const {
  // Rotate through the candidates on repeated failures (fault-tolerant
  // execution, ref [11]).
  return nodes[attempt_count(rec.record_id) % nodes.size()];
}

void NodeRuntime::fail_agent(const QueueRecord& rec, Status status) {
  trace(TraceKind::msg, "agent " + std::to_string(rec.agent.value()) +
                            " FAILED: " + status.to_string());
  const TxId cleanup = txm_.begin();
  qm_.stage_remove(cleanup, rec.record_id);
  // Multi-agent executions: a waiting parent learns of the failure
  // through the mailbox, within the same cleanup transaction.
  const auto failed = load_committed_agent(rec);
  commit_terminal(cleanup, rec, *failed, AgentOutcome::State::failed,
                  std::move(status), rec.payload);
}

void NodeRuntime::commit_terminal(TxId tx, const QueueRecord& rec,
                                  const Agent& agent,
                                  AgentOutcome::State state, Status status,
                                  serial::Bytes final_image) {
  evict_resident(rec.agent);
  const auto image_key = agent_image_key(rec.agent);
  if (storage_.has_record(image_key)) qm_.stage_record_erase(tx, image_key);
  AgentOutcome out;
  out.state = state;
  out.status = status;
  out.final_agent =
      final_image.empty() ? encode_agent(agent) : std::move(final_image);
  out.final_node = id_;
  const auto commit_begin = p_.sim().now();
  // Multi-agent executions: the result is delivered to the parent's
  // mailbox within this terminal transaction — exactly once.
  deliver_result(
      tx, agent, state == AgentOutcome::State::done, status,
      [this, tx, rec, commit_begin, out = std::move(out)](bool delivered) {
        if (!delivered) {
          txm_.abort_tx(tx);
          release_slot(rec);
          retry_later(rec);
          return;
        }
        txm_.commit_async(tx, [this, rec, commit_begin,
                               out](bool ok) mutable {
          if (!ok) {
            release_slot(rec);
            retry_later(rec);
            return;
          }
          // A failure was traced when it was decided (fail_agent).
          const auto agent_id = std::to_string(rec.agent.value());
          if (out.state == AgentOutcome::State::done) {
            trace(TraceKind::step_commit, "agent " + agent_id + " completed");
          } else if (out.state == AgentOutcome::State::cancelled) {
            trace(TraceKind::rollback_done, "agent " + agent_id + " CANCELLED");
          }
          out.finished_at = p_.sim().now();
          p_.record_outcome(rec.agent, std::move(out));
          span_commit_flush(rec, commit_begin);
          span_hop_end(rec);
          attempts_.erase(rec.record_id);
          release_slot(rec);
          pump();
        });
      });
}

void NodeRuntime::deliver_result(TxId tx, const Agent& agent, bool ok,
                                 const Status& error,
                                 std::function<void(bool)> done) {
  if (agent.result_key().empty()) {
    done(true);
    return;
  }
  // The result record the parent's join_child() takes from the mailbox.
  serial::Value record = serial::Value::empty_map();
  record.set("ok", ok);
  record.set("agent", static_cast<std::int64_t>(agent.id().value()));
  if (ok) {
    record.set("result", agent.data().weak_image().has("result")
                             ? agent.data().weak_image().at("result")
                             : agent.data().weak_image());
  } else {
    record.set("error", error.to_string());
  }
  serial::Value params = serial::Value::empty_map();
  params.set("key", agent.result_key());
  params.set("value", std::move(record));

  if (agent.result_node() == id_) {
    done(rm_.invoke(tx, "mailbox", "put", params).is_ok());
    return;
  }
  // Remote delivery: a transactional RPC to the mailbox node, enlisted in
  // this transaction (the Sec. 4.4.1 RPC mechanism) — delivery commits
  // atomically with the agent's terminal transaction.
  txm_.enlist_remote(tx, agent.result_node());
  call(tx,
       net::Message{id_, agent.result_node(), contract::msg::invoke,
                    contract::encode_invoke(tx, "mailbox", "put", params, "")},
       p_.config().stage_timeout_us,
       [done = std::move(done)](const net::Message* reply) {
         done(reply != nullptr &&
              contract::decode_result(*reply).second.is_ok());
       });
}

void NodeRuntime::call(TxId tx, net::Message request, sim::TimeUs timeout,
                       std::function<void(const net::Message*)> on_reply) {
  p_.net().send(std::move(request));
  MAR_CHECK_MSG(replies_.emplace(tx, std::move(on_reply)).second,
                "a reply for tx " << tx << " is already awaited");
  if (timeout > 0) {
    timers_.after(timeout, [this, tx] { take_reply(tx, nullptr); });
  }
}

void NodeRuntime::take_reply(TxId tx, const net::Message* reply) {
  auto awaited = replies_.extract(tx);
  if (awaited.empty()) return;  // timed out / duplicate
  awaited.mapped()(reply);
}

void NodeRuntime::ship_comp_ops(
    TxId tx, NodeId dest, const std::vector<OperationEntry>& ops,
    const serial::Value* weak, std::function<void(serial::Decoder*)> on_ack) {
  txm_.enlist_remote(tx, dest);
  std::size_t frame = 8 + serial::varint_size(ops.size()) +
                      (weak != nullptr ? weak->encoded_size() : 0);
  for (const auto& op : ops) frame += op.byte_size();
  serial::Encoder enc(frame);
  enc.write_u64(tx.value());
  enc.write_varint(ops.size());
  for (const auto& op : ops) op.serialize(enc);
  if (weak != nullptr) weak->serialize(enc);
  const auto wire_bytes = enc.size();
  trace(weak != nullptr ? TraceKind::mce_shipped : TraceKind::rce_shipped,
        std::to_string(ops.size()) +
            (weak != nullptr ? " OEs + weak state -> N" : " RCEs -> N") +
            std::to_string(dest.value()) + " (" + std::to_string(wire_bytes) +
            " bytes)");
  const auto stage = p_.config().stage_timeout_us;
  call(tx,
       net::Message{id_, dest, weak != nullptr ? msg::mce_exec : msg::rce_exec,
                    std::move(enc).take()},
       stage == 0 ? 0
                  : stage + 4 * p_.net().transfer_time(id_, dest, wire_bytes),
       [on_ack = std::move(on_ack)](const net::Message* reply) {
         if (reply == nullptr) return on_ack(nullptr);
         serial::Decoder ack(reply->payload);
         (void)ack.read_u64();  // tx
         on_ack(&ack);
       });
}

// ---------------------------------------------------------------------------
// Step execution (exactly-once protocol of ref [11])
// ---------------------------------------------------------------------------

void NodeRuntime::execute_step(const QueueRecord& rec) {
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = load_agent_for_step(rec);
  const auto& itinerary = std::as_const(*agent).itinerary();
  MAR_CHECK_MSG(itinerary.valid_step(agent->position()),
                "agent position does not address a step");
  const StepEntry step = itinerary.step_at(agent->position());
  trace(TraceKind::step_begin,
        "T(" + step.method + ") agent " + std::to_string(rec.agent.value()));

  StepContext ctx(id_, p_.sim().now(), tx, *agent, rm_, p_.rng());
  if (step.when.has_value() &&
      !step.when->eval(agent->data().weak_image())) {
    // Ref [14] preconditions: an unsatisfied step is skipped — the step
    // transaction still runs (empty), keeping the itinerary bookkeeping
    // and exactly-once machinery uniform.
    trace(TraceKind::msg, step.method + " skipped (precondition " +
                              step.when->to_string() + " unsatisfied)");
  } else {
    agent->run_step(step.method, ctx);
  }

  if (ctx.fatal()) {
    // Lock conflict / forced abort: undo and restart the step later. A
    // lock conflict here is the multiprogramming cost of concurrent slots
    // (or of a sibling agent) — count it so A4 can report the contention.
    if (ctx.fatal_status().code() == Errc::lock_conflict) {
      ++p_.lock_conflict_aborts();
    }
    // The (possibly resident) in-memory agent was mutated by the aborted
    // step: the retry must re-read the committed state.
    evict_resident(rec.agent);
    txm_.abort_tx(tx);
    trace(TraceKind::step_abort, step.method + ": " +
                                     ctx.fatal_status().to_string() +
                                     " (will restart)");
    ++attempts_[rec.record_id];
    release_slot(rec);
    retry_later(rec);
    return;
  }

  if (ctx.failed_permanently()) {
    // The step cannot succeed, ever (e.g. missing permission, Sec. 1).
    // Flexible-itinerary semantics: try the next option of the innermost
    // enclosing alternatives entry (ref [14]); otherwise abandon the
    // innermost non-vital sub-itinerary (Sec. 5); otherwise the agent
    // fails.
    evict_resident(rec.agent);
    auto pre_agent = load_committed_agent(rec);
    txm_.abort_tx(tx);
    trace(TraceKind::step_abort,
          step.method + " failed permanently: " +
              ctx.permanent_status().to_string());
    const auto plan = failure_plan_for(*pre_agent);
    if (!plan.has_value()) {
      fail_agent(rec, ctx.permanent_status());
      return;
    }
    const auto check = check_rollback_target(*pre_agent, plan->target);
    if (!check.is_ok()) {
      fail_agent(rec, check);
      return;
    }
    trace(TraceKind::rollback_begin,
          std::string(plan->completion == QueueRecord::Completion::next_alt
                          ? "try next alternative"
                          : "abandon non-vital sub") +
              " (SP_" + std::to_string(plan->target.value()) + ")");
    initiate_rollback(rec, plan->target, plan->completion);
    return;
  }

  if (ctx.rollback_request().has_value()) {
    // Fig. 4a/5a: abort the step transaction; the agent state and log read
    // from stable storage (the queue record) are the pre-step state.
    evict_resident(rec.agent);
    auto pre_agent = load_committed_agent(rec);
    const auto target =
        resolve_rollback_target(*pre_agent, *ctx.rollback_request());
    txm_.abort_tx(tx);
    trace(TraceKind::step_abort, step.method + " (rollback requested)");
    if (!target.is_ok()) {
      fail_agent(rec, target.status());
      return;
    }
    trace(TraceKind::rollback_begin,
          "to SP_" + std::to_string(target.value().value()) +
              (ctx.rollback_request()->skip ? " (abandon)" : ""));
    initiate_rollback(rec, target.value(),
                      ctx.rollback_request()->skip
                          ? QueueRecord::Completion::skip_sub
                          : QueueRecord::Completion::resume);
    return;
  }

  complete_step(tx, rec, std::move(agent), ctx);
}

SavepointId NodeRuntime::savepoint_at_depth(const Agent& agent,
                                            std::uint32_t depth) {
  const auto& stack = agent.savepoint_stack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->origin == rollback::SavepointOrigin::sub_itinerary &&
        it->depth == depth) {
      return it->id;
    }
  }
  return SavepointId::invalid();
}

std::optional<NodeRuntime::FailurePlan> NodeRuntime::failure_plan_for(
    const Agent& agent) const {
  const auto& itinerary = agent.itinerary();
  const auto levels = Itinerary::active_subs(agent.position());
  for (auto p = levels.rbegin(); p != levels.rend(); ++p) {
    const auto depth = static_cast<std::uint32_t>(p->size());
    switch (itinerary.prefix_kind(*p)) {
      case Itinerary::PrefixKind::alt_option: {
        // Untried options left? Roll this option back and enter the next.
        if (p->back() + 1 < itinerary.alt_option_count(*p)) {
          const auto sp = savepoint_at_depth(agent, depth);
          if (sp.valid()) {
            return FailurePlan{sp, QueueRecord::Completion::next_alt};
          }
        }
        break;  // options exhausted: keep searching outward
      }
      case Itinerary::PrefixKind::sub: {
        if (!itinerary.entry_at(*p).vital()) {
          const auto sp = savepoint_at_depth(agent, depth);
          if (sp.valid()) {
            return FailurePlan{sp, QueueRecord::Completion::skip_sub};
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return std::nullopt;
}

void NodeRuntime::complete_step(TxId tx, const QueueRecord& rec,
                                std::shared_ptr<Agent> agent,
                                StepContext& ctx) {
  const auto& itinerary = std::as_const(*agent).itinerary();
  const StepEntry step = itinerary.step_at(agent->position());
  auto& log = agent->log();

  // Multi-agent executions (Sec. 6): prepare and stage the children
  // spawned during this step. Their launch records enter THIS node's
  // queue within the step transaction, so spawns commit atomically with
  // the step — exactly once, like any other step effect.
  std::vector<AgentId> spawned;
  for (auto& spawn : ctx.spawns()) {
    auto child = p_.prepare_child(*spawn.child, agent->id(), id_,
                                  spawn.result_node, spawn.result_key);
    MAR_CHECK_MSG(child.is_ok(),
                  "spawned child is invalid: " << child.status());
    QueueRecord launch_rec;
    launch_rec.record_id = p_.next_record_id();
    launch_rec.agent = child.value();
    launch_rec.kind = RecordKind::launch;
    launch_rec.payload = encode_agent(*spawn.child);
    qm_.stage_enqueue(tx, std::move(launch_rec));
    spawned.push_back(child.value());
    trace(TraceKind::msg,
          "spawned child agent " + std::to_string(child.value().value()));
  }

  // Append the step's log segment: BOS, OE..., EOS (Sec. 4.2, Fig. 2).
  log.push(rollback::BeginOfStepEntry{id_, step.method});
  bool has_mixed = false;
  for (const auto& op : ctx.logged_ops()) {
    has_mixed = has_mixed || op.kind == OpEntryKind::mixed;
    log.push(op);
  }
  // Compensating a spawn cancels the child; logged after the step's own
  // entries so that (in reverse execution order) children are cancelled
  // before the step's other effects are compensated.
  for (const auto child : spawned) {
    serial::Value params = serial::Value::empty_map();
    params.set("child", static_cast<std::int64_t>(child.value()));
    log.push(OperationEntry{OpEntryKind::agent, "sys.cancel_child",
                            std::move(params), NodeId::invalid(),
                            std::string{}});
  }
  rollback::EndOfStepEntry eos;
  eos.node = id_;
  eos.has_mixed = has_mixed;
  eos.cannot_compensate = ctx.not_compensatable();
  for (const auto n : step.locations) {
    if (n != id_) eos.alternatives.push_back(n);
  }
  log.push(std::move(eos));

  // Advance the itinerary; write savepoints; GC/discard (Sec. 4.4.2).
  const Position from = agent->position();
  const auto next = itinerary.next_step(from);
  p_.advance_itinerary(id_, *agent, from, next, ctx.requested_savepoints());
  if (next.has_value()) {
    agent->set_position(*next);
  } else {
    agent->set_run_state(Agent::RunState::done);
  }

  const auto service = static_cast<sim::TimeUs>(ctx.resource_ops_invoked()) *
                       p_.config().resource_op_service_us;
  const auto exec_begin = p_.sim().now();
  timers_.after(service, [this, tx, rec, agent = std::move(agent), spawned,
                  exec_begin] {
    if (p_.spans().enabled()) {
      // The step body plus its modeled service time — the hop's
      // step-exec phase (the commit phase starts right here).
      record_span(rec, SpanKind::step_exec, exec_begin);
    }
    if (agent->run_state() == Agent::RunState::done) {
      commit_terminal(tx, rec, *agent, AgentOutcome::State::done,
                      Status::ok());
      return;
    }
    // Route to the next step's node.
    const NodeId dest = pick_node(rec, step_locations(*agent));
    // The hot path: when the agent stays on this node, commit only the
    // step's delta into its append-only stable record — O(changed state)
    // instead of O(total state). Spawning steps write a full image (the
    // children's launch records reference the parent's committed state).
    const bool incremental =
        p_.config().incremental_commit && dest == id_ && spawned.empty();
    QueueRecord next_rec;
    if (incremental) {
      next_rec = stage_incremental_image(tx, *agent, rec);
      // From here on the in-memory agent matches the staged durable image;
      // the next delta (if the commit succeeds) starts at this state.
      agent->mark_commit_baseline();
    } else {
      next_rec =
          make_record(*agent, RecordKind::execute, SavepointId::invalid());
    }
    propagate_trace(rec, next_rec);
    if (dest != id_) {
      trace(TraceKind::migrate,
            "agent " + std::to_string(rec.agent.value()) + " -> N" +
                std::to_string(dest.value()) + " (" +
                std::to_string(next_rec.payload.size()) + " bytes)");
    }
    const auto commit_begin = p_.sim().now();
    stage_and_commit(tx, dest, std::move(next_rec),
                     [this, rec, spawned, agent, incremental, exec_begin,
                      commit_begin](bool committed) {
                       if (committed) {
                         trace(TraceKind::step_commit, "T committed");
                         // Commit wait: group-commit flush for local
                         // handoffs, flush + convoy round trip for
                         // migrations (its convoy-wait / wire children
                         // land from the shipment manager).
                         span_commit_flush(rec, commit_begin);
                         if (p_.spans().enabled()) {
                           hist_step_us_->record(p_.sim().now() - exec_begin);
                         }
                         span_hop_end(rec);
                         attempts_.erase(rec.record_id);
                         if (incremental) {
                           // Keep the committed state resident: the next
                           // local step skips the full decode entirely.
                           resident_[rec.agent] = agent;
                         } else {
                           evict_resident(rec.agent);
                         }
                       } else {
                         trace(TraceKind::step_abort,
                               "commit failed (will restart)");
                         ++attempts_[rec.record_id];
                         evict_resident(rec.agent);
                         // The spawns died with the transaction; the step
                         // will re-execute and re-spawn under fresh ids.
                         for (const auto child : spawned) {
                           p_.forget_agent(child);
                         }
                       }
                       release_slot(rec);
                       if (committed) {
                         pump();
                       } else {
                         retry_later(rec);
                       }
                     });
  });
}

// ---------------------------------------------------------------------------
// Rollback (Sec. 4.3 / 4.4)
// ---------------------------------------------------------------------------

Result<SavepointId> NodeRuntime::resolve_rollback_target(
    const Agent& agent, const RollbackRequest& request) const {
  SavepointId target = SavepointId::invalid();
  if (std::holds_alternative<SavepointId>(request.target)) {
    target = std::get<SavepointId>(request.target);
  } else {
    target = agent.sub_savepoint(std::get<std::uint32_t>(request.target));
  }
  if (!target.valid()) {
    return Status(Errc::not_found, "no such rollback target");
  }
  MAR_RETURN_IF_ERROR(check_rollback_target(agent, target));
  return target;
}

Status NodeRuntime::check_rollback_target(const Agent& agent,
                                          SavepointId target) const {
  const auto& log = agent.log();
  if (!log.contains_savepoint(target)) {
    return Status(Errc::not_found,
                  "savepoint " + std::to_string(target.value()) +
                      " is not in the rollback log");
  }
  // Sec. 3.2: a step containing a non-compensatable operation cannot be
  // rolled back after commit.
  if (log.poisoned_since(target)) {
    return Status(Errc::not_compensatable,
                  "a step between here and the target savepoint is not "
                  "compensatable");
  }
  return Status::ok();
}

namespace {
const char* completion_suffix(QueueRecord::Completion c) {
  switch (c) {
    case QueueRecord::Completion::resume: return "";
    case QueueRecord::Completion::skip_sub: return " (abandoned)";
    case QueueRecord::Completion::cancel: return " (cancelled)";
    case QueueRecord::Completion::next_alt: return " (next alternative)";
  }
  return "";
}

/// Drop the trailing savepoints that are not `target` and report whether
/// the rollback reached it. The dropped ones are dead: they belong to
/// sub-itineraries being rolled back (this is the "tested before the agent
/// is written to stable storage" of Fig. 4b, generalized to the nested
/// case where several savepoints were established back-to-back).
bool drop_to_target(rollback::RollbackLog& log, SavepointId target) {
  while (!log.empty() && log.back().is_savepoint() &&
         log.back().savepoint().id != target) {
    (void)log.pop();
  }
  return log.trailing_savepoint() == target;
}
}  // namespace

void NodeRuntime::initiate_rollback(const QueueRecord& rec,
                                    SavepointId target,
                                    QueueRecord::Completion completion) {
  // Fig. 4a / 5a: new transaction; read agent + LOG from stable storage.
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  evict_resident(rec.agent);
  std::shared_ptr<Agent> agent = load_committed_agent(rec);
  const bool cancel = completion == QueueRecord::Completion::cancel;

  if (drop_to_target(agent->log(), target)) {
    // The savepoint was set directly before the aborting step: the
    // rollback is already finished; start the next step transaction. A
    // cancellation with nothing committed since launch terminates.
    if (!cancel) {
      trace(TraceKind::rollback_done,
            "savepoint SP_" + std::to_string(target.value()) +
                " reached immediately");
      agent->note_rollback_completed();
    }
    rollback_reached(tx, rec, *agent, target, completion,
                     /*trace_resume=*/false);
    return;
  }

  // Send the agent (or just the record, when it can stay) towards the
  // first compensation transaction.
  route_compensation(tx, rec, *agent, target, completion,
                     committed_agent_bytes(rec),
                     cancel ? "cancel: rollback log has no end-of-step"
                            : "rollback log has no end-of-step entry",
                     cancel ? "cancel rollback" : nullptr);
}

void NodeRuntime::rollback_reached(TxId tx, const QueueRecord& rec,
                                   Agent& agent, SavepointId target,
                                   QueueRecord::Completion completion,
                                   bool trace_resume) {
  if (completion == QueueRecord::Completion::cancel) {
    // Multi-agent executions: a complete rollback that terminates the
    // agent instead of resuming it.
    commit_terminal(tx, rec, agent, AgentOutcome::State::cancelled,
                    Status(Errc::tx_aborted, "cancelled"));
    return;
  }
  if (completion == QueueRecord::Completion::skip_sub &&
      !apply_skip(agent, target)) {
    commit_terminal(tx, rec, agent, AgentOutcome::State::done, Status::ok());
    return;
  }
  if (completion == QueueRecord::Completion::next_alt) {
    apply_next_alternative(agent, target);
  }
  const NodeId dest = pick_node(rec, step_locations(agent));
  QueueRecord next_rec =
      make_record(agent, RecordKind::execute, SavepointId::invalid());
  if (trace_resume && dest != id_) {
    trace(TraceKind::migrate,
          "agent " + std::to_string(rec.agent.value()) + " -> N" +
              std::to_string(dest.value()) + " (resume)");
  }
  hand_off(tx, dest, std::move(next_rec), rec);
}

void NodeRuntime::route_compensation(TxId tx, const QueueRecord& rec,
                                     const Agent& agent, SavepointId target,
                                     QueueRecord::Completion completion,
                                     std::size_t agent_bytes,
                                     const char* exhausted,
                                     const char* transfer_note) {
  const auto dests = next_compensation_nodes(agent.log(), agent, agent_bytes);
  if (dests.empty()) {
    txm_.abort_tx(tx);
    fail_agent(rec, Status(Errc::protocol_error, exhausted));
    return;
  }
  const NodeId dest = pick_node(rec, dests);
  QueueRecord comp_rec = make_record(agent, RecordKind::compensate, target);
  comp_rec.completion = completion;
  if (dest != id_) {
    ++p_.rollback_transfers();
    trace(TraceKind::migrate,
          "agent " + std::to_string(rec.agent.value()) + " -> N" +
              std::to_string(dest.value()) + " (" +
              (transfer_note != nullptr
                   ? std::string(transfer_note)
                   : "rollback, " + std::to_string(comp_rec.payload.size()) +
                         " bytes") +
              ")");
  }
  hand_off(tx, dest, std::move(comp_rec), rec);
}

std::vector<NodeId> NodeRuntime::next_compensation_nodes(
    const rollback::RollbackLog& log, const Agent& agent,
    std::size_t agent_bytes) const {
  const auto* eos = log.last_end_of_step();
  if (eos == nullptr) return {};
  const auto strategy = p_.config().strategy;
  std::vector<NodeId> dests;
  if (strategy != RollbackStrategy::basic && !eos->has_mixed) {
    // Fig. 5a/5b: without a mixed compensation entry the agent stays where
    // it is; resource compensation entries are shipped instead.
    dests.push_back(id_);
    return dests;
  }
  if (strategy == RollbackStrategy::adaptive && eos->node != id_ &&
      ship_mixed_is_cheaper(log, agent, eos->node, agent_bytes)) {
    // Sec. 4.4.1 "further optimizations": the performance model says
    // shipping the compensation objects beats transferring the agent.
    dests.push_back(id_);
    return dests;
  }
  dests.push_back(eos->node);
  for (const auto n : eos->alternatives) dests.push_back(n);
  return dests;
}

bool NodeRuntime::ship_mixed_is_cheaper(const rollback::RollbackLog& log,
                                        const Agent& agent, NodeId dest,
                                        std::size_t agent_bytes) const {
  // Price the two options with the ref [16] cost structure (latency +
  // size/bandwidth), evaluated on the actual link parameters:
  //   ship:    request (operation entries + weak-state snapshot) there,
  //            reply (updated weak state) back;
  //   migrate: the whole agent — state, itinerary and attached rollback
  //            log — travels there (and would later have to travel on).
  std::size_t ops_bytes = 0;
  for (const auto* op : log.last_step_ops()) ops_bytes += op->byte_size();
  const auto weak_bytes = agent.data().weak_image().encoded_size();
  const auto request = ops_bytes + weak_bytes + 16;
  const auto reply = weak_bytes + 16;
  const auto ship_time = p_.net().transfer_time(id_, dest, request) +
                         p_.net().transfer_time(dest, id_, reply);
  const auto migrate_time = p_.net().transfer_time(id_, dest, agent_bytes);
  return ship_time <= migrate_time;
}

Status NodeRuntime::run_comp_ops(TxId tx,
                                 const std::vector<OperationEntry>& ops,
                                 serial::Value* weak) {
  for (const auto& op : ops) {
    rollback::CompensationContext ctx(op.kind, op.params, p_.sim().now(), &rm_,
                                      tx, weak);
    Status st = p_.compensations().run(op.comp_op, ctx);
    trace(TraceKind::comp_op,
          std::string(rollback::to_string(op.kind)) + " " + op.comp_op +
              (st.is_ok() ? "" : " FAILED: " + st.to_string()));
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

void NodeRuntime::execute_compensation(const QueueRecord& rec) {
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = decode(rec.payload);
  const SavepointId target = rec.rollback_target;
  trace(TraceKind::comp_begin,
        "CT for agent " + std::to_string(rec.agent.value()) + " (target SP_" +
            std::to_string(target.value()) + ")");
  // Sec. 4.3: strongly reversible objects must not be accessed until the
  // savepoint is reached.
  agent->data().set_mode(DataSpace::Mode::compensating);
  auto& log = agent->log();

  // Fig. 4b/5b: drop trailing savepoint entries (they cannot be the target
  // — that was checked before the agent was written to stable storage).
  while (!log.empty() && log.back().is_savepoint()) {
    MAR_CHECK_MSG(log.back().savepoint().id != target,
                  "target savepoint would be deleted");
    (void)log.pop();
  }
  if (log.empty() || log.back().kind() != EntryKind::end_of_step) {
    txm_.abort_tx(tx);
    fail_agent(rec, Status(Errc::protocol_error,
                           "malformed rollback log (no EOS)"));
    return;
  }
  const rollback::EndOfStepEntry eos = log.pop().end_of_step();
  // Collect this step's operation entries; popping yields them in reverse
  // logging order, which is exactly the compensation execution order.
  std::vector<OperationEntry> ops;
  for (;;) {
    MAR_CHECK_MSG(!log.empty(), "rollback log has no begin-of-step entry");
    auto entry = log.pop();
    if (entry.kind() == EntryKind::begin_of_step) break;
    MAR_CHECK(entry.kind() == EntryKind::operation);
    ops.push_back(entry.operation());
  }

  // One placement decision (Fig. 4b, Fig. 5b, Sec. 4.4.1): which entries
  // run here, and which at the step's resource node.
  const auto strategy = p_.config().strategy;
  const bool remote = eos.node != id_;
  // Adaptive strategy: the routing decision kept the agent here because
  // shipping the whole list (mixed entries need the resource and the weak
  // state in log order at one place) plus a weak snapshot is cheaper.
  const bool ship_mixed =
      strategy == RollbackStrategy::adaptive && eos.has_mixed && remote;
  std::vector<OperationEntry> local;
  std::vector<OperationEntry> shipped;
  if (ship_mixed) {
    ++p_.mixed_ships();
    shipped = std::move(ops);
  } else if (strategy != RollbackStrategy::basic && !eos.has_mixed &&
             remote) {
    // Optimized algorithm (Fig. 5b): the RCEs go to the resource node,
    // the ACEs run here concurrently.
    for (auto& op : ops) {
      MAR_CHECK_MSG(op.kind != OpEntryKind::mixed,
                    "mixed entry in a step whose EOS mixed-flag is false");
      (op.kind == OpEntryKind::agent ? local : shipped).push_back(std::move(op));
    }
  } else {
    // Everything runs here (Fig. 4b, or a mixed step the agent travelled
    // to); Sec. 4.3's fault-tolerant extension allows the EOS entry's
    // alternative nodes.
    MAR_CHECK_MSG(!remote || std::find(eos.alternatives.begin(),
                                       eos.alternatives.end(),
                                       id_) != eos.alternatives.end(),
                  "compensation transaction routed to the wrong node");
    local = std::move(ops);
  }

  // Join the shipped list's ack and the local list's service time: the
  // first failure wins, and the last arrival commits or retries the CT.
  struct Join {
    int pending = 1;
    Status status;
  };
  auto join = std::make_shared<Join>();
  auto arrived = [this, tx, rec, agent, join](Status st) {
    if (!st.is_ok() && join->status.is_ok()) join->status = std::move(st);
    if (--join->pending > 0) return;
    if (join->status.is_ok()) {
      finish_compensation(tx, rec, agent);
      return;
    }
    trace(TraceKind::comp_abort, join->status.to_string());
    const auto attempts = ++attempts_[rec.record_id];
    const auto max = p_.config().max_compensation_attempts;
    txm_.abort_tx(tx);
    if (max > 0 && attempts >= max) {
      // Sec. 3.2: some compensations cannot succeed (e.g. the withdrawn
      // deposit); surface the permanently failed rollback to the owner.
      fail_agent(rec, Status(Errc::compensation_failed,
                             "compensation permanently failed: " +
                                 join->status.to_string()));
      return;
    }
    release_slot(rec);
    retry_later(rec);
  };
  if (!shipped.empty()) {
    ++join->pending;
    // A mixed list travels with the weak snapshot; the acked weak state
    // is merged back and becomes durable with the CT.
    serial::Value* weak = ship_mixed ? agent->data().weak_slots() : nullptr;
    ship_comp_ops(tx, eos.node, shipped, weak,
                  [arrived, weak](serial::Decoder* ack) {
                    if (ack == nullptr && weak != nullptr) {
                      return arrived(Status(Errc::unreachable,
                                            "mce shipment unacknowledged"));
                    }
                    if (ack == nullptr || !ack->read_bool()) {
                      return arrived(Status(
                          Errc::compensation_failed,
                          weak != nullptr
                              ? "shipped mixed compensation failed"
                              : "shipped resource compensation failed"));
                    }
                    if (weak != nullptr) weak->deserialize(*ack);
                    arrived(Status::ok());
                  });
  }
  Status st = run_comp_ops(tx, local, agent->data().weak_slots());
  timers_.after(
      static_cast<sim::TimeUs>(local.size()) * p_.config().comp_op_service_us,
      [arrived = std::move(arrived), st = std::move(st)] { arrived(st); });
}

void NodeRuntime::finish_compensation(TxId tx, const QueueRecord& rec,
                                      std::shared_ptr<Agent> agent) {
  const SavepointId target = rec.rollback_target;
  if (drop_to_target(agent->log(), target)) {
    // Target reached: restore the strongly reversible objects from the
    // savepoint entry (without deleting it) and start the next step.
    restore_at_savepoint(*agent, target);
    trace(TraceKind::rollback_done,
          "agent " + std::to_string(rec.agent.value()) + " rolled back to SP_" +
              std::to_string(target.value()) +
              completion_suffix(rec.completion));
    rollback_reached(tx, rec, *agent, target, rec.completion,
                     /*trace_resume=*/true);
    return;
  }

  // Not there yet: write the agent (and log) towards the next compensation
  // transaction (Fig. 4b), or keep it local when the optimized algorithm
  // can ship the next step's RCEs (Fig. 5b).
  route_compensation(tx, rec, *agent, target, rec.completion,
                     rec.payload.size(),
                     "target savepoint not reached but log is exhausted");
}

bool NodeRuntime::apply_skip(Agent& agent, SavepointId target) {
  const auto* sp = agent.log().find_savepoint(target);
  MAR_CHECK(sp != nullptr);
  MAR_CHECK_MSG(sp->origin == rollback::SavepointOrigin::sub_itinerary,
                "abandon targets must be sub-itinerary savepoints");
  // The abandoned sub-itinerary is the depth-long prefix of the position
  // the savepoint would normally resume at.
  MAR_CHECK(sp->depth > 0 && sp->depth < sp->resume_position.size());
  const Position from = sp->resume_position;
  const Position prefix(from.begin(),
                        from.begin() + static_cast<long>(sp->depth));
  const auto next = std::as_const(agent).itinerary().next_step(prefix);
  trace(TraceKind::msg,
        "abandoning sub-itinerary at depth " + std::to_string(sp->depth));
  // Treat the abandoned sub-itinerary as exited: its savepoint entry is
  // garbage-collected (or the whole log discarded for a top-level sub),
  // and savepoints for newly entered sub-itineraries are established —
  // the same bookkeeping as a normal step boundary (Sec. 4.4.2).
  p_.advance_itinerary(id_, agent, from, next, {});
  if (!next.has_value()) {
    agent.set_run_state(Agent::RunState::done);
    return false;
  }
  agent.set_position(*next);
  return true;
}

void NodeRuntime::apply_next_alternative(Agent& agent, SavepointId target) {
  const auto* sp = agent.log().find_savepoint(target);
  MAR_CHECK(sp != nullptr);
  MAR_CHECK_MSG(sp->depth >= 2, "alternative option savepoints sit at least "
                                "two levels deep");
  const Position from = sp->resume_position;
  Position option(from.begin(), from.begin() + static_cast<long>(sp->depth));
  const auto& itinerary = std::as_const(agent).itinerary();
  MAR_CHECK(itinerary.prefix_kind(option) ==
            Itinerary::PrefixKind::alt_option);
  Position next_option = option;
  ++next_option.back();
  MAR_CHECK_MSG(next_option.back() <
                    itinerary.alt_option_count(option),
                "no alternative option left to enter");
  const auto next = itinerary.first_step_under(next_option);
  MAR_CHECK_MSG(next.has_value(), "alternative option contains no steps");
  trace(TraceKind::msg,
        "entering alternative option " + std::to_string(next_option.back()));
  // Exits the failed option (GC its savepoint) and enters the next one
  // (fresh savepoint) — the alternatives entry itself stays active.
  p_.advance_itinerary(id_, agent, from, next, {});
  agent.set_position(*next);
}

void NodeRuntime::restore_at_savepoint(Agent& agent, SavepointId target) {
  auto strong = agent.log().strong_state_at(target);
  MAR_CHECK_MSG(strong.is_ok(), "cannot reconstruct strong state: "
                                    << strong.status());
  const auto* sp = agent.log().find_savepoint(target);
  MAR_CHECK(sp != nullptr);
  agent.data().restore_strong(strong.value());
  agent.data().set_mode(DataSpace::Mode::normal);
  agent.set_position(sp->resume_position);
  agent.set_run_state(Agent::RunState::running);
  // Savepoints established after the target died with the rollback.
  auto& stack = agent.savepoint_stack();
  std::erase_if(stack, [target](const SavepointStackEntry& e) {
    return e.id.value() > target.value();
  });
  agent.set_last_savepoint_strong(strong.value());
  agent.set_force_full_savepoint(false);
  agent.note_rollback_completed();
  trace(TraceKind::restore,
        "strongly reversible objects restored from SP_" +
            std::to_string(target.value()));
}

}  // namespace mar::agent
