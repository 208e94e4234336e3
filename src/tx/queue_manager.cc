#include "tx/queue_manager.h"

#include "util/check.h"

namespace mar::tx {

void QueueManager::RecordOp::serialize(serial::Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind));
  enc.write_string(key);
  enc.write_bytes(bytes);
}

void QueueManager::RecordOp::deserialize(serial::Decoder& dec) {
  kind = static_cast<Kind>(dec.read_u8());
  key = dec.read_string();
  bytes = dec.read_bytes();
}

std::size_t QueueManager::RecordOp::byte_size() const {
  return 1 + serial::blob_size(key.size()) + serial::blob_size(bytes.size());
}

void QueueManager::Staged::serialize(serial::Encoder& enc) const {
  enc.write_varint(enqueues.size());
  for (const auto& r : enqueues) r.serialize(enc);
  enc.write_varint(removes.size());
  for (const auto id : removes) enc.write_u64(id);
  enc.write_varint(record_ops.size());
  for (const auto& op : record_ops) op.serialize(enc);
}

std::size_t QueueManager::Staged::byte_size() const {
  std::size_t n = serial::varint_size(enqueues.size()) +
                  serial::varint_size(removes.size()) + 8 * removes.size() +
                  serial::varint_size(record_ops.size());
  for (const auto& r : enqueues) n += r.byte_size();
  for (const auto& op : record_ops) n += op.byte_size();
  return n;
}

void QueueManager::Staged::deserialize(serial::Decoder& dec) {
  const auto ne = dec.read_count();
  enqueues.resize(ne);
  for (auto& r : enqueues) r.deserialize(dec);
  const auto nr = dec.read_count();
  removes.resize(nr);
  for (auto& id : removes) id = dec.read_u64();
  const auto no = dec.read_count();
  record_ops.resize(no);
  for (auto& op : record_ops) op.deserialize(dec);
}

void QueueManager::stage_enqueue(TxId tx, storage::QueueRecord record) {
  staged_[tx].enqueues.push_back(std::move(record));
}

void QueueManager::stage_remove(TxId tx, std::uint64_t record_id) {
  staged_[tx].removes.push_back(record_id);
}

void QueueManager::stage_record_reset(TxId tx, std::string key,
                                      serial::Bytes base) {
  staged_[tx].record_ops.push_back(
      RecordOp{RecordOp::Kind::reset, std::move(key), std::move(base)});
}

void QueueManager::stage_record_append(TxId tx, std::string key,
                                       serial::Bytes delta) {
  staged_[tx].record_ops.push_back(
      RecordOp{RecordOp::Kind::append, std::move(key), std::move(delta)});
}

void QueueManager::stage_record_erase(TxId tx, std::string key) {
  staged_[tx].record_ops.push_back(
      RecordOp{RecordOp::Kind::erase, std::move(key), {}});
}

const storage::QueueRecord* QueueManager::next_eligible(
    const std::unordered_set<AgentId>& busy_agents) {
  // Aged admission: score = releases − bypasses, minimum wins, FIFO order
  // breaks ties; with no aborts every score is 0 — the classic FIFO
  // offer. Scores start at 0 and a record is only bypassed while its
  // score is strictly above the admitted record's, so none drops below 0
  // and the first eligible zero-score record ends the scan.
  auto eligible = [&](const storage::QueueRecord& r) {
    return !stable_.claimed(r.record_id) && !busy_agents.contains(r.agent);
  };
  const storage::QueueRecord* first = nullptr;
  const storage::QueueRecord* best = nullptr;
  std::uint32_t best_score = 0;
  for (const auto& r : stable_.queue()) {
    ++stats_.records_examined;
    if (!eligible(r)) continue;
    MAR_DCHECK_MSG(r.agent.valid(),
                   "queued record " << r.record_id << " has no agent");
    const auto it = score_.find(r.record_id);
    const std::uint32_t score = it == score_.end() ? 0 : it->second;
    if (first == nullptr) first = &r;
    if (best == nullptr || score < best_score) {
      best = &r;
      best_score = score;
      if (score == 0) break;
    }
  }
  if (best == nullptr) return nullptr;
  // Age every eligible record the admitted one overtook.
  if (best != first) {
    for (const auto& r : stable_.queue()) {
      if (&r == best) break;
      ++stats_.records_examined;
      if (!eligible(r)) continue;
      const auto it = score_.find(r.record_id);
      MAR_DCHECK_MSG(it != score_.end() && it->second > best_score,
                     "bypassed record " << r.record_id << " scores below 0");
      if (--it->second == 0) score_.erase(it);
    }
  }
  ++stats_.admissions;
  // An admitted record must still be offerable: queued and unclaimed —
  // the claim marks and the queue can only have diverged through a
  // bookkeeping bug, which would hand one record to two slots.
  MAR_DCHECK(stable_.contains_record(best->record_id));
  MAR_DCHECK(!stable_.claimed(best->record_id));
  return best;
}

bool QueueManager::claim(std::uint64_t record_id) {
  return stable_.claim(record_id);
}

void QueueManager::release(std::uint64_t record_id) {
  // Terminal paths release after a committed transaction consumed the
  // record; only an abort of a still-queued record counts for aging.
  if (stable_.contains_record(record_id)) ++score_[record_id];
  stable_.release_claim(record_id);
}

bool QueueManager::has_tx(TxId tx) const { return staged_.contains(tx); }

bool QueueManager::prepare(TxId tx) {
  auto it = staged_.find(tx);
  if (it == staged_.end()) return false;
  if (it->second.prepared) return true;  // idempotent
  // A transaction staging nothing at all should never reach prepare: the
  // coordinator only enlists participants that hold state for it.
  MAR_DCHECK_MSG(!it->second.enqueues.empty() ||
                     !it->second.removes.empty() ||
                     !it->second.record_ops.empty(),
                 "empty staging prepared for tx " << tx.value());
  serial::Encoder enc(it->second.byte_size());
  it->second.serialize(enc);
  stable_.put(prep_key(tx), std::move(enc).take());
  it->second.prepared = true;
  return true;
}

void QueueManager::commit(TxId tx) {
  auto it = staged_.find(tx);
  if (it == staged_.end()) return;  // idempotent
  for (auto& r : it->second.enqueues) {
    if (now_fn_) r.enqueued_us = now_fn_();
    stable_.enqueue(std::move(r));
  }
  for (const auto id : it->second.removes) {
    stable_.remove(id);
    score_.erase(id);
  }
  // Record-area ops apply in staging order (a reset establishing a base
  // may be followed by the first delta append in the same transaction).
  for (auto& op : it->second.record_ops) {
    switch (op.kind) {
      case RecordOp::Kind::reset:
        stable_.record_reset(op.key, std::move(op.bytes));
        break;
      case RecordOp::Kind::append:
        stable_.record_append(op.key, std::move(op.bytes));
        break;
      case RecordOp::Kind::erase:
        stable_.record_erase(op.key);
        break;
    }
  }
  stable_.erase(prep_key(tx));
  staged_.erase(it);
}

void QueueManager::abort(TxId tx) {
  staged_.erase(tx);
  stable_.erase(prep_key(tx));
}

void QueueManager::on_crash() {
  // Volatile (unprepared) staging evaporates with the crash; prepared
  // staging is reloaded from stable storage. Aging bookkeeping dies with
  // the runtime, like the claims it scores.
  staged_.clear();
  score_.clear();
  stable_.for_each_with_prefix(
      "prep.queue:", [this](const std::string& key, const serial::Bytes& bytes) {
        const TxId tx(std::stoull(key.substr(11)));
        serial::Decoder dec(bytes);
        Staged s;
        s.deserialize(dec);
        s.prepared = true;
        staged_.emplace(tx, std::move(s));
      });
}

}  // namespace mar::tx
