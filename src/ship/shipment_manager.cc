#include "ship/shipment_manager.h"

#include <algorithm>
#include <cstring>

#include "agent/agent.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::ship {

namespace {

constexpr std::uint64_t kHashMul[4] = {
    0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull,
    0xd6e8feb86659fd93ull};

/// One lane step: xor the word in, multiply, fold the high bits down.
/// Bijective in the word for a fixed lane and in the lane for a fixed
/// word, so a changed word changes the lane for good.
std::uint64_t mix_lane(std::uint64_t lane, std::uint64_t word,
                       std::uint64_t mul) {
  lane = (lane ^ word) * mul;
  return lane ^ (lane >> 31);
}

/// Final avalanche (the MurmurHash3 64-bit finalizer; bijective).
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

/// Convoy entry modes. Every entry doubles as the 2PC PREPARE for its
/// transaction, so a transfer costs one round trip — no tx.prepare
/// message ever crosses the wire for a convoyed hop.
constexpr std::uint8_t kFullFrame = 0;
constexpr std::uint8_t kDeltaFrame = 1;
/// Per-entry ack statuses.
constexpr std::uint8_t kStaged = 0;
constexpr std::uint8_t kNeedFull = 1;

}  // namespace

// ---------------------------------------------------------------------------
// content_hash
// ---------------------------------------------------------------------------

std::uint64_t content_hash(std::span<const std::uint8_t> bytes) {
  // Four independent lanes over 8-byte loads (native byte order: both
  // channel ends run in one process), then the lanes and the length fold
  // into one word. Every fold is bijective in each input, so images of
  // equal length that differ in any bit hash differently.
  std::uint64_t lanes[4] = {kHashMul[0], kHashMul[1], kHashMul[2],
                            kHashMul[3]};
  const auto* p = bytes.data();
  std::size_t n = bytes.size();
  const auto load = [](const std::uint8_t* at, std::size_t len) {
    std::uint64_t w = 0;
    std::memcpy(&w, at, len);
    return w;
  };
  for (; n >= 32; p += 32, n -= 32) {
    for (int i = 0; i < 4; ++i) {
      lanes[i] = mix_lane(lanes[i], load(p + 8 * i, 8), kHashMul[i]);
    }
  }
  for (int i = 0; n > 0; ++i) {  // at most three words and a partial one
    const auto len = std::min<std::size_t>(n, 8);
    lanes[i] = mix_lane(lanes[i], load(p, len), kHashMul[i]);
    p += len;
    n -= len;
  }
  std::uint64_t h = bytes.size() * kHashMul[0];
  for (int i = 0; i < 4; ++i) {
    h = (h ^ avalanche(lanes[i])) * kHashMul[(i + 1) % 4];
  }
  return avalanche(h);
}

// ---------------------------------------------------------------------------
// BaseCache
// ---------------------------------------------------------------------------

BaseEntry* BaseCache::find(NodeId peer, AgentId agent) {
  auto it = index_.find(key_of(peer, agent));
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.end(), lru_, it->second);
  return &it->second->second;
}

void BaseCache::put(NodeId peer, AgentId agent, serial::Bytes image,
                    std::uint64_t epoch, std::size_t budget) {
  erase(peer, agent);
  if (image.size() > budget) return;  // would evict everything else anyway
  total_ += image.size();
  const std::uint64_t hash = content_hash(image);
  const Key key = key_of(peer, agent);
  index_.emplace(key, lru_.emplace(lru_.end(), key,
                                   BaseEntry{std::move(image), epoch, hash}));
  while (total_ > budget) {
    total_ -= lru_.front().second.image.size();
    index_.erase(lru_.front().first);
    lru_.pop_front();
  }
}

void BaseCache::erase(NodeId peer, AgentId agent) {
  auto it = index_.find(key_of(peer, agent));
  if (it == index_.end()) return;
  total_ -= it->second->second.image.size();
  lru_.erase(it->second);
  index_.erase(it);
}

void BaseCache::clear() {
  lru_.clear();
  index_.clear();
  total_ = 0;
}

// ---------------------------------------------------------------------------
// ShipmentManager
// ---------------------------------------------------------------------------

ShipmentManager::ShipmentManager(agent::Platform& platform, NodeId self,
                                 sim::Timers& timers, tx::TxManager& txm,
                                 tx::QueueManager& qm,
                                 storage::StableStorage& storage)
    : p_(platform), self_(self), timers_(timers), txm_(txm), qm_(qm),
      storage_(storage) {}

void ShipmentManager::encode_frame(Pending& p) {
  const auto& cfg = p_.config();
  // Frame size depends on the delta-vs-full branch below; pre-sizing
  // would have to run the diff twice.
  serial::Encoder enc;  // mar-lint: small-frame
  enc.write_u64(p.tx.value());
  p.delta = false;
  if (cfg.ship_delta && !p.record.payload.empty()) {
    if (auto* base = send_cache_.find(p.dest, p.record.agent)) {
      std::optional<serial::Bytes> delta;
      try {
        delta = agent::encode_image_delta(base->image, p.record.payload);
      } catch (const serial::DecodeError&) {
        delta.reset();  // corrupt cache entry: fall back and re-establish
      }
      if (delta.has_value() &&
          static_cast<double>(delta->size()) <=
              cfg.ship_delta_max_ratio *
                  static_cast<double>(p.record.payload.size())) {
        p.delta = true;
        enc.write_u8(kDeltaFrame);
        // The delta frame carries the record verbatim minus its payload
        // (the delta follows instead). Swapping the payload aside keeps
        // the copy cheap AND future record fields on the delta path.
        serial::Bytes payload;
        payload.swap(p.record.payload);
        storage::QueueRecord header = p.record;
        payload.swap(p.record.payload);
        header.serialize(enc);
        enc.write_u64(base->epoch);
        enc.write_u64(base->hash);
        enc.write_bytes(*delta);
        ++stats_.delta_ships;
      } else {
        ++stats_.delta_fallbacks;
      }
    }
  }
  if (!p.delta) {
    enc.write_u8(kFullFrame);
    p.record.serialize(enc);
    ++stats_.full_images;
  }
  p.frame = std::move(enc).take();
}

void ShipmentManager::stage_remote(TxId tx, NodeId dest,
                                   storage::QueueRecord record,
                                   std::function<void(bool)> done) {
  const auto& cfg = p_.config();
  Pending p;
  p.tx = tx;
  p.dest = dest;
  p.record = std::move(record);
  p.staged_at = p_.sim().now();
  p.done = std::move(done);
  encode_frame(p);
  if (cfg.stage_timeout_us > 0) {
    // Covers the convoy dwell time, the transfer, and a need_full retry
    // round trip — which re-ships the FULL image, so the transfer term is
    // sized from the payload even when the first frame is a small delta.
    const auto wire = std::max(p.frame.size(), p.record.payload.size());
    const auto timeout = cfg.stage_timeout_us + kConvoyFlushUs +
                         4 * p_.net().transfer_time(self_, dest, wire);
    timers_.after(timeout, [this, tx] { timeout_pending(tx); });
  }
  auto& queue = convoy_queue_[dest];
  queue.push_back(std::move(p));
  auto& window = flush_windows_.try_emplace(dest, timers_, [this, dest] {
    flush_convoy(dest);
  }).first->second;
  if (queue.size() >= std::max<std::uint32_t>(1, cfg.ship_convoy_window)) {
    window.disarm();  // the NEXT partial convoy gets its full dwell
    flush_convoy(dest);
  } else {
    window.arm(kConvoyFlushUs);
  }
}

void ShipmentManager::flush_convoy(NodeId dest) {
  auto it = convoy_queue_.find(dest);
  if (it == convoy_queue_.end() || it->second.empty()) return;
  auto batch = std::move(it->second);
  convoy_queue_.erase(it);
  dispatch_convoy(dest, std::move(batch));
}

void ShipmentManager::dispatch_convoy(NodeId dest,
                                      std::vector<Pending> batch) {
  const auto now = p_.sim().now();
  std::size_t wire = 8 + serial::varint_size(batch.size());
  for (const auto& p : batch) wire += serial::blob_size(p.frame.size());
  serial::Encoder enc(wire);
  // Departure stamp: the receiver turns it into the wire span of each
  // entry (global simulation clock, so sender/receiver times compare).
  enc.write_u64(now);
  enc.write_varint(batch.size());
  for (const auto& p : batch) enc.write_bytes(p.frame);
  if (p_.spans().enabled()) {
    for (const auto& p : batch) {
      p_.spans().add(p.record.trace_id, 0, p.record.trace_parent,
                     SpanKind::convoy_wait, self_.value(),
                     p.record.agent.value(), p.staged_at, now);
    }
  }
  ++stats_.convoys_sent;
  stats_.entries_sent += batch.size();
  stats_.wire_payload_bytes += enc.size();
  p_.trace().emit(p_.sim().now(), TraceKind::convoy, self_.value(),
                  std::to_string(batch.size()) + " record(s) -> N" +
                      std::to_string(dest.value()) + " (" +
                      std::to_string(enc.size()) + " bytes)");
  for (auto& p : batch) {
    const auto tx = p.tx;
    awaiting_.insert_or_assign(tx, std::move(p));
  }
  p_.net().send(net::Message{self_, dest, msg::convoy, std::move(enc).take()});
}

void ShipmentManager::timeout_pending(TxId tx) {
  for (auto& [dest, queue] : convoy_queue_) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->tx != tx) continue;
      auto done = std::move(it->done);
      queue.erase(it);
      done(false);
      return;
    }
  }
  auto it = awaiting_.find(tx);
  if (it == awaiting_.end()) return;  // already acked
  auto done = std::move(it->second.done);
  awaiting_.erase(it);
  done(false);
}

void ShipmentManager::on_convoy(const net::Message& m) {
  serial::Decoder dec(m.payload);
  const auto sent_at = dec.read_u64();
  const auto count = dec.read_count();
  serial::Encoder ack(8 + serial::varint_size(count) + count * (8 + 1));
  ack.write_u64(epoch_tag_);
  ack.write_varint(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    serial::Decoder entry(dec.read_bytes_view());
    const TxId tx(entry.read_u64());
    const auto mode = entry.read_u8();
    storage::QueueRecord rec;
    rec.deserialize(entry);
    std::uint8_t status = kStaged;
    std::size_t wire_bytes = rec.payload.size();
    if (mode == kDeltaFrame) {
      const auto base_epoch = entry.read_u64();
      const auto base_hash = entry.read_u64();
      const auto delta = entry.read_bytes_view();
      entry.expect_end();
      wire_bytes = delta.size();
      auto* base = recv_cache_.find(m.from, rec.agent);
      if (base == nullptr || base_epoch != epoch_tag_ ||
          base->hash != base_hash) {
        // No usable base (crash wiped the cache, or the channels
        // diverged): ask for the full image instead of reconstructing
        // from the wrong state.
        status = kNeedFull;
      } else {
        try {
          rec.payload = agent::apply_image_delta(base->image, delta);
          MAR_DCHECK_MSG(rec.payload ==
                             agent::apply_image_delta_by_decode(
                                 p_.agent_types(), base->image, delta),
                         "image-level apply diverged from the decoded "
                         "apply for agent "
                             << rec.agent.value());
        } catch (const serial::DecodeError&) {
          // Divergence the hash did not catch: drop the base so the full
          // image answering need_full re-establishes the channel.
          recv_cache_.erase(m.from, rec.agent);
          status = kNeedFull;
        }
      }
    } else {
      MAR_CHECK_MSG(mode == kFullFrame, "unknown convoy entry mode");
      entry.expect_end();
    }
    if (status == kStaged) {
      if (p_.spans().enabled()) {
        // Staging/reconstruction is instantaneous in simulation time; the
        // apply span is a zero-width causal marker of where the record
        // landed and in which form.
        const auto now = p_.sim().now();
        p_.spans().add(rec.trace_id, 0, rec.trace_parent, SpanKind::wire,
                       self_.value(), rec.agent.value(), sent_at, now,
                       std::to_string(wire_bytes) + " bytes");
        p_.spans().add(rec.trace_id, 0, rec.trace_parent, SpanKind::apply,
                       self_.value(), rec.agent.value(), now, now,
                       mode == kDeltaFrame ? "delta" : "full");
      }
      storage_.note_shipment(wire_bytes, rec.payload.size());
      if (!rec.payload.empty()) {
        recv_cache_.put(m.from, rec.agent, rec.payload, epoch_tag_,
                        p_.config().ship_cache_bytes);
      }
      txm_.note_remote_staged(tx);
      qm_.stage_enqueue(tx, std::move(rec));
      // The staged entry doubles as the PREPARE (one round trip): queue
      // the prepare-and-vote now that the staged state exists. A
      // kNeedFull entry staged nothing, so no vote leaves — the
      // full-image retry carries the prepare again.
      txm_.on_piggybacked_prepare(tx, m.from);
    }
    ack.write_u64(tx.value());
    ack.write_u8(status);
  }
  p_.net().send(
      net::Message{self_, m.from, msg::convoy_ack, std::move(ack).take()});
}

void ShipmentManager::on_convoy_ack(const net::Message& m) {
  serial::Decoder dec(m.payload);
  const auto peer_epoch = dec.read_u64();
  const auto count = dec.read_count();
  for (std::uint64_t i = 0; i < count; ++i) {
    const TxId tx(dec.read_u64());
    const auto status = dec.read_u8();
    auto it = awaiting_.find(tx);
    if (it == awaiting_.end()) continue;  // timed out / duplicate ack
    if (status == kStaged) {
      Pending p = std::move(it->second);
      awaiting_.erase(it);
      // The shipped image is now the channel base on both ends, valid
      // under the receiver epoch the ack reported.
      if (!p.record.payload.empty()) {
        send_cache_.put(p.dest, p.record.agent, std::move(p.record.payload),
                        peer_epoch, p_.config().ship_cache_bytes);
      }
      p.done(true);
      continue;
    }
    // need_full: the receiver lost (or never had) the base. Drop ours and
    // re-ship the full image at once, under the same transaction — the
    // caller never notices beyond the extra round trip.
    ++stats_.need_full_retries;
    Pending p = std::move(it->second);
    awaiting_.erase(it);
    const auto dest = p.dest;
    send_cache_.erase(dest, p.record.agent);
    encode_frame(p);  // no cached base left: always a full frame now
    std::vector<Pending> retry;
    retry.push_back(std::move(p));
    dispatch_convoy(dest, std::move(retry));
  }
}

void ShipmentManager::on_node_state(bool up) {
  (void)up;
  // Every transition invalidates the channel world: the runtime already
  // invalidated the timers, in-flight shipments are dropped (their
  // coordinator-side transactions resolve through 2PC recovery), and both
  // cache sides are cleared — the epoch bump makes any base a remote
  // still references unmatchable, so the next delta against it is
  // answered need_full.
  ++epoch_tag_;
  convoy_queue_.clear();
  flush_windows_.clear();
  awaiting_.clear();
  send_cache_.clear();
  recv_cache_.clear();
}

}  // namespace mar::ship
