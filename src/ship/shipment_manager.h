// Delta-shipping migration subsystem: per-pair transfer channels with
// base+delta caching, convoy batching and cross-node commit coalescing.
//
// Migration images dominate the paper's cost model: every inter-node
// transfer ships the agent's full state — data space, itinerary and the
// attached rollback log — even though consecutive migrations of the same
// agent over the same (src, dst) pair differ only by the steps executed
// in between. The ShipmentManager owns all remote queue staging of a node
// and applies the PR 3 delta idea to the WIRE:
//
//   * per destination, a TransferChannel caches the last full image
//     shipped per agent (epoch- and hash-tagged, LRU-bounded under
//     PlatformConfig::ship_cache_bytes). The first migration of an agent
//     establishes the base; later migrations over the same pair ship only
//     encode_agent_delta_between(base, current) — the receiver holds the
//     matching base and reconstructs via apply_agent_delta;
//   * the fallback to a full image is automatic and self-healing: sender
//     cache miss, a rollback that broke the log-prefix property, a delta
//     exceeding ship_delta_max_ratio of the full image, or a receiver-side
//     reject (cache miss after a crash, channel-epoch mismatch, base-hash
//     divergence) answered with need_full;
//   * migrations decided toward the same destination within
//     ship_convoy_window ride ONE convoy message, so their participant-
//     side 2PC prepares/commits arrive together and coalesce into shared
//     stable-storage syncs (TxManager group commit, participant side).
//
// Durability is untouched: the receiver stages a SELF-CONTAINED full
// payload into its queue (reconstructed locally when a delta arrived), so
// prepared state, crash recovery and the exactly-once protocol see
// exactly the record they always saw — the cache is volatile pure
// optimization state, invalidated wholesale by a crash.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "agent/platform.h"
#include "net/network.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"
#include "tx/tx_manager.h"
#include "util/counters.h"
#include "util/ids.h"

namespace mar::ship {

/// Message type tags owned by the shipment layer.
namespace msg {
inline constexpr const char* convoy = "ship.convoy";
inline constexpr const char* convoy_ack = "ship.convoy_ack";
}  // namespace msg

/// Per-node shipping counters (A7 reports these). Relaxed atomics, like
/// StorageStats: safe to sample from a monitor thread while the world runs.
struct ShipStats {
  RelaxedCounter convoys_sent;       ///< convoy messages sent
  RelaxedCounter entries_sent;       ///< records shipped (incl. retries)
  RelaxedCounter full_images;        ///< entries shipped as full images
  RelaxedCounter delta_ships;        ///< entries shipped as deltas
  RelaxedCounter delta_fallbacks;    ///< sender fell back to full (no
                                     ///< usable base / oversized delta)
  RelaxedCounter need_full_retries;  ///< receiver rejected a delta
  RelaxedCounter wire_payload_bytes; ///< convoy payload bytes sent
};

/// One cached base image: the last full agent image that crossed a
/// channel, plus the receiver epoch it is valid under and its content
/// hash (both sides must agree on the exact bytes a delta applies to).
/// `decoded` memoizes the image's decoded form so the per-hop diff
/// (sender) / delta apply (receiver) skips re-decoding the base; it is
/// an optimization slot only — `image` + `hash` stay authoritative.
struct BaseEntry {
  serial::Bytes image;
  std::uint64_t epoch = 0;
  std::uint64_t hash = 0;
  std::shared_ptr<agent::Agent> decoded;
};

/// LRU pool of base images, bounded by ship_cache_bytes. One pool per
/// direction side: send bases keyed by (dest, agent), receive bases
/// keyed by (src, agent). Entries live in a recency list, least recently
/// used first, so eviction pops its front instead of scanning the pool.
class BaseCache {
 public:
  /// The cached entry, marked most recently used; nullptr when absent.
  [[nodiscard]] BaseEntry* find(NodeId peer, AgentId agent);
  /// Whether an entry is cached; leaves its recency untouched.
  [[nodiscard]] bool contains(NodeId peer, AgentId agent) const {
    return index_.contains(key_of(peer, agent));
  }
  /// `image` is taken by value: callers that are done with the buffer
  /// (the acked sender) move it in instead of copying a full agent
  /// image per hop.
  void put(NodeId peer, AgentId agent, serial::Bytes image,
           std::uint64_t epoch, std::size_t budget,
           std::shared_ptr<agent::Agent> decoded = nullptr);
  void erase(NodeId peer, AgentId agent);
  void clear();

 private:
  using Key = std::pair<std::uint32_t, std::uint64_t>;
  [[nodiscard]] static Key key_of(NodeId peer, AgentId agent) {
    return {peer.value(), agent.value()};
  }
  std::list<std::pair<Key, BaseEntry>> lru_;  ///< least recent first
  std::map<Key, decltype(lru_)::iterator> index_;
  std::size_t total_ = 0;
};

class ShipmentManager {
 public:
  ShipmentManager(agent::Platform& platform, NodeId self, tx::TxManager& txm,
                  tx::QueueManager& qm, storage::StableStorage& storage);

  /// Stage `record` into `dest`'s queue within `tx` (the remote leg of a
  /// step/compensation transaction). Rides the destination's convoy,
  /// delta-shipped against the channel cache when profitable. `done(ok)`
  /// fires once: true after the receiver acknowledged the staging, false
  /// on reject or timeout (the caller aborts and retries — the record
  /// stays in the source queue, which is the restartability the
  /// exactly-once protocol relies on).
  void stage_remote(TxId tx, NodeId dest, storage::QueueRecord record,
                    std::function<void(bool)> done);

  /// Receiver side: stage every convoy entry, answer one ack.
  void on_convoy(const net::Message& m);
  /// Sender side: resolve waiters; re-ship full images on need_full.
  void on_convoy_ack(const net::Message& m);
  /// Crash/recovery: caches, queues and waiters are volatile — dropped
  /// wholesale; the channel epoch bump makes stale remote bases
  /// unreferencable.
  void on_node_state(bool up);

  [[nodiscard]] const ShipStats& stats() const { return stats_; }
  /// This node's receive-channel epoch (bumped per crash/recovery);
  /// deltas referencing an older epoch are answered with need_full.
  [[nodiscard]] std::uint64_t channel_epoch() const { return epoch_tag_; }

 private:
  /// A shipment in flight: queued for its convoy or awaiting the ack. The
  /// full record is retained so a need_full reject can re-ship the image
  /// under the same transaction without involving the caller; the decoded
  /// payload (when the delta path produced one) becomes the channel
  /// base's memoized form once the receiver acknowledges.
  struct Pending {
    TxId tx;
    NodeId dest;
    storage::QueueRecord record;
    serial::Bytes frame;  ///< encoded convoy entry
    bool delta = false;
    std::uint64_t staged_at = 0;  ///< stage_remote time (convoy_wait span)
    std::shared_ptr<agent::Agent> decoded_payload;
    std::function<void(bool)> done;
  };

  /// Encode `p.record` as a convoy entry into `p.frame`: a delta against
  /// the cached base when one applies and stays under the size ratio, a
  /// full image otherwise.
  void encode_frame(Pending& p);
  /// Send one convoy message carrying `batch` and park its entries in
  /// awaiting_. Shared by the window/timer flush and the need_full
  /// full-image retry.
  void dispatch_convoy(NodeId dest, std::vector<Pending> batch);
  void flush_convoy(NodeId dest);
  void arm_flush(NodeId dest);
  void timeout_pending(TxId tx);
  /// Schedule `fn` after `delay`, cancelled automatically by crash.
  void after(sim::TimeUs delay, std::function<void()> fn);

  agent::Platform& p_;
  NodeId self_;
  tx::TxManager& txm_;
  tx::QueueManager& qm_;
  storage::StableStorage& storage_;

  BaseCache send_cache_;
  BaseCache recv_cache_;
  /// Entries collecting towards the next convoy, per destination.
  std::map<NodeId, std::vector<Pending>> convoy_queue_;
  std::set<NodeId> flush_armed_;
  /// Bumped per destination on every flush: a window-full flush must not
  /// leave its armed timer behind to cut the NEXT partial convoy's dwell
  /// time short (same pattern as TxManager's flush generations).
  std::map<NodeId, std::uint64_t> flush_gen_;
  /// Shipments whose convoy left, keyed by transaction.
  std::map<TxId, Pending> awaiting_;
  /// Receive-channel epoch: starts at 1, bumped on every crash/recovery
  /// transition. Carried in every ack so senders tag their bases with the
  /// epoch the receiver held them under.
  std::uint64_t epoch_tag_ = 1;
  /// Bumped with the node runtime's epoch; cancels pending timers.
  std::uint64_t run_epoch_ = 0;
  ShipStats stats_;
};

}  // namespace mar::ship
