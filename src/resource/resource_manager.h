// Transactional resource manager: one per node.
//
// Provides the ACID envelope the paper assumes of node-local resources:
//   * strict locking (conflicts surface as Errc::lock_conflict; the
//     enclosing step transaction aborts and the platform restarts it —
//     the paper's abort/restart of a step) on the shared/exclusive units of
//     each operation's declared key-set (Sec. 2 requires isolation per
//     datum — two transactions with disjoint key-sets on one instance run
//     concurrently). `instance` granularity coarsens every key-set to one
//     exclusive whole-instance unit "*";
//   * per-transaction copy-on-write overlays of the locked units, so "if
//     the execution of a step aborts, all changes to resources during the
//     step transaction are undone automatically" (Sec. 2);
//   * durable committed state plus prepared-overlay persistence (the dirty
//     units only), making it a well-behaved 2PC participant.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "resource/lock_audit.h"
#include "resource/resource.h"
#include "storage/stable_storage.h"
#include "tx/participant.h"
#include "util/ids.h"
#include "util/result.h"

namespace mar::resource {

class ResourceManager final : public tx::Participant {
 public:
  explicit ResourceManager(storage::StableStorage& stable)
      : stable_(stable) {}

  /// Install a resource instance under `name`. Setup-time only.
  void add_resource(const std::string& name, std::unique_ptr<Resource> logic);
  [[nodiscard]] bool has_resource(const std::string& name) const;

  /// Lock/overlay granularity. Setup-time only (fixed for a node's life);
  /// `instance` locks every operation's whole instance exclusively.
  void set_granularity(LockGranularity g) { granularity_ = g; }
  [[nodiscard]] LockGranularity granularity() const { return granularity_; }

  /// Attach the debug lock-order / wait-for-graph validator (see
  /// lock_audit.h). Every grant, conflict and release of the lock table is
  /// mirrored into it; a wait-for cycle hard-fails by default. On by
  /// default in debug builds via PlatformConfig::lock_audit.
  void enable_lock_audit(LockAudit::Config config = {}) {
    audit_ = std::make_unique<LockAudit>(config);
  }
  /// The attached validator, or nullptr when auditing is off.
  [[nodiscard]] LockAudit* lock_audit() { return audit_.get(); }
  [[nodiscard]] const LockAudit* lock_audit() const { return audit_.get(); }

  /// Invoke an operation within transaction `tx`. Takes shared/exclusive
  /// locks on the operation's key-set, held to commit/abort, and runs
  /// against the tx's overlay copy of those units.
  Result<Value> invoke(TxId tx, const std::string& resource,
                       std::string_view op, const Value& params);

  /// Committed (post-commit) state, for tests and experiment checks.
  [[nodiscard]] const Value& committed_state(const std::string& name) const;

  /// Direct committed-state mutation for world setup (not transactional).
  void poke_state(const std::string& name, Value state);

  /// Whether any transaction currently holds a lock on the instance.
  [[nodiscard]] bool locked(const std::string& name) const;
  /// Whether any held lock overlaps `unit` of `name`.
  [[nodiscard]] bool locked_key(const std::string& name,
                                const std::string& unit) const;

  // Participant interface.
  [[nodiscard]] std::string name() const override { return "res"; }
  [[nodiscard]] bool has_tx(TxId tx) const override;
  bool prepare(TxId tx) override;
  void commit(TxId tx) override;
  void abort(TxId tx) override;
  void on_crash() override;

 private:
  struct Instance {
    std::unique_ptr<Resource> logic;
    Value state;
  };
  /// Per-key overlay: the tx's private copy of one declared key.
  struct KeySlice {
    Value value;
    bool present = true;  ///< key exists (false: deleted / never existed)
    bool dirty = false;   ///< modified by this tx; written back at commit
  };
  struct Overlay {
    /// resource -> unit -> slice. Units of one resource are pairwise
    /// non-overlapping (widening invokes fold narrower slices into the
    /// covering one).
    std::map<std::string, std::map<std::string, KeySlice>> slices;
    bool prepared = false;
  };
  /// Per-key lock state of one unit: one writer XOR any readers (a
  /// transaction may hold both roles itself — read then upgrade).
  struct UnitLock {
    TxId writer = TxId::invalid();
    std::set<TxId> readers;
  };

  [[nodiscard]] std::string prep_key(TxId tx) const {
    return "prep.res:" + std::to_string(tx.value());
  }
  void release_locks(TxId tx);

  // Unit algebra: see resource_manager.cc.
  Status acquire_key_locks(TxId tx, const std::string& resource,
                           const std::vector<KeyRef>& units);
  /// The value at `unit` within any state root ("*" / slot / slot-sub).
  [[nodiscard]] static KeySlice read_unit(const Value& root,
                                          std::string_view unit);
  [[nodiscard]] KeySlice committed_slice(const Instance& inst,
                                         const std::string& unit) const;
  void fold_into(const Instance& inst,
                 std::map<std::string, KeySlice>& res_slices,
                 const std::string& unit);

  storage::StableStorage& stable_;
  LockGranularity granularity_ = LockGranularity::instance;
  /// Debug concurrency validator; null when off (release default).
  std::unique_ptr<LockAudit> audit_;
  std::map<std::string, Instance> instances_;
  std::map<TxId, Overlay> overlays_;
  /// Lock table: resource -> unit -> lock. Units of different
  /// transactions may overlap (e.g. "accounts" vs "accounts/alice");
  /// acquisition scans the instance's held units for overlap.
  std::map<std::string, std::map<std::string, UnitLock>> lock_table_;
};

}  // namespace mar::resource
