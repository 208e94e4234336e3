// ConTract-style centralized execution: the related-work baseline (Sec. 5).
//
// The ConTract model (Reuter et al., the paper's ref [10]) "comes closest"
// to the paper's approach: exactly-once execution of a long-lived task
// with compensation-based partial rollback — but the script is NOT mobile.
// A central manager drives the whole execution, reaching every resource by
// RPC inside distributed transactions.
//
// This module implements that baseline over the same substrate (network,
// 2PC, resource managers, compensation registry) so the mobile-agent
// approach can be compared against it directly: same workload, same
// transactional guarantees, different placement of the control flow.
// The ablation bench (bench_a1_central_vs_mobile) sweeps the
// interactions-per-node and payload sizes where each side wins — the same
// trade-off the perfmodel (ref [16]) predicts.
//
// Execution model: the script is a flat list of steps; each step invokes
// one operation on one resource of one node within its own distributed
// transaction and records the compensating operation centrally. A partial
// rollback compensates the executed steps in reverse order, each in a
// compensation transaction, again by RPC.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "net/network.h"
#include "rollback/comp_registry.h"
#include "serial/value.h"
#include "sim/simulator.h"
#include "storage/stable_storage.h"
#include "tx/tx_manager.h"
#include "util/ids.h"
#include "util/result.h"

namespace mar::contract {

using serial::Value;

/// One step of a ConTract script.
struct ScriptStep {
  NodeId node;
  std::string resource;
  std::string op;
  Value params;
  /// Compensating operation (CompensationRegistry name); empty = the step
  /// needs no compensation (e.g. a pure read).
  std::string comp_op;
  Value comp_params;
};

/// Message types used for remote resource access (also exercised by the
/// Sec. 4.4.1 "access resources using RPC" optimization).
namespace msg {
inline constexpr const char* invoke = "ctr.invoke";
inline constexpr const char* result = "ctr.result";
}  // namespace msg

/// Statistics of one contract execution.
struct ContractStats {
  std::uint64_t rpcs = 0;
  std::uint64_t steps_committed = 0;
  std::uint64_t steps_compensated = 0;
  std::uint64_t tx_aborts = 0;
};

/// The central manager. It occupies its own network node (the "ConTract
/// manager" machine) and keeps the script, the execution position and the
/// compensation log in ITS stable storage — nothing migrates.
class ContractManager {
 public:
  using Done = std::function<void(Status)>;

  ContractManager(NodeId self, sim::Simulator& sim, net::Network& net,
                  storage::StableStorage& stable,
                  const rollback::CompensationRegistry& comps);

  /// Network handler for this node (wire to Network::add_node).
  void on_message(const net::Message& m);

  /// Execute the script, one distributed transaction per step; `done`
  /// fires after the last commit (or the first permanent failure).
  void run(std::vector<ScriptStep> script, Done done);

  /// Partially roll back: compensate the last `steps` committed steps in
  /// reverse order, one compensation transaction each, then resume
  /// forward execution from that point.
  void rollback(std::size_t steps, Done done);

  [[nodiscard]] const ContractStats& stats() const { return stats_; }
  [[nodiscard]] tx::TxManager& txm() { return txm_; }

 private:
  void run_step();
  void compensate_step(std::size_t remaining, Done done);
  /// One transaction for `step`: RPC its operation (with `compensate`,
  /// its registered compensating operation) to the step's node, then
  /// commit. On commit run `committed`; a failed RPC or commit counts the
  /// abort and runs `retry` after tx::kRetryBackoffUs.
  void transact(const ScriptStep& step, bool compensate,
                std::function<void()> retry, std::function<void()> committed);

  NodeId self_;
  sim::Simulator& sim_;
  net::Network& net_;
  tx::TxManager txm_;
  const rollback::CompensationRegistry& comps_;

  std::vector<ScriptStep> script_;
  std::size_t position_ = 0;  ///< next step to execute
  bool executing_ = false;    ///< a run() is in flight (rollback may rewind
                              ///< position_, so it cannot signal this)
  Done done_;
  std::unordered_map<TxId, std::function<void(Status)>> waiting_;
  ContractStats stats_;
};

/// Payload helpers shared with NodeRuntime's RPC endpoint.
serial::Bytes encode_invoke(TxId tx, const std::string& resource,
                            const std::string& op, const Value& params,
                            const std::string& comp_op);
struct InvokeRequest {
  TxId tx;
  std::string resource;
  std::string op;
  Value params;
  /// When non-empty, the node runs this registered compensating operation
  /// (resource-entry context) instead of a plain resource op.
  std::string comp_op;
};
InvokeRequest decode_invoke(const net::Message& m);

serial::Bytes encode_result(TxId tx, const Status& status);
std::pair<TxId, Status> decode_result(const net::Message& m);

}  // namespace mar::contract
