#include "contract/contract.h"

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::contract {

serial::Bytes encode_invoke(TxId tx, const std::string& resource,
                            const std::string& op, const Value& params,
                            const std::string& comp_op) {
  serial::Encoder enc(8 + serial::blob_size(resource.size()) +
                      serial::blob_size(op.size()) + params.encoded_size() +
                      serial::blob_size(comp_op.size()));
  enc.write_u64(tx.value());
  enc.write_string(resource);
  enc.write_string(op);
  params.serialize(enc);
  enc.write_string(comp_op);
  return std::move(enc).take();
}

InvokeRequest decode_invoke(const net::Message& m) {
  serial::Decoder dec(m.payload);
  InvokeRequest req;
  req.tx = TxId(dec.read_u64());
  req.resource = dec.read_string();
  req.op = dec.read_string();
  req.params.deserialize(dec);
  req.comp_op = dec.read_string();
  dec.expect_end();
  return req;
}

serial::Bytes encode_result(TxId tx, const Status& status) {
  serial::Encoder enc(8 + 1 + serial::blob_size(status.message().size()));
  enc.write_u64(tx.value());
  enc.write_u8(static_cast<std::uint8_t>(status.code()));
  enc.write_string(status.message());
  return std::move(enc).take();
}

std::pair<TxId, Status> decode_result(const net::Message& m) {
  serial::Decoder dec(m.payload);
  const TxId tx(dec.read_u64());
  const auto code = static_cast<Errc>(dec.read_u8());
  auto message = dec.read_string();
  dec.expect_end();
  if (code == Errc::ok) return {tx, Status::ok()};
  return {tx, Status(code, std::move(message))};
}

ContractManager::ContractManager(NodeId self, sim::Simulator& sim,
                                 net::Network& net,
                                 storage::StableStorage& stable,
                                 const rollback::CompensationRegistry& comps)
    : self_(self), sim_(sim), net_(net), txm_(self, sim, net, stable),
      comps_(comps) {}

void ContractManager::on_message(const net::Message& m) {
  if (m.type.rfind("tx.", 0) == 0) {
    txm_.on_message(m);
    return;
  }
  if (m.type == msg::result) {
    const auto [tx, status] = decode_result(m);
    auto it = waiting_.find(tx);
    if (it == waiting_.end()) return;
    auto cb = std::move(it->second);
    waiting_.erase(it);
    cb(status);
    return;
  }
  MAR_CHECK_MSG(false, "contract manager: unexpected message " << m.type);
}

void ContractManager::transact(const ScriptStep& step, bool compensate,
                               std::function<void()> retry,
                               std::function<void()> committed) {
  const TxId tx = txm_.begin();
  auto failed = [this, retry = std::move(retry)] {
    ++stats_.tx_aborts;
    sim_.schedule_after(tx::kRetryBackoffUs, retry);
  };
  ++stats_.rpcs;
  txm_.enlist_remote(tx, step.node);
  net_.send(net::Message{
      self_, step.node, msg::invoke,
      encode_invoke(tx, step.resource, step.op,
                    compensate ? step.comp_params : step.params,
                    compensate ? step.comp_op : std::string())});
  waiting_[tx] = [this, tx, failed, committed = std::move(committed)](
                     Status status) {
    if (!status.is_ok()) {
      txm_.abort_tx(tx);
      failed();
      return;
    }
    txm_.commit_async(tx, [failed, committed](bool ok) {
      if (ok) {
        committed();
      } else {
        failed();
      }
    });
  };
}

void ContractManager::run(std::vector<ScriptStep> script, Done done) {
  MAR_CHECK_MSG(!executing_, "contract already executing");
  executing_ = true;
  script_ = std::move(script);
  position_ = 0;
  done_ = std::move(done);
  run_step();
}

void ContractManager::run_step() {
  if (position_ == script_.size()) {
    executing_ = false;
    auto done = std::move(done_);
    if (done) done(Status::ok());
    return;
  }
  transact(script_[position_], /*compensate=*/false, [this] { run_step(); },
           [this] {
             ++stats_.steps_committed;
             ++position_;
             run_step();
           });
}

void ContractManager::rollback(std::size_t steps, Done done) {
  MAR_CHECK(steps <= position_);
  compensate_step(steps, std::move(done));
}

void ContractManager::compensate_step(std::size_t remaining, Done done) {
  if (remaining == 0) {
    done(Status::ok());
    return;
  }
  const ScriptStep& step = script_[position_ - 1];
  if (step.comp_op.empty()) {
    --position_;
    compensate_step(remaining - 1, std::move(done));
    return;
  }
  transact(step, /*compensate=*/true,
           [this, remaining, done] { compensate_step(remaining, done); },
           [this, remaining, done] {
             ++stats_.steps_compensated;
             --position_;
             compensate_step(remaining - 1, done);
           });
}

}  // namespace mar::contract
