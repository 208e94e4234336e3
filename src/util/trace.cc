#include "util/trace.h"

#include <iomanip>

namespace mar {

std::string_view to_string(TraceKind k) {
  switch (k) {
    case TraceKind::step_begin: return "STEP-BEGIN";
    case TraceKind::step_commit: return "STEP-COMMIT";
    case TraceKind::step_abort: return "STEP-ABORT";
    case TraceKind::migrate: return "MIGRATE";
    case TraceKind::savepoint: return "SAVEPOINT";
    case TraceKind::rollback_begin: return "ROLLBACK-BEGIN";
    case TraceKind::comp_begin: return "COMP-BEGIN";
    case TraceKind::comp_op: return "COMP-OP";
    case TraceKind::comp_commit: return "COMP-COMMIT";
    case TraceKind::comp_abort: return "COMP-ABORT";
    case TraceKind::restore: return "RESTORE";
    case TraceKind::rollback_done: return "ROLLBACK-DONE";
    case TraceKind::rce_shipped: return "RCE-SHIPPED";
    case TraceKind::mce_shipped: return "MCE-SHIPPED";
    case TraceKind::convoy: return "CONVOY";
    case TraceKind::log_discard: return "LOG-DISCARD";
    case TraceKind::sp_gc: return "SP-GC";
    case TraceKind::crash: return "CRASH";
    case TraceKind::recover: return "RECOVER";
    case TraceKind::tx_pipeline: return "TX-PIPELINE";
    case TraceKind::storage_recovery: return "STORAGE-RECOVERY";
    case TraceKind::msg: return "MSG";
  }
  return "?";
}

void TraceSink::emit(std::uint64_t time_us, TraceKind kind, std::uint32_t node,
                     std::string detail) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{time_us, kind, node, std::move(detail)});
}

void TraceSink::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::size_t TraceSink::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceSink::count(TraceKind kind) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::vector<TraceEvent> TraceSink::of_kind(TraceKind kind) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

void TraceSink::print(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : events_) {
    os << "[t=" << std::setw(10) << e.time_us << "us N" << e.node << "] "
       << std::setw(14) << std::left << to_string(e.kind) << std::right << " "
       << e.detail << "\n";
  }
}

}  // namespace mar
