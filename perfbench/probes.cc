// Layer probes of a traced run. Each probe times one layer's public entry
// points on inputs shaped like the run's own (captured agent images, the
// peak queue depth, the mean record write size, a bank deposit) and
// reports nanoseconds per operation; workloads.cc scales them by the
// operation counts the run recorded to estimate each layer's CPU share.
#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "marbench.h"
#include "resource/bank.h"
#include "resource/resource_manager.h"
#include "sim/simulator.h"
#include "storage/stable_storage.h"
#include "util/span.h"
#include "util/trace.h"

namespace marbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Repeat `body(reps)` with doubling repetition counts until one batch
/// takes at least 20 ms, and return the ns per repetition of that batch.
template <typename Body>
double time_per_rep(Body body) {
  for (std::uint64_t reps = 64;; reps *= 2) {
    const auto t0 = Clock::now();
    body(reps);
    const double ns = ns_since(t0);
    if (ns >= 20e6 || reps >= (std::uint64_t{1} << 26)) {
      return ns / static_cast<double>(reps);
    }
  }
}

double probe_sim() {
  return time_per_rep([](std::uint64_t reps) {
    mar::sim::Simulator sim;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < reps; ++i) {
      sim.schedule_at((i * 7919) % 100'000, [&fired] { ++fired; });
    }
    sim.run();
    if (fired != reps) throw std::runtime_error("sim probe lost events");
  });
}

mar::storage::QueueRecord probe_record(std::uint64_t id) {
  mar::storage::QueueRecord r;
  r.record_id = id;
  r.agent = mar::AgentId(id);
  r.payload.assign(64, std::uint8_t{0x5A});
  return r;
}

/// One claim/release/remove/enqueue cycle at a constant queue depth counts
/// two queue operations (the remove and the enqueue).
double probe_queue(std::uint64_t depth) {
  depth = std::max<std::uint64_t>(depth, 1);
  mar::storage::StableStorage st;
  std::deque<std::uint64_t> ids;
  std::uint64_t next = 1;
  for (std::uint64_t i = 0; i < depth; ++i) {
    st.enqueue(probe_record(next));
    ids.push_back(next++);
  }
  const double per_cycle = time_per_rep([&](std::uint64_t reps) {
    for (std::uint64_t i = 0; i < reps; ++i) {
      const auto pos = static_cast<std::ptrdiff_t>(ids.size() / 2);
      const std::uint64_t id = ids[static_cast<std::size_t>(pos)];
      if (!st.claim(id)) throw std::runtime_error("queue probe: no record");
      st.release_claim(id);
      st.remove(id);
      ids.erase(ids.begin() + pos);
      st.enqueue(probe_record(next));
      ids.push_back(next++);
    }
  });
  return per_cycle / 2.0;
}

double probe_append(std::uint64_t bytes) {
  bytes = std::max<std::uint64_t>(bytes, 1);
  mar::storage::StableStorage st;
  st.enable_segmented_log(mar::storage::SegmentLogConfig{});
  const mar::serial::Bytes delta(bytes, std::uint8_t{0xA5});
  const double per_append = time_per_rep([&](std::uint64_t reps) {
    for (std::uint64_t i = 0; i < reps; ++i) {
      const std::string key = "agent/" + std::to_string(i % 64);
      // Compact like the platform does, so records stay bounded.
      if (i % 32 == 0) {
        st.record_reset(key, delta);
      } else {
        st.record_append(key, delta);
      }
    }
  });
  return per_append * 1024.0 / static_cast<double>(bytes);
}

void probe_codec(const std::vector<std::vector<std::uint8_t>>& images,
                 Figures& out) {
  out["serial.encode_ns_per_kb"] = 0;
  out["serial.decode_ns_per_kb"] = 0;
  if (images.empty()) return;
  mar::harness::TestWorld w({}, 1, 1);
  mar::harness::register_workload(w.platform);
  std::vector<std::unique_ptr<mar::agent::Agent>> agents;
  double kb = 0;
  for (const auto& img : images) {
    agents.push_back(w.platform.decode(img));
    kb += static_cast<double>(img.size()) / 1024.0;
  }
  std::size_t sink = 0;
  const double enc = time_per_rep([&](std::uint64_t reps) {
    for (std::uint64_t i = 0; i < reps; ++i) {
      for (const auto& a : agents) sink += mar::agent::encode_agent(*a).size();
    }
  });
  const double dec = time_per_rep([&](std::uint64_t reps) {
    for (std::uint64_t i = 0; i < reps; ++i) {
      for (const auto& img : images) {
        sink += w.platform.decode(img)->log().byte_size();
      }
    }
  });
  if (sink == 0) throw std::runtime_error("codec probe produced nothing");
  out["serial.encode_ns_per_kb"] = enc / kb;
  out["serial.decode_ns_per_kb"] = dec / kb;
}

/// A bank deposit through the resource manager: invoke, prepare, commit.
double probe_resource() {
  mar::storage::StableStorage st;
  mar::resource::ResourceManager rm(st);
  rm.set_granularity(mar::resource::LockGranularity::per_key);
  rm.add_resource("bank", std::make_unique<mar::resource::Bank>());
  mar::serial::Value state = rm.committed_state("bank");
  for (int a = 0; a < 64; ++a) {
    mar::serial::Value acc = mar::serial::Value::empty_map();
    acc.set("balance", std::int64_t{0});
    acc.set("overdraft", false);
    state.as_map().at("accounts").set("a" + std::to_string(a), std::move(acc));
  }
  rm.poke_state("bank", std::move(state));
  std::uint64_t tx = 1;
  return time_per_rep([&](std::uint64_t reps) {
    for (std::uint64_t i = 0; i < reps; ++i, ++tx) {
      mar::serial::Value params = mar::serial::Value::empty_map();
      params.set("account", mar::serial::Value("a" + std::to_string(i % 64)));
      params.set("amount", mar::serial::Value(std::int64_t{1}));
      const mar::TxId id(tx);
      if (!rm.invoke(id, "bank", "deposit", params).is_ok() ||
          !rm.prepare(id)) {
        throw std::runtime_error("resource probe: deposit failed");
      }
      rm.commit(id);
    }
  });
}

/// TraceSink::emit with a call-site-style detail string.
double probe_emit() {
  return time_per_rep([](std::uint64_t reps) {
    mar::TraceSink sink;
    for (std::uint64_t i = 0; i < reps; ++i) {
      sink.emit(i, mar::TraceKind::step_begin, 1,
                "T(work) agent " + std::to_string(i));
    }
  });
}

double probe_span_record() {
  return time_per_rep([](std::uint64_t reps) {
    mar::SpanSink sink;
    for (std::uint64_t i = 0; i < reps; ++i) {
      mar::Span s;
      s.span_id = sink.next_id();
      s.kind = mar::SpanKind::step_exec;
      s.node = 1;
      s.agent = i;
      s.begin_us = i;
      s.end_us = i + 200;
      sink.record(std::move(s));
    }
  });
}

}  // namespace

void run_probes(const ProbeInputs& in, Figures& out) {
  out["sim.ns_per_event"] = probe_sim();
  out["storage.queue_op_ns"] = probe_queue(in.peak_queue_depth);
  out["storage.append_ns_per_kb"] = probe_append(in.mean_append_bytes);
  probe_codec(in.images, out);
  out["resource.op_ns"] = probe_resource();
  out["util.emit_ns"] = probe_emit();
  out["util.span_record_ns"] = probe_span_record();
}

}  // namespace marbench
