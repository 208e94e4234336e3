// Microbenchmarks (google-benchmark): the serialization substrate.
//
// Agent capture/re-instantiation and Value diffing sit on the critical
// path of every step commit and savepoint; these measure their raw
// wall-clock cost on this machine (the simulation itself uses virtual
// time, so this is the one place real time matters).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "harness/agents.h"
#include "rollback/log.h"
#include "serial/serializable.h"
#include "serial/value.h"

namespace {

using namespace mar;

harness::WorkloadAgent make_agent(std::int64_t blobs, std::int64_t blob_size) {
  harness::WorkloadAgent agent;
  for (std::int64_t i = 0; i < blobs; ++i) {
    agent.data().strong("results").push_back(serial::Value(serial::Bytes(
        static_cast<std::size_t>(blob_size), std::uint8_t{0x7F})));
  }
  return agent;
}

void BM_EncodeAgent(benchmark::State& state) {
  const auto agent = make_agent(state.range(0), 256);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = agent::encode_agent(agent);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_EncodeAgent)->Arg(4)->Arg(64)->Arg(1024);

void BM_DecodeAgent(benchmark::State& state) {
  const auto agent = make_agent(state.range(0), 256);
  const auto bytes = agent::encode_agent(agent);
  agent::AgentTypeRegistry registry;
  registry.register_type<harness::WorkloadAgent>("workload");
  for (auto _ : state) {
    auto decoded = agent::decode_agent(registry, bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DecodeAgent)->Arg(4)->Arg(64)->Arg(1024);

// Delta-shipping hop, image level: the sender diffs its cached base
// against the new image, the receiver splices the successor out of its
// base and the delta. Between the two images one step ran: a weak slot
// changed and the step's log entries were appended.
struct ImageDeltaPair {
  serial::Bytes base;
  serial::Bytes cur;
  serial::Bytes delta;
};

ImageDeltaPair make_image_delta_pair(std::int64_t blobs) {
  auto agent = make_agent(blobs, 256);
  ImageDeltaPair p;
  p.base = agent::encode_agent(agent);
  agent.data().weak("visits") = std::int64_t{1};
  agent.log().push(rollback::BeginOfStepEntry{NodeId(2), "work"});
  rollback::EndOfStepEntry eos;
  eos.node = NodeId(2);
  agent.log().push(std::move(eos));
  p.cur = agent::encode_agent(agent);
  p.delta = agent::encode_image_delta(p.base, p.cur).value();
  return p;
}

void BM_ImageDeltaEncode(benchmark::State& state) {
  const auto p = make_image_delta_pair(state.range(0));
  for (auto _ : state) {
    auto delta = agent::encode_image_delta(p.base, p.cur);
    benchmark::DoNotOptimize(delta);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(p.base.size() + p.cur.size()) *
      state.iterations());
}
BENCHMARK(BM_ImageDeltaEncode)->Arg(4)->Arg(64)->Arg(1024);

void BM_ImageDeltaApply(benchmark::State& state) {
  const auto p = make_image_delta_pair(state.range(0));
  for (auto _ : state) {
    auto image = agent::apply_image_delta(p.base, p.delta);
    benchmark::DoNotOptimize(image);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(p.cur.size()) *
                          state.iterations());
}
BENCHMARK(BM_ImageDeltaApply)->Arg(4)->Arg(64)->Arg(1024);

// One migration arrival of an aged agent: decode the image, run a step
// (append its BOS/OE/EOS), capture the successor image. The rollback log
// is `age` steps long; its decoded entries stay one encoded prefix, so
// the per-arrival cost should stay flat as the agent ages.
serial::Bytes make_aged_image(std::int64_t age) {
  harness::WorkloadAgent agent;
  agent::Itinerary steps;
  for (std::int64_t i = 0; i < age + 1; ++i) {
    steps.step("spend_logged", NodeId(static_cast<std::uint32_t>(1 + i % 4)));
  }
  agent::Itinerary main;
  main.sub(std::move(steps));
  agent.itinerary() = std::move(main);
  for (std::int64_t i = 0; i < age; ++i) {
    const NodeId node(static_cast<std::uint32_t>(1 + i % 4));
    agent.log().push(rollback::BeginOfStepEntry{node, "spend_logged"});
    rollback::OperationEntry op;
    op.kind = rollback::OpEntryKind::resource;
    op.comp_op = "bank.refund";
    op.params = serial::Value(serial::Bytes(64, std::uint8_t{0x5A}));
    op.resource_node = node;
    op.resource = "bank";
    agent.log().push(std::move(op));
    rollback::EndOfStepEntry eos;
    eos.node = node;
    agent.log().push(std::move(eos));
  }
  return agent::encode_agent(agent);
}

void BM_ArrivalStepCommit(benchmark::State& state) {
  const auto image = make_aged_image(state.range(0));
  agent::AgentTypeRegistry registry;
  registry.register_type<harness::WorkloadAgent>("workload");
  const NodeId here(2);
  for (auto _ : state) {
    auto agent = agent::decode_agent(registry, image);
    agent->log().push(rollback::BeginOfStepEntry{here, "spend_logged"});
    rollback::OperationEntry op;
    op.kind = rollback::OpEntryKind::resource;
    op.comp_op = "bank.refund";
    op.params = serial::Value(std::int64_t{64});
    op.resource_node = here;
    op.resource = "bank";
    agent->log().push(std::move(op));
    rollback::EndOfStepEntry eos;
    eos.node = here;
    agent->log().push(std::move(eos));
    auto next = agent::encode_agent(*agent);
    benchmark::DoNotOptimize(next);
  }
  state.counters["image_bytes"] = static_cast<double>(image.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(image.size()) *
                          state.iterations());
}
BENCHMARK(BM_ArrivalStepCommit)->Arg(8)->Arg(32)->Arg(128);

// The size-hint encode path: computing the exact wire size arithmetically
// and pre-sizing the buffer turns a large-map encode into one allocation.
serial::Value make_large_map(std::int64_t keys) {
  serial::Value v = serial::Value::empty_map();
  for (std::int64_t i = 0; i < keys; ++i) {
    v.set("key-" + std::to_string(i), std::string(48, 'v'));
  }
  return v;
}

serial::Value make_deep_nesting(std::int64_t depth) {
  serial::Value v("leaf");
  for (std::int64_t i = 0; i < depth; ++i) {
    serial::Value wrap = serial::Value::empty_map();
    wrap.set("child", std::move(v));
    wrap.set("tag", i);
    v = std::move(wrap);
  }
  return v;
}

void BM_EncodeLargeMapDefault(benchmark::State& state) {
  const auto v = make_large_map(state.range(0));
  for (auto _ : state) {
    serial::Encoder enc;
    v.serialize(enc);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(v.encoded_size()) *
                          state.iterations());
}
BENCHMARK(BM_EncodeLargeMapDefault)->Arg(256)->Arg(4096)->Arg(32768);

void BM_EncodeLargeMapPresized(benchmark::State& state) {
  const auto v = make_large_map(state.range(0));
  for (auto _ : state) {
    serial::Encoder enc(v.encoded_size());
    v.serialize(enc);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(v.encoded_size()) *
                          state.iterations());
}
BENCHMARK(BM_EncodeLargeMapPresized)->Arg(256)->Arg(4096)->Arg(32768);

void BM_EncodeDeepNestingPresized(benchmark::State& state) {
  const auto v = make_deep_nesting(state.range(0));
  for (auto _ : state) {
    serial::Encoder enc(v.encoded_size());
    v.serialize(enc);
    benchmark::DoNotOptimize(enc);
  }
}
BENCHMARK(BM_EncodeDeepNestingPresized)->Arg(64)->Arg(512)->Arg(4096);

void BM_ValueEncodedSize(benchmark::State& state) {
  const auto v = make_large_map(state.range(0));
  for (auto _ : state) {
    auto n = v.encoded_size();
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ValueEncodedSize)->Arg(256)->Arg(4096);

void BM_ValueDiffSparse(benchmark::State& state) {
  serial::Value a = serial::Value::empty_map();
  for (int i = 0; i < state.range(0); ++i) {
    a.set("k" + std::to_string(i), std::string(64, 'x'));
  }
  serial::Value b = a;
  b.set("k0", std::string(64, 'y'));
  for (auto _ : state) {
    auto patch = serial::diff(a, b);
    benchmark::DoNotOptimize(patch);
  }
}
BENCHMARK(BM_ValueDiffSparse)->Arg(16)->Arg(256)->Arg(4096);

void BM_PatchApply(benchmark::State& state) {
  serial::Value a = serial::Value::empty_map();
  for (int i = 0; i < state.range(0); ++i) {
    a.set("k" + std::to_string(i), std::string(64, 'x'));
  }
  serial::Value b = a;
  b.set("k1", std::string(64, 'z'));
  const auto patch = serial::diff(a, b);
  for (auto _ : state) {
    auto restored = serial::apply(patch, a);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_PatchApply)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so this binary honors the repo-wide
// `--json <path>` convention (bench/run_all.sh treats every binary
// uniformly) by translating it into google-benchmark's reporter flags.
int main(int argc, char** argv) {
  const std::string json_path = mar::bench::json_path_from_args(argc, argv);
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      ++i;  // skip the path value
    } else if (!arg.starts_with("--json=")) {
      args.emplace_back(arg);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.push_back(argv[0]);
  for (auto& arg : args) cargv.push_back(arg.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
