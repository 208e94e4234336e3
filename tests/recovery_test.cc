// Bounded crash recovery: the segmented record log, fuzzy checkpoints and
// torn-write fault injection (src/storage/segment_log.h).
//
// Covers the invariants recovery rests on:
//   * replaying the checksummed log rebuilds the per-key index
//     bit-identically to the never-crashed materialized state;
//   * a torn tail frame (crash mid-append) truncates back to exactly the
//     committed prefix — never past it, never short of it;
//   * mid-log damage (bit flip in a committed frame) hard-fails with
//     CorruptionError instead of silently diverging;
//   * a checkpoint torn by the crash it raced falls back one generation;
//   * at platform level, crashes with injected storage faults preserve
//     exactly-once and bit-identity with the clean-run oracle, including
//     crashes landing during compaction and during a checkpoint window.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "storage/segment_log.h"
#include "storage/stable_storage.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;
using harness::WorkloadAgent;
using storage::CorruptionError;
using storage::SegmentLog;
using storage::SegmentLogConfig;
using storage::StorageFault;

serial::Bytes bytes_of(const std::string& s) {
  return serial::Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// Unit level: SegmentLog
// ---------------------------------------------------------------------------

TEST(SegmentLogTest, RotationAndRetirement) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/128});
  for (int i = 0; i < 16; ++i) {
    log.append_reset("k" + std::to_string(i % 2),
                     bytes_of(std::string(40, 'a' + i)));
  }
  // 16 frames of ~50+ bytes cannot fit one 128-byte segment: rotation
  // happened, and each reset superseded the key's older frames, so the
  // fully-dead sealed segments retired instead of accumulating.
  EXPECT_GT(log.retired_segments(), 0u);
  EXPECT_LT(log.live_segments(), 16u);
  ASSERT_NE(log.segments("k0"), nullptr);
  EXPECT_EQ((*log.segments("k0"))[0], bytes_of(std::string(40, 'a' + 14)));
  EXPECT_EQ((*log.segments("k1"))[0], bytes_of(std::string(40, 'a' + 15)));
}

TEST(SegmentLogTest, RecoverRebuildsIndexBitIdentically) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/96});
  log.append_reset("alpha", bytes_of("base-alpha"));
  log.append_delta("alpha", bytes_of("d1"));
  log.append_reset("beta", bytes_of("base-beta"));
  log.append_delta("alpha", bytes_of("d2"));
  log.append_delta("beta", bytes_of("d3"));
  log.append_reset("gamma", bytes_of("base-gamma"));
  log.append_erase("beta");
  const auto alpha = *log.segments("alpha");
  const auto gamma = *log.segments("gamma");

  const auto report = log.recover();
  EXPECT_GT(report.replayed_bytes, 0u);
  EXPECT_GT(report.segments_scanned, 0u);
  EXPECT_FALSE(report.truncated_torn_tail);
  ASSERT_NE(log.segments("alpha"), nullptr);
  EXPECT_EQ(*log.segments("alpha"), alpha);
  EXPECT_EQ(*log.segments("gamma"), gamma);
  EXPECT_FALSE(log.has("beta"));  // erase frames must replay too

  // Idempotent: a second scan reproduces the same state.
  const auto again = log.recover();
  EXPECT_EQ(again.replayed_bytes, report.replayed_bytes);
  EXPECT_EQ(*log.segments("alpha"), alpha);
}

TEST(SegmentLogTest, TornTailTruncatesToCommittedPrefix) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SegmentLog log(SegmentLogConfig{/*segment_bytes=*/256});
    log.append_reset("a", bytes_of("base"));
    for (int i = 0; i < 6; ++i) {
      log.append_delta("a", bytes_of("delta" + std::to_string(i)));
    }
    const auto committed = *log.segments("a");
    ASSERT_EQ(log.inject_fault(StorageFault::torn_tail, seed),
              StorageFault::torn_tail);
    const auto report = log.recover();
    EXPECT_TRUE(report.truncated_torn_tail) << "seed " << seed;
    ASSERT_NE(log.segments("a"), nullptr);
    EXPECT_EQ(*log.segments("a"), committed) << "seed " << seed;
    // The log stays writable after truncation.
    log.append_delta("a", bytes_of("post"));
    EXPECT_EQ(log.segments("a")->back(), bytes_of("post"));
  }
}

TEST(SegmentLogTest, BitFlipInCommittedFrameHardFails) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SegmentLog log(SegmentLogConfig{/*segment_bytes=*/256});
    log.append_reset("a", bytes_of("base-image-with-some-heft"));
    for (int i = 0; i < 8; ++i) {
      log.append_delta("a", bytes_of("delta-" + std::to_string(i)));
    }
    ASSERT_EQ(log.inject_fault(StorageFault::bit_flip, seed),
              StorageFault::bit_flip);
    EXPECT_THROW(log.recover(), CorruptionError) << "seed " << seed;
  }
}

TEST(SegmentLogTest, BitFlipNeedsAMidLogTarget) {
  SegmentLog log(SegmentLogConfig{});
  log.append_reset("a", bytes_of("only-frame"));
  // One frame total: damaging it would be indistinguishable from a torn
  // tail, so the injector refuses rather than arming a silent test.
  EXPECT_EQ(log.inject_fault(StorageFault::bit_flip, 1),
            StorageFault::none);
}

TEST(SegmentLogTest, CheckpointBoundsReplay) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/128});
  auto churn = [&](int rounds, const char* tag) {
    for (int i = 0; i < rounds; ++i) {
      log.append_reset("k" + std::to_string(i % 3),
                       bytes_of(std::string(32, 'x') + tag));
    }
  };
  churn(12, "old");
  const auto unbounded = log.recover();  // no checkpoint: full replay

  ASSERT_TRUE(log.begin_checkpoint());
  EXPECT_GT(log.complete_checkpoint(), 0u);
  churn(12, "mid");
  ASSERT_TRUE(log.begin_checkpoint());
  EXPECT_GT(log.complete_checkpoint(), 0u);
  EXPECT_EQ(log.checkpoints_completed(), 2u);
  churn(2, "new");

  const auto bounded = log.recover();
  EXPECT_TRUE(bounded.used_checkpoint);
  EXPECT_FALSE(bounded.checkpoint_fell_back);
  EXPECT_LT(bounded.replayed_bytes, unbounded.replayed_bytes);
  EXPECT_EQ((*log.segments("k1"))[0],
            bytes_of(std::string(32, 'x') + std::string("new")));
}

TEST(SegmentLogTest, TornCheckpointFallsBackOneGeneration) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/128});
  for (int i = 0; i < 8; ++i) {
    log.append_reset("k", bytes_of("gen0-" + std::to_string(i)));
  }
  ASSERT_TRUE(log.begin_checkpoint());
  ASSERT_GT(log.complete_checkpoint(), 0u);
  log.append_reset("k", bytes_of("gen1"));
  ASSERT_TRUE(log.begin_checkpoint());
  ASSERT_GT(log.complete_checkpoint(), 0u);
  log.append_delta("k", bytes_of("tail"));

  ASSERT_EQ(log.inject_fault(StorageFault::torn_checkpoint, 5),
            StorageFault::torn_checkpoint);
  const auto report = log.recover();
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_TRUE(report.checkpoint_fell_back);
  // Fallback replays more log (from the older begin-LSN) but lands on
  // the identical final state.
  ASSERT_NE(log.segments("k"), nullptr);
  ASSERT_EQ(log.segments("k")->size(), 2u);
  EXPECT_EQ((*log.segments("k"))[0], bytes_of("gen1"));
  EXPECT_EQ((*log.segments("k"))[1], bytes_of("tail"));
}

TEST(SegmentLogTest, CrashDuringCheckpointAbandonsTheAttempt) {
  SegmentLog log(SegmentLogConfig{});
  log.append_reset("k", bytes_of("v0"));
  ASSERT_TRUE(log.begin_checkpoint());
  log.append_reset("k", bytes_of("v1"));  // fuzzy: appends keep flowing
  // Crash before complete_checkpoint(): the pending snapshot is volatile.
  const auto report = log.recover();
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_FALSE(log.checkpoint_in_progress());
  EXPECT_EQ(log.checkpoints_completed(), 0u);
  EXPECT_EQ((*log.segments("k"))[0], bytes_of("v1"));
}

// ---------------------------------------------------------------------------
// Platform level: crashes + injected storage faults, exactly-once oracle
// ---------------------------------------------------------------------------

struct RunOutcome {
  serial::Bytes final_agent;
  bool done = false;
  std::int64_t visits = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recovery_replayed_bytes = 0;
};

struct RunSpec {
  int steps = 24;
  bool crash = false;
  StorageFault fault = StorageFault::none;
  std::uint32_t compaction_interval = 4;
  std::size_t checkpoint_interval_bytes = 0;
  std::uint64_t seed = 9;
};

RunOutcome run_workload(const RunSpec& spec) {
  PlatformConfig cfg;
  cfg.incremental_commit = true;
  cfg.compaction_interval_steps = spec.compaction_interval;
  cfg.discard_log_on_top_level = false;
  cfg.segment_bytes = 2048;
  cfg.checkpoint_interval_bytes = spec.checkpoint_interval_bytes;
  cfg.storage_fault = spec.fault;
  TestWorld w(cfg, /*node_count=*/1, spec.seed);
  harness::register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < spec.steps; ++s) {
    tour.step("spend_logged", TestWorld::n(1));
  }
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  if (spec.crash) {
    // Three crashes spread over the run; with compaction_interval 4 and
    // one ~200us-service step at a time, some land right around a
    // record_reset (compaction) and — with checkpoints armed — inside
    // checkpoint windows.
    w.faults.crash_at(TestWorld::n(1), /*at=*/900, /*downtime=*/4'000);
    w.faults.crash_at(TestWorld::n(1), /*at=*/9'000, /*downtime=*/4'000);
    w.faults.crash_at(TestWorld::n(1), /*at=*/21'000, /*downtime=*/4'000);
  }
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  EXPECT_TRUE(w.platform.run_until_finished(id.value()));
  RunOutcome out;
  const auto& o = w.platform.outcome(id.value());
  out.done = o.state == AgentOutcome::State::done;
  out.final_agent = o.final_agent;
  const auto decoded = w.platform.decode(o.final_agent);
  out.visits = decoded->data().weak("visits").as_int();
  const auto& stats = w.platform.node(TestWorld::n(1)).storage().stats();
  out.checkpoints = stats.checkpoints_completed.load();
  out.recovery_replayed_bytes = stats.recovery_replayed_bytes.load();
  return out;
}

TEST(RecoveryPlatformTest, CheckpointsOnMatchesOffBitForBit) {
  RunSpec off;
  RunSpec on;
  on.checkpoint_interval_bytes = 256;
  const auto a = run_workload(off);
  const auto b = run_workload(on);
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  ASSERT_GT(b.checkpoints, 0u);
  // Checkpointing is invisible to execution semantics.
  EXPECT_EQ(a.final_agent, b.final_agent);
  EXPECT_EQ(a.visits, 24);
}

TEST(RecoveryPlatformTest, CrashNearCompactionPreservesExactlyOnce) {
  // Crashes land around record_reset compactions (interval 4). Across 3
  // randomized seeds: the agent completes, every step ran exactly once
  // (visits == steps) and the terminal image matches the no-crash oracle.
  for (std::uint64_t seed : {9ull, 23ull, 57ull}) {
    RunSpec clean;
    clean.seed = seed;
    RunSpec crashed = clean;
    crashed.crash = true;
    const auto oracle = run_workload(clean);
    const auto recovered = run_workload(crashed);
    ASSERT_TRUE(oracle.done) << "seed " << seed;
    ASSERT_TRUE(recovered.done) << "seed " << seed;
    EXPECT_EQ(recovered.visits, 24) << "seed " << seed;
    EXPECT_EQ(recovered.final_agent, oracle.final_agent) << "seed " << seed;
    EXPECT_GT(recovered.recovery_replayed_bytes, 0u);
  }
}

TEST(RecoveryPlatformTest, TornTailInjectionRecoversBitIdentically) {
  for (std::uint64_t seed : {9ull, 23ull, 57ull}) {
    RunSpec clean;
    clean.seed = seed;
    RunSpec torn = clean;
    torn.crash = true;
    torn.fault = StorageFault::torn_tail;
    const auto oracle = run_workload(clean);
    const auto recovered = run_workload(torn);
    ASSERT_TRUE(recovered.done) << "seed " << seed;
    EXPECT_EQ(recovered.visits, 24) << "seed " << seed;
    EXPECT_EQ(recovered.final_agent, oracle.final_agent) << "seed " << seed;
  }
}

TEST(RecoveryPlatformTest, CheckpointsCompleteAndCrashMidCheckpointFallsBack) {
  // Tiny checkpoint interval: every group-commit flush begins one, so the
  // crashes land inside / between checkpoint windows; torn_checkpoint
  // additionally corrupts the newest completed generation at crash time.
  for (std::uint64_t seed : {9ull, 23ull, 57ull}) {
    RunSpec clean;
    clean.seed = seed;
    clean.checkpoint_interval_bytes = 256;
    RunSpec crashed = clean;
    crashed.crash = true;
    crashed.fault = StorageFault::torn_checkpoint;
    const auto oracle = run_workload(clean);
    const auto recovered = run_workload(crashed);
    ASSERT_TRUE(oracle.done) << "seed " << seed;
    ASSERT_TRUE(recovered.done) << "seed " << seed;
    EXPECT_GT(oracle.checkpoints, 0u) << "seed " << seed;
    EXPECT_EQ(recovered.visits, 24) << "seed " << seed;
    EXPECT_EQ(recovered.final_agent, oracle.final_agent) << "seed " << seed;
  }
}

TEST(RecoveryPlatformTest, BitFlipInjectionHardFailsLoudly) {
  // Mid-log damage must never be silently absorbed: recovery throws out
  // of the crash/recover event instead of serving a corrupt image.
  RunSpec spec;
  spec.crash = true;
  spec.fault = StorageFault::bit_flip;
  EXPECT_THROW(run_workload(spec), CorruptionError);
}

TEST(RecoveryPlatformTest, FaultMatrixFromEnvironment) {
  // CI fault matrix: MAR_STORAGE_FAULT ∈ {torn_tail, bit_flip,
  // torn_checkpoint} re-runs the randomized kill workload under that
  // injection. Recoverable faults must stay bit-identical to the oracle;
  // bit_flip must hard-fail.
  const char* env = std::getenv("MAR_STORAGE_FAULT");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "MAR_STORAGE_FAULT not set";
  }
  const auto fault = storage::storage_fault_from_string(env);
  ASSERT_TRUE(fault.has_value()) << "bad MAR_STORAGE_FAULT: " << env;
  RunSpec spec;
  spec.crash = true;
  spec.fault = *fault;
  if (*fault == StorageFault::torn_checkpoint) {
    spec.checkpoint_interval_bytes = 256;
  }
  if (*fault == StorageFault::bit_flip) {
    EXPECT_THROW(run_workload(spec), CorruptionError);
    return;
  }
  RunSpec clean = spec;
  clean.crash = false;
  clean.fault = StorageFault::none;
  const auto oracle = run_workload(clean);
  const auto recovered = run_workload(spec);
  ASSERT_TRUE(recovered.done);
  EXPECT_EQ(recovered.visits, 24);
  EXPECT_EQ(recovered.final_agent, oracle.final_agent);
}

}  // namespace
}  // namespace mar
