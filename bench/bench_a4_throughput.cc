// Experiment A4 — node multiprogramming throughput.
//
// The exactly-once step protocol isolates concurrent steps through
// transactions and resource locks; the slotted node scheduler
// (PlatformConfig::node_concurrency) exploits that to run several queue
// records per node at once. This experiment measures what multiprogramming
// buys and what contention costs:
//
//   contention-free  a fleet of F agents, each executing S lock-free
//                    "work" steps (pure service time) on one node:
//                    agents/sec should scale with the slot count until
//                    slots outnumber agents;
//   contended        the same fleet where every step locks the node's one
//                    directory resource: concurrent slots surface lock
//                    conflicts that abort the losers into backoff/retry,
//                    capping the scaling (the honest cost curve).
//
// All worlds are independent and deterministic per seed, so the whole
// sweep — plus a seed-replicated reproducibility check — runs through the
// expt/ parallel multi-world driver on OS threads.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "expt/parallel_worlds.h"

using namespace mar;
using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;

namespace {

constexpr int kSteps = 8;

struct FleetResult {
  bool ok = false;
  int fleet = 0;
  std::uint32_t concurrency = 1;
  bool contended = false;
  sim::TimeUs makespan_us = 0;
  double mean_us = 0;
  sim::TimeUs p95_us = 0;
  double agents_per_sec = 0;
  std::uint64_t lock_conflicts = 0;
  /// Per-step commit latency percentiles (step.latency_us histogram).
  double step_p50_us = 0;
  double step_p95_us = 0;
  double step_p99_us = 0;
  std::string metrics_json;  ///< uniform per-cell metrics block
};

FleetResult run_fleet(int fleet, std::uint32_t concurrency, bool contended,
                      std::uint64_t seed, bool tracing = true) {
  agent::PlatformConfig cfg;
  cfg.node_concurrency = concurrency;
  cfg.span_tracing = tracing;
  // A4 measures the slotted scheduler alone — exact serialized makespans,
  // and whole-instance lock conflicts as the contention signal — so it
  // locks per instance and syncs every commit (window 1); A6/A7 sweep
  // those knobs deliberately.
  cfg.lock_granularity = resource::LockGranularity::instance;
  cfg.group_commit_window = 1;
  TestWorld w(cfg, /*node_count=*/1, seed);
  harness::register_workload(w.platform);
  w.publish(1, "info", serial::Value("x"));

  std::vector<AgentId> ids;
  ids.reserve(static_cast<std::size_t>(fleet));
  for (int a = 0; a < fleet; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < kSteps; ++s) {
      tour.step(contended ? "collect" : "work", TestWorld::n(1));
    }
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    auto r = w.platform.launch(std::move(ag));
    MAR_CHECK(r.is_ok());
    ids.push_back(r.value());
  }

  FleetResult res;
  res.fleet = fleet;
  res.concurrency = concurrency;
  res.contended = contended;
  if (!w.platform.run_until_all_finished(ids)) return res;

  std::vector<sim::TimeUs> done_at;
  bool all_ok = true;
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    all_ok = all_ok && out.state == AgentOutcome::State::done;
    if (out.state != AgentOutcome::State::done) continue;
    done_at.push_back(out.finished_at);
    auto fin = w.platform.decode(out.final_agent);
    all_ok = all_ok &&
             fin->data().weak("visits").as_int() == kSteps;  // exactly once
  }
  if (!all_ok || done_at.empty()) return res;

  std::sort(done_at.begin(), done_at.end());
  res.ok = true;
  res.makespan_us = done_at.back();
  double sum = 0;
  for (const auto t : done_at) sum += static_cast<double>(t);
  res.mean_us = sum / static_cast<double>(done_at.size());
  const auto p95_idx =
      (done_at.size() * 95 + 99) / 100;  // ceil(0.95 n), 1-based
  res.p95_us = done_at[p95_idx - 1];
  res.agents_per_sec = static_cast<double>(fleet) * 1e6 /
                       static_cast<double>(res.makespan_us);
  res.lock_conflicts = w.platform.lock_conflict_aborts();
  const auto snap = w.platform.metrics_snapshot();
  if (const auto it = snap.histograms.find("step.latency_us");
      it != snap.histograms.end()) {
    res.step_p50_us = it->second.percentile(0.50);
    res.step_p95_us = it->second.percentile(0.95);
    res.step_p99_us = it->second.percentile(0.99);
  }
  res.metrics_json = snap.to_json();
  return res;
}

/// Wall-clock milliseconds of one contention-free run (best of `reps`).
double time_fleet_once_ms(bool tracing) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = run_fleet(/*fleet=*/256, /*concurrency=*/4,
                           /*contended=*/false, /*seed=*/7, tracing);
  const auto t1 = std::chrono::steady_clock::now();
  MAR_CHECK(r.ok);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-`reps` wall clock for tracing off and on, the runs
/// ALTERNATED (off, on, off, on, ...) so allocator/cache warm-up and
/// machine-state drift hit both sides equally, after one untimed
/// warm-up run.
std::pair<double, double> time_fleet_ms(int reps) {
  time_fleet_once_ms(/*tracing=*/true);  // warm-up, untimed
  double best_off = 0;
  double best_on = 0;
  for (int i = 0; i < reps; ++i) {
    const double off = time_fleet_once_ms(/*tracing=*/false);
    const double on = time_fleet_once_ms(/*tracing=*/true);
    if (best_off == 0 || off < best_off) best_off = off;
    if (best_on == 0 || on < best_on) best_on = on;
  }
  return {best_off, best_on};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::BenchReport report("a4_throughput");

  std::cout << "=== A4: node multiprogramming throughput "
               "(slotted scheduler) ===\n"
            << "(fleet of agents x " << kSteps
            << " steps on one node; node_concurrency slots; contention-free "
               "work steps vs lock-contended collect steps)\n\n";

  const std::vector<int> fleets = {1, 4, 8, 16, 64};
  const std::vector<std::uint32_t> concs = {1, 2, 4, 8};

  // Assemble every world of the sweep, then run them all in parallel:
  // each job builds its own deterministic world, so results are
  // independent of thread scheduling.
  struct Job {
    int fleet;
    std::uint32_t conc;
    bool contended;
  };
  std::vector<Job> jobs;
  for (const int f : fleets) {
    for (const auto c : concs) jobs.push_back({f, c, false});
  }
  for (const auto c : concs) jobs.push_back({8, c, true});

  const auto results = expt::run_worlds(
      jobs.size(),
      [&jobs](std::size_t i) {
        const Job& j = jobs[i];
        return run_fleet(j.fleet, j.conc, j.contended, /*seed=*/7);
      });

  bool shape_ok = true;
  auto result_of = [&](int fleet, std::uint32_t conc,
                       bool contended) -> const FleetResult& {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].fleet == fleet && jobs[i].conc == conc &&
          jobs[i].contended == contended) {
        return results[i];
      }
    }
    MAR_CHECK_MSG(false, "missing sweep cell");
    return results[0];
  };

  std::cout << "contention-free fleet:\n"
            << "fleet  conc  agents/s  mean[ms]  p95[ms]  makespan[ms]\n"
            << "-----------------------------------------------------\n";
  for (const int f : fleets) {
    double prev_aps = 0;
    for (const auto c : concs) {
      const auto& r = result_of(f, c, false);
      shape_ok = shape_ok && r.ok;
      std::cout << std::setw(5) << f << "  " << std::setw(4) << c << "  "
                << std::setw(8) << std::fixed << std::setprecision(1)
                << r.agents_per_sec << "  " << std::setw(8)
                << std::setprecision(2) << r.mean_us / 1000.0 << "  "
                << std::setw(7) << r.p95_us / 1000.0 << "  " << std::setw(12)
                << r.makespan_us / 1000.0 << "\n";
      // Monotone scaling: more slots never hurt, and strictly help while
      // slots are scarcer than agents.
      shape_ok = shape_ok && r.agents_per_sec >= prev_aps;
      if (c > 1 && static_cast<int>(c) <= f) {
        shape_ok = shape_ok && r.agents_per_sec > prev_aps;
      }
      prev_aps = r.agents_per_sec;
      report.row()
          .set("phase", "sweep")
          .set("contended", false)
          .set("fleet", f)
          .set("node_concurrency", static_cast<int>(c))
          .set("steps", kSteps)
          .set("agents_per_sec", r.agents_per_sec)
          .set("mean_completion_us", r.mean_us)
          .set("p95_completion_us", r.p95_us)
          .set("makespan_us", r.makespan_us)
          .set("lock_conflict_aborts", r.lock_conflicts)
          .set("step_p50_us", r.step_p50_us)
          .set("step_p95_us", r.step_p95_us)
          .set("step_p99_us", r.step_p99_us)
          .set_json("metrics", r.metrics_json)
          .set("ok", r.ok);
    }
  }

  std::cout << "\ncontended fleet (shared directory lock):\n"
            << "fleet  conc  agents/s  conflicts  makespan[ms]\n"
            << "----------------------------------------------\n";
  for (const auto c : concs) {
    const auto& r = result_of(8, c, true);
    shape_ok = shape_ok && r.ok;
    std::cout << std::setw(5) << 8 << "  " << std::setw(4) << c << "  "
              << std::setw(8) << std::fixed << std::setprecision(1)
              << r.agents_per_sec << "  " << std::setw(9) << r.lock_conflicts
              << "  " << std::setw(12) << std::setprecision(2)
              << r.makespan_us / 1000.0 << "\n";
    report.row()
        .set("phase", "sweep")
        .set("contended", true)
        .set("fleet", 8)
        .set("node_concurrency", static_cast<int>(c))
        .set("steps", kSteps)
        .set("agents_per_sec", r.agents_per_sec)
        .set("mean_completion_us", r.mean_us)
        .set("p95_completion_us", r.p95_us)
        .set("makespan_us", r.makespan_us)
        .set("lock_conflict_aborts", r.lock_conflicts)
        .set("step_p50_us", r.step_p50_us)
        .set("step_p95_us", r.step_p95_us)
        .set("step_p99_us", r.step_p99_us)
        .set_json("metrics", r.metrics_json)
        .set("ok", r.ok);
  }
  // Serial execution cannot conflict; multiprogramming must surface the
  // contention (that is the point of the lock-aware scheduler), and the
  // lock-serialized fleet cannot beat the contention-free one.
  shape_ok = shape_ok && result_of(8, 1, true).lock_conflicts == 0;
  shape_ok = shape_ok && result_of(8, 4, true).lock_conflicts > 0;
  shape_ok = shape_ok && result_of(8, 4, true).agents_per_sec <=
                             result_of(8, 4, false).agents_per_sec;

  // Reproducibility: 8 seed-replicated worlds, run through the parallel
  // driver twice with different thread counts — per-seed metrics must be
  // identical regardless of thread scheduling. What this pins down is
  // cross-thread determinism (same job -> same metrics no matter how the
  // pool schedules it); the contended fleet at least exercises the seeded
  // RNG through its retry backoffs, though the makespan itself is
  // service-time-bound and thus the same for every seed.
  const auto seeds = expt::replicate_seeds(42, 8);
  auto replica_job = [&seeds](std::size_t i) {
    return run_fleet(/*fleet=*/16, /*concurrency=*/4, /*contended=*/true,
                     seeds[i]);
  };
  const auto run_a = expt::run_worlds(seeds.size(), replica_job);
  const auto run_b = expt::run_worlds(seeds.size(), replica_job, 3);
  std::cout << "\nseed-replicated worlds (fleet 16, conc 4, contended):\n";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const bool same = run_a[i].ok && run_b[i].ok &&
                      run_a[i].makespan_us == run_b[i].makespan_us &&
                      run_a[i].mean_us == run_b[i].mean_us &&
                      run_a[i].lock_conflicts == run_b[i].lock_conflicts;
    shape_ok = shape_ok && same;
    std::cout << "  seed[" << i << "] makespan " << std::fixed
              << std::setprecision(2) << run_a[i].makespan_us / 1000.0
              << " ms  reproducible: " << (same ? "yes" : "NO") << "\n";
    report.row()
        .set("phase", "replicas")
        .set("seed_index", static_cast<int>(i))
        .set("seed", seeds[i])
        .set("makespan_us", run_a[i].makespan_us)
        .set("reproducible", same);
  }

  // Observability overhead: agents_per_sec is a virtual-time metric and
  // therefore tracing-invariant by construction; the honest cost of span
  // tracing + histograms is wall-clock, measured here as best-of-N runs
  // of the same deterministic world with tracing on vs off. Reported,
  // not shape-gated: wall-clock varies between machines, and the ≤3%
  // target is judged from the printed number.
  const int overhead_reps = 5;
  const auto [off_ms, on_ms] = time_fleet_ms(overhead_reps);
  const double overhead_pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0;
  std::cout << "\ntracing overhead (fleet 256, conc 4, wall-clock best of "
            << overhead_reps << "):\n"
            << "  tracing off: " << std::fixed << std::setprecision(2)
            << off_ms << " ms   tracing on: " << on_ms
            << " ms   overhead: " << std::setprecision(1) << overhead_pct
            << "%\n";
  report.row()
      .set("phase", "overhead")
      .set("tracing_off_ms", off_ms)
      .set("tracing_on_ms", on_ms)
      .set("tracing_overhead_pct", overhead_pct);

  std::cout << (shape_ok ? "\nshape check: OK\n" : "\nshape check: FAILED\n");
  report.set_ok(shape_ok);
  if (!json_path.empty() && !report.write_file(json_path)) return 2;
  return shape_ok ? 0 : 1;
}
