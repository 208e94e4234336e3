// Experiment E6 — rollback liveness under transient faults (Sec. 4.3).
//
// The mechanism's guarantee: "the algorithm ensures that all steps which
// have to be rolled back are eventually rolled back" assuming non-lasting
// node/network crashes and reliable transfer. This bench runs the standard
// 8-step rollback scenario while every node independently crash/recovers
// as a Poisson process, sweeping the crash rate, and reports completion
// times. The run FAILS if any configuration blocks.
//
// Two storage modes per crash rate, both on the CRC32-framed segment log:
//   * no_checkpoint — checkpoints off: every recovery replays the whole
//                     retained log (the full-replay baseline);
//   * segmented     — fuzzy checkpoints armed, recovering through the
//                     same crash schedule.
// The virtual-time outcome (completion times, crashes, compensation
// counts) must be identical between the modes; only the storage metering
// differs.
//
// Expected shape: completion time degrades smoothly as crashes become more
// frequent; correctness (completion + exact compensation) never degrades.
#include <iomanip>
#include <iostream>
#include <map>
#include <tuple>
#include <utility>

#include "common.h"

using namespace mar;

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::BenchReport report("e6_fault_recovery");
  std::cout << "=== E6: rollback completion under transient crashes ===\n"
            << "(8 steps + full-sub rollback; Poisson crash/recover per "
               "node, 200 ms mean downtime)\n\n";
  std::cout << "mode           MTBC[s]  crashes  forward[ms]  rollback[ms]  "
               "total[ms]  comp-CTs  done\n";
  std::cout << "--------------------------------------------------------"
               "------------------------\n";
  bool all_ok = true;
  // (mtbc, seed) -> virtual-time outcome of the no_checkpoint run.
  using Outcome = std::tuple<sim::TimeUs, sim::TimeUs, sim::TimeUs,
                             std::uint64_t, std::uint64_t>;
  std::map<std::pair<double, std::uint64_t>, Outcome> baseline;
  bool identical = true;
  for (const bool checkpoints : {false, true}) {
    for (const double mtbc_s : {0.0, 10.0, 3.0, 1.0, 0.5}) {
      // Average over seeds for the noisy settings.
      double total_ms = 0;
      double rollback_ms = 0;
      double forward_ms = 0;
      std::uint64_t crashes = 0;
      std::uint64_t comp = 0;
      bool ok = true;
      constexpr int kSeeds = 3;
      for (int seed = 0; seed < kSeeds; ++seed) {
        bench::RollbackScenario s;
        s.steps = 8;
        s.mixed_fraction = 0.5;
        s.seed = 100 + static_cast<std::uint64_t>(seed);
        s.inject_faults = mtbc_s > 0;
        s.mean_time_between_crashes_us = mtbc_s * 1e6;
        s.mean_downtime_us = 200'000;
        if (checkpoints) s.config.checkpoint_interval_bytes = 4096;
        const auto m = bench::run_rollback_scenario(s);
        m.write_fields(
            report.row()
                .set("mode", checkpoints ? "segmented" : "no_checkpoint")
                .set("mtbc_s", mtbc_s)
                .set("seed", s.seed));
        const Outcome outcome{m.total_us, m.forward_us, m.rollback_us,
                              m.crashes, m.comp_commits};
        const auto cell = std::make_pair(mtbc_s, s.seed);
        if (checkpoints) {
          identical = identical && baseline.at(cell) == outcome;
        } else {
          baseline.emplace(cell, outcome);
        }
        ok = ok && m.ok;
        total_ms += m.total_us / 1000.0 / kSeeds;
        rollback_ms += m.rollback_us / 1000.0 / kSeeds;
        forward_ms += m.forward_us / 1000.0 / kSeeds;
        crashes += m.crashes;
        comp += m.comp_commits;
      }
      std::cout << (checkpoints ? "segmented      " : "no_checkpoint  ")
                << std::setw(7) << std::fixed << std::setprecision(1)
                << mtbc_s << "  " << std::setw(7) << crashes << "  "
                << std::setw(11) << std::setprecision(1) << forward_ms
                << "  " << std::setw(12) << rollback_ms << "  "
                << std::setw(9) << total_ms << "  " << std::setw(8) << comp
                << "  " << (ok ? "yes" : "NO") << "\n";
      all_ok = all_ok && ok;
    }
  }
  std::cout << "\ncheck: every configuration completes (eventual rollback "
               "under transient faults, both storage modes) -> "
            << (all_ok ? "OK" : "MISMATCH") << "\n"
            << "check: virtual-time outcome identical across storage modes "
               "-> "
            << (identical ? "OK" : "MISMATCH") << "\n";
  all_ok = all_ok && identical;
  report.set_ok(all_ok);
  if (!json_path.empty() && !report.write_file(json_path)) return 2;
  return all_ok ? 0 : 1;
}
