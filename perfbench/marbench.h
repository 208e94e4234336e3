// marbench: one process runs one repetition of one workload and prints one
// JSON line with everything it measured (see README.md for the metric
// definitions). run.py repeats processes, takes medians and checks that the
// deterministic figures repeat exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace marbench {

/// Deterministic quantities of one run, keyed by metric name. Every value
/// is a pure function of (workload, seed): run.py requires them to repeat
/// bit for bit across repetitions and between untraced and traced runs.
using Figures = std::map<std::string, double>;

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 for an empty set.
/// The nearest-rank sample has `samples_beyond(n, p)` samples above it.
double percentile(std::vector<double> values, double p);
/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::uint64_t samples_beyond(std::uint64_t n, double p);
/// Median of `values` (mean of the middle two for an even count).
double median(std::vector<double> values);

/// Which extra work a run does beside the workload itself.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Retain every span (the default ring keeps the newest 4096 per node)
  /// and report exact step latencies from them.
  bool retain_spans = false;
  /// Traced run: retain spans, sample the drive loop, time the benchmark's
  /// own calls into the platform and run the layer probes.
  bool traced = false;
  /// Only time the set-up (world build + launch), several times.
  bool setup_only = false;
  /// Where a traced run writes its span dump (JSONL); empty = no dump.
  std::string span_dump;
};

struct RunResult {
  bool ok = true;               ///< every oracle held for every agent
  std::uint64_t agents = 0;     ///< agents launched
  std::uint64_t failed = 0;     ///< agents counted failed by an oracle
  std::vector<std::string> oracle_failures;  ///< first few, for stderr
  std::uint64_t steps = 0;      ///< committed agent steps (exactly-once)

  // Wall clock / CPU / memory (not deterministic).
  double setup_s = 0;           ///< world build + seeding + launch
  double drive_s = 0;           ///< run_until_all_finished (or traced loop)
  double drive_cpu_s = 0;       ///< process CPU over the drive phase
  double peak_rss_mb = 0;

  /// Deterministic totals (steps, makespan_us, storage_bytes, wire_bytes)
  /// the end-to-end virtual-time and byte metrics are computed from.
  Figures totals;
  Figures counts;               ///< per-layer deterministic counts
  Figures timing;               ///< traced-run timers and probe results
  /// Exact simulated latencies, value (us) -> samples. Rollback latency
  /// comes from every run; step latency needs retained spans.
  std::map<std::uint64_t, std::uint64_t> rollback_latency_us;
  std::map<std::uint64_t, std::uint64_t> step_latency_us;
};

/// Run one repetition of `opts.workload`; `agents_override` > 0 shrinks
/// the fleet (self-test). Unknown workloads throw.
RunResult run_workload(const RunOptions& opts, int agents_override = 0);

/// Layer probes for a traced run: time public entry points on inputs
/// shaped like the ones the run produced and write `<layer>.*_ns` figures
/// into `out`.
struct ProbeInputs {
  std::vector<std::vector<std::uint8_t>> images;  ///< captured agents
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t mean_append_bytes = 0;           ///< record delta size
};
void run_probes(const ProbeInputs& in, Figures& out);

/// Oracle self-test: small worlds of every workload must pass every oracle,
/// and deliberately broken results must be caught. Returns failed checks.
int oracle_self_test();

}  // namespace marbench
