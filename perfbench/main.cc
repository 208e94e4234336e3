// marbench CLI. One process = one repetition of one workload:
//
//   marbench --workload fleet|migrate|rollback --seed N
//            [--retain-spans | --setup-only | --traced [--span-dump PATH]]
//   marbench --self-test
//
// prints one JSON object on stdout (see README.md); run.py is the runner
// that repeats processes and aggregates them.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "marbench.h"

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_counts(const std::map<std::uint64_t, std::uint64_t>& m) {
  std::string out = "{";
  for (const auto& [value, n] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + std::to_string(value) + "\":" + std::to_string(n);
  }
  return out + "}";
}

std::string json_figures(const marbench::Figures& f) {
  std::string out = "{";
  for (const auto& [k, v] : f) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

/// What the binary was built as: run.py refuses to report from anything
/// but an optimized NDEBUG build (Debug arms lock_audit by default).
std::string fingerprint() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream os;
  os << "{\"build_type\":" << json_string(MARBENCH_BUILD_TYPE)
     << ",\"ndebug\":" << (ndebug ? "true" : "false")
     << ",\"compiler\":" << json_string(
#if defined(__clang__)
            std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
            std::string("gcc ") + __VERSION__
#else
            std::string("unknown")
#endif
            )
     << ",\"cxx_flags\":" << json_string(MARBENCH_CXX_FLAGS)
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << "}";
  return os.str();
}

int stats_self_test() {
  using marbench::median;
  using marbench::percentile;
  using marbench::samples_beyond;
  int failed = 0;
  auto expect = [&failed](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failed;
    }
  };
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile(v, 50) == 500, "nearest-rank p50 of 1..1000");
  expect(percentile(v, 99) == 990, "nearest-rank p99 of 1..1000");
  expect(samples_beyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  expect(samples_beyond(512, 99) == 5, "p99 of 512 has 5 beyond");
  expect(samples_beyond(1024, 99) == 10, "p99 of 1024 has 10 beyond");
  expect(percentile({7}, 99) == 7, "single sample");
  expect(percentile({}, 50) == 0 && samples_beyond(0, 50) == 0, "empty");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
  return failed;
}

int usage() {
  std::cerr << "usage: marbench --workload NAME --seed N [--retain-spans | "
               "--setup-only | --traced [--span-dump PATH]] | --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  marbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      const int failed = stats_self_test() + marbench::oracle_self_test();
      std::cout << (failed == 0 ? "self-test: OK\n" : "self-test: FAILED\n");
      return failed == 0 ? 0 : 1;
    } else if (a == "--traced") {
      opts.traced = true;
    } else if (a == "--retain-spans") {
      opts.retain_spans = true;
    } else if (a == "--setup-only") {
      opts.setup_only = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--span-dump" && has_value) {
      opts.span_dump = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.workload.empty()) return usage();
  try {
    const auto r = marbench::run_workload(opts);
    for (const auto& why : r.oracle_failures) {
      std::cerr << "oracle: " << why << "\n";
    }
    std::cout << "{\"workload\":" << json_string(opts.workload)
              << ",\"seed\":" << opts.seed
              << ",\"traced\":" << (opts.traced ? "true" : "false")
              << ",\"build\":" << fingerprint()
              << ",\"ok\":" << (r.ok ? "true" : "false")
              << ",\"agents\":" << r.agents << ",\"failed\":" << r.failed
              << ",\"steps\":" << r.steps
              << ",\"setup_s\":" << json_number(r.setup_s)
              << ",\"drive_s\":" << json_number(r.drive_s)
              << ",\"drive_cpu_s\":" << json_number(r.drive_cpu_s)
              << ",\"peak_rss_mb\":" << json_number(r.peak_rss_mb)
              << ",\"totals\":" << json_figures(r.totals)
              << ",\"counts\":" << json_figures(r.counts)
              << ",\"timing\":" << json_figures(r.timing)
              << ",\"rollback_latency_us\":"
              << json_counts(r.rollback_latency_us)
              << ",\"step_latency_us\":" << json_counts(r.step_latency_us)
              << "}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "marbench: " << e.what() << "\n";
    return 1;
  }
}
