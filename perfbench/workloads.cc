// The three benchmark workloads, their output oracles and the extraction of
// every metric from a finished world. Only the platform's public API is
// used: TestWorld, Platform, NodeRuntime accessors, Network::stats(),
// TraceSink and SpanSink.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "marbench.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/trace.h"

namespace marbench {

using mar::AgentId;
using mar::NodeId;
using mar::Rng;
using mar::TraceKind;
using mar::agent::AgentOutcome;
using mar::agent::Itinerary;
using mar::harness::TestWorld;
using mar::harness::WorkloadAgent;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::uint64_t samples_beyond(std::uint64_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  return n - rank;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

constexpr int kAccounts = 64;
constexpr double kZipfS = 1.2;
constexpr std::int64_t kParamBytes = 64;
/// Simulated time run after a traced drive phase before the span dump.
constexpr mar::sim::TimeUs kDrainUs = 1'000'000;
/// Set-ups timed per process (the measured run's own plus repeats).
constexpr std::size_t kSetups = 5;

/// One agent's generated inputs plus what its final state must show.
struct AgentPlan {
  Itinerary itinerary;
  bool rolls_back = false;
  std::string trigger_step;       ///< step whose visit requests the rollback
  std::int64_t trigger_visit = 0;
  std::int64_t expected_visits = 0;
  std::int64_t expected_cash = 0;     ///< -(committed spend_logged steps)
  std::int64_t expected_results = 0;  ///< collect steps since the savepoint
  std::int64_t deposits = 0;          ///< committed bank_hot steps
  std::vector<std::int64_t> hot_accounts;
};

/// Size of a workload's world.
struct Shape {
  int nodes = 1;
  int agents = 0;
  /// Agents that request the partial rollback (an exact, seeded subset).
  double rollback_share = 0;
  bool bank = false;  ///< seed kAccounts accounts per node
};

NodeId node(int i) { return TestWorld::n(i); }

/// A sub-itinerary's steps and where they run; the last `tail` steps form a
/// nested sub-itinerary (the rollback target for fleet and migrate).
struct Course {
  std::vector<std::pair<std::string, int>> steps;  ///< (method, node)
  std::size_t tail = 0;  ///< 0 = no nested tail sub
};

Itinerary build_itinerary(const Course& c) {
  Itinerary body;
  const std::size_t split = c.steps.size() - c.tail;
  for (std::size_t i = 0; i < split; ++i) {
    body.step(c.steps[i].first, node(c.steps[i].second));
  }
  if (c.tail > 0) {
    Itinerary tail;
    for (std::size_t i = split; i < c.steps.size(); ++i) {
      tail.step(c.steps[i].first, node(c.steps[i].second));
    }
    body.sub(std::move(tail));
  }
  Itinerary main_it;
  main_it.sub(std::move(body));
  return main_it;
}

/// Per-step account draws: Zipf(kZipfS) over kAccounts (as bench_a6).
std::vector<std::int64_t> zipf_draws(int count, Rng& rng) {
  std::vector<double> cdf(kAccounts);
  double sum = 0;
  for (int r = 0; r < kAccounts; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[static_cast<std::size_t>(r)] = sum;
  }
  std::vector<std::int64_t> draws;
  for (int s = 0; s < count; ++s) {
    const double u = rng.next_double() * sum;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    draws.push_back(std::min<std::int64_t>(it - cdf.begin(), kAccounts - 1));
  }
  return draws;
}

/// Fill in the expectations of a plan whose course is `c`. A rolling agent
/// requests the rollback at its last step's first visit: that step aborts,
/// the rollback compensates the rolled-back sub's committed steps, and the
/// sub re-runs once (triggers are one-shot).
AgentPlan make_plan(const Course& c, bool rolls_back,
                    std::vector<std::int64_t> hot_accounts = {}) {
  AgentPlan p;
  p.itinerary = build_itinerary(c);
  p.rolls_back = rolls_back;
  p.hot_accounts = std::move(hot_accounts);
  const auto n = static_cast<std::int64_t>(c.steps.size());
  // Steps of the sub-itinerary the rollback re-runs.
  const std::size_t redo_from = c.tail > 0 ? c.steps.size() - c.tail : 0;
  const auto redo = static_cast<std::int64_t>(c.steps.size() - redo_from);
  p.trigger_step = c.steps.back().first;
  p.trigger_visit = n;
  p.expected_visits = rolls_back ? n - 1 + redo : n;
  for (const auto& step : c.steps) {
    const auto& method = step.first;
    if (method == "spend_logged") --p.expected_cash;
    if (method == "bank_hot") ++p.deposits;
    // Strongly reversible results: a rollback restores the list at the
    // savepoint, then the re-run appends again — the count is unchanged.
    if (method == "collect") ++p.expected_results;
  }
  return p;
}

/// fleet: F agents x 14-18 (mean 16) lock-free `work` steps. Each agent
/// starts on node 2 and then runs the rest on node 1, whose queue holds the
/// whole fleet (one migration per agent keeps a small network share). The
/// last 4 steps are a nested sub that a seeded quarter of the agents rolls
/// back.
std::vector<AgentPlan> plan_fleet(const Shape& s, Rng& rng,
                                  const std::vector<bool>& rolls) {
  std::vector<AgentPlan> plans;
  for (int a = 0; a < s.agents; ++a) {
    const int steps = 14 + static_cast<int>(rng.next_below(5));
    Course c;
    for (int i = 0; i < steps; ++i) {
      c.steps.emplace_back("work", i == 0 ? 2 : 1);
    }
    c.tail = 4;
    plans.push_back(make_plan(c, rolls[static_cast<std::size_t>(a)]));
  }
  return plans;
}

/// migrate: 64 `spend_logged` steps at home age the agent's log, then it
/// walks the 4-node ring for 72-88 hops, the last 4 in a nested sub. Most
/// steps are migrations of the aged image.
std::vector<AgentPlan> plan_migrate(const Shape& s, Rng& rng,
                                    const std::vector<bool>& rolls) {
  std::vector<AgentPlan> plans;
  for (int a = 0; a < s.agents; ++a) {
    const int home = a % s.nodes;
    const int hops = 72 + static_cast<int>(rng.next_below(17));
    Course c;
    for (int i = 0; i < 64; ++i) c.steps.emplace_back("spend_logged", home + 1);
    for (int h = 1; h <= hops; ++h) {
      c.steps.emplace_back("spend_logged", (home + h) % s.nodes + 1);
    }
    c.tail = 4;
    plans.push_back(make_plan(c, rolls[static_cast<std::size_t>(a)]));
  }
  return plans;
}

/// rollback: one 8-step sub spread over the ring, alternating bank_hot
/// deposits (Zipf-drawn accounts) with collect reads and spend_logged; a
/// seeded half rolls the whole sub back at its last step and re-runs it.
std::vector<AgentPlan> plan_rollback(const Shape& s, Rng& rng,
                                     const std::vector<bool>& rolls) {
  static const char* kMethods[] = {"bank_hot", "collect",  "bank_hot",
                                   "spend_logged", "bank_hot", "collect",
                                   "bank_hot", "spend_logged"};
  std::vector<AgentPlan> plans;
  for (int a = 0; a < s.agents; ++a) {
    const int start = a % s.nodes;
    Course c;
    for (int k = 0; k < 8; ++k) {
      c.steps.emplace_back(kMethods[k], (start + k) % s.nodes + 1);
    }
    // bank_hot indexes its draws by visit count; 16 cover the re-run.
    plans.push_back(make_plan(c, rolls[static_cast<std::size_t>(a)],
                              zipf_draws(16, rng)));
  }
  return plans;
}

Shape shape_of(const std::string& workload) {
  if (workload == "fleet") return {2, 4096, 0.25, false};
  if (workload == "migrate") return {4, 64, 1.0, false};
  if (workload == "rollback") return {4, 2048, 0.5, true};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::vector<AgentPlan> make_plans(const std::string& workload, const Shape& s,
                                  Rng& rng) {
  // Stratified by launch order: in every block of 1/share consecutive
  // agents the seed picks exactly one to roll back, so rollbacks spread
  // evenly over the fleet instead of clustering by chance.
  const auto block = static_cast<std::size_t>(
      std::max(1L, std::lround(1.0 / s.rollback_share)));
  std::vector<bool> rolls(static_cast<std::size_t>(s.agents), false);
  for (std::size_t b = 0; b < rolls.size(); b += block) {
    const auto pick = b + rng.next_below(block);
    if (pick < rolls.size()) rolls[pick] = true;
  }
  if (workload == "fleet") return plan_fleet(s, rng, rolls);
  if (workload == "migrate") return plan_migrate(s, rng, rolls);
  return plan_rollback(s, rng, rolls);
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Agent id from a trace detail of the form "... agent <id>[ ...]".
std::uint64_t agent_in(const std::string& detail) {
  const auto pos = detail.find("agent ");
  if (pos == std::string::npos) return 0;
  return std::strtoull(detail.c_str() + pos + 6, nullptr, 10);
}

/// Per-agent rollback latency in simulated time, from the rollback request
/// to the target savepoint's restore. The request's rollback_begin event
/// carries no agent id, but the step that requested it runs synchronously
/// inside one simulator event, so the nearest preceding step_begin (which
/// names the agent) identifies it.
std::unordered_map<std::uint64_t, double> rollback_latencies(
    const mar::TraceSink& trace) {
  std::unordered_map<std::uint64_t, std::uint64_t> begun;
  std::unordered_map<std::uint64_t, double> latency;
  std::uint64_t last_step_agent = 0;
  for (const auto& ev : trace.events()) {
    switch (ev.kind) {
      case TraceKind::step_begin:
        last_step_agent = agent_in(ev.detail);
        break;
      case TraceKind::rollback_begin:
        begun.emplace(last_step_agent, ev.time_us);
        break;
      case TraceKind::rollback_done: {
        const auto id = agent_in(ev.detail);
        const auto it = begun.find(id);
        if (it != begun.end() && !latency.contains(id)) {
          latency[id] = static_cast<double>(ev.time_us - it->second);
        }
        break;
      }
      default:
        break;
    }
  }
  return latency;
}

/// Drive-loop sampling of a traced run (queue depth, pending events, the
/// records each queue receives).
struct DriveSampler {
  std::uint64_t queue_depth_max = 0;
  std::uint64_t pending_max = 0;
  std::vector<std::uint64_t> last_back;       ///< per node: last seen record
  std::unordered_set<std::uint64_t> comp_seen;  ///< agents sampled
  std::vector<double> comp_log_bytes;          ///< log size at rollback
  std::uint64_t records = 0;  ///< new records carrying a full image
  double record_bytes = 0;
  std::vector<std::vector<std::uint8_t>> images;  ///< probe inputs

  void sample(mar::agent::Platform& p, mar::sim::Simulator& sim, int nodes) {
    pending_max = std::max<std::uint64_t>(pending_max, sim.pending());
    if (last_back.empty()) last_back.assign(static_cast<std::size_t>(nodes), 0);
    for (int n = 1; n <= nodes; ++n) {
      const auto& q = p.node(node(n)).storage().queue();
      queue_depth_max = std::max<std::uint64_t>(queue_depth_max, q.size());
      if (q.empty()) continue;
      const auto& back = q.back();
      auto& seen = last_back[static_cast<std::size_t>(n - 1)];
      if (back.record_id == seen) continue;
      seen = back.record_id;
      // Same-node commits leave the payload empty (the record area holds
      // the image); only records carrying a full agent image count.
      if (back.payload.empty()) continue;
      ++records;
      record_bytes += static_cast<double>(back.payload.size());
      if (records % 64 == 1 && images.size() < 256) {
        images.push_back(back.payload);
      }
      if (back.kind == mar::storage::RecordKind::compensate &&
          comp_seen.insert(back.agent.value()).second) {
        comp_log_bytes.push_back(
            static_cast<double>(p.decode(back.payload)->log().byte_size()));
      }
    }
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t scalar(const mar::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.scalars.find(name);
  return it == s.scalars.end() ? 0 : it->second;
}

double hist_pct(const mar::MetricsSnapshot& s, const std::string& name,
                double p) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end()
             ? 0
             : static_cast<double>(it->second.percentile(p));
}

std::uint64_t hist_count(const mar::MetricsSnapshot& s,
                         const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

/// Everything one repetition needs, kept together so the oracles can be
/// exercised against a deliberately broken world by the self-test.
struct Scenario {
  Shape shape;
  std::vector<AgentPlan> plans;
  std::unique_ptr<TestWorld> world;
  std::vector<AgentId> ids;
};

Scenario build_scenario(const std::string& workload, std::uint64_t seed,
                        int agents_override) {
  Scenario sc;
  sc.shape = shape_of(workload);
  if (agents_override > 0) sc.shape.agents = agents_override;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  sc.plans = make_plans(workload, sc.shape, rng);

  mar::agent::PlatformConfig cfg;
  cfg.node_concurrency = 4;
  sc.world = std::make_unique<TestWorld>(cfg, sc.shape.nodes, seed);
  auto& w = *sc.world;
  mar::harness::register_workload(w.platform);
  for (int n = 1; n <= sc.shape.nodes; ++n) {
    w.publish(n, "info", mar::serial::Value("node" + std::to_string(n)));
    if (!sc.shape.bank) continue;
    for (int a = 0; a < kAccounts; ++a) {
      w.open_account(n, "a" + std::to_string(a), 0);
    }
  }
  sc.ids.reserve(sc.plans.size());
  for (const auto& plan : sc.plans) {
    auto ag = std::make_unique<WorkloadAgent>();
    ag->itinerary() = plan.itinerary;
    if (plan.rolls_back) {
      ag->set_trigger(plan.trigger_step, plan.trigger_visit, "sub", 0);
    }
    ag->set_config("param_bytes", kParamBytes);
    if (!plan.hot_accounts.empty()) {
      mar::serial::Value accounts = mar::serial::Value::empty_list();
      for (const auto d : plan.hot_accounts) accounts.push_back(d);
      ag->set_config_value("hot_accounts", std::move(accounts));
    }
    auto r = w.platform.launch(std::move(ag));
    if (!r.is_ok()) {
      throw std::runtime_error("launch failed: " + r.status().to_string());
    }
    sc.ids.push_back(r.value());
  }
  return sc;
}

/// The output oracles. Per agent: terminal state `done`, visit counter ==
/// its exactly-once step count, weak cash == -(committed spend_logged
/// steps), strongly reversible results restored and re-collected. Global:
/// bank balances sum to exactly the committed deposits, and one
/// rollback_done per rolling agent. A broken global oracle cannot be
/// attributed to one agent, so it fails every agent.
std::uint64_t check_oracles(Scenario& sc, RunResult& res) {
  auto& w = *sc.world;
  auto fail = [&res](const std::string& why) {
    if (res.oracle_failures.size() < 8) res.oracle_failures.push_back(why);
  };
  std::uint64_t failed = 0;
  std::int64_t deposits = 0;
  std::uint64_t rolling = 0;
  for (std::size_t i = 0; i < sc.ids.size(); ++i) {
    const auto& plan = sc.plans[i];
    const auto& out = w.platform.outcome(sc.ids[i]);
    deposits += plan.deposits;
    rolling += plan.rolls_back ? 1 : 0;
    const std::string who = "agent " + std::to_string(sc.ids[i].value());
    if (out.state != AgentOutcome::State::done) {
      fail(who + ": not done (" + out.status.to_string() + ")");
      ++failed;
      continue;
    }
    auto fin = w.platform.decode(out.final_agent);
    const auto& d = fin->data();
    const auto visits = d.weak("visits").as_int();
    const auto cash = d.weak("cash").as_int();
    const auto results =
        static_cast<std::int64_t>(d.strong("results").as_list().size());
    if (visits != plan.expected_visits || cash != plan.expected_cash ||
        results != plan.expected_results) {
      fail(who + ": visits " + std::to_string(visits) + "/" +
           std::to_string(plan.expected_visits) + " cash " +
           std::to_string(cash) + "/" + std::to_string(plan.expected_cash) +
           " results " + std::to_string(results) + "/" +
           std::to_string(plan.expected_results));
      ++failed;
      continue;
    }
    res.steps += static_cast<std::uint64_t>(visits);
  }
  bool global_ok = true;
  if (sc.shape.bank) {
    std::int64_t balance = 0;
    for (int n = 1; n <= sc.shape.nodes; ++n) {
      for (const auto& [acct, entry] :
           w.committed(n, "bank").at("accounts").as_map()) {
        (void)acct;
        balance += entry.at("balance").as_int();
      }
    }
    if (balance != deposits) {
      fail("bank balances sum to " + std::to_string(balance) +
           ", committed deposits " + std::to_string(deposits));
      global_ok = false;
    }
  }
  const auto done = w.trace.count(TraceKind::rollback_done);
  if (done != rolling) {
    fail("rollback_done " + std::to_string(done) + " != rolling agents " +
         std::to_string(rolling));
    global_ok = false;
  }
  if (!global_ok) failed = sc.ids.size();
  return failed;
}

/// One measured repetition; the world is gone when it returns.
RunResult measure(const RunOptions& opts, int agents_override) {
  RunResult res;
  const double t_setup = wall_now();
  Scenario sc = build_scenario(opts.workload, opts.seed, agents_override);
  res.setup_s = wall_now() - t_setup;
  res.agents = sc.ids.size();
  auto& w = *sc.world;

  if (opts.retain_spans || opts.traced) {
    // Keep every span of the run (the ring otherwise drops the oldest).
    w.platform.spans().set_capacity(std::size_t{1} << 26);
  }
  DriveSampler sampler;
  const double t_drive = wall_now();
  const double c_drive = cpu_now();
  bool finished = false;
  if (opts.traced) {
    // Same stopping rule as Platform::run_until_all_finished, so the
    // traced run ends on the same event as the untraced one.
    finished = w.sim.run_while_pending([&] {
      sampler.sample(w.platform, w.sim, sc.shape.nodes);
      return std::all_of(sc.ids.begin(), sc.ids.end(), [&](AgentId id) {
        return w.platform.finished(id);
      });
    });
  } else {
    finished = w.platform.run_until_all_finished(sc.ids);
  }
  res.drive_cpu_s = cpu_now() - c_drive;
  res.drive_s = wall_now() - t_drive;
  const std::uint64_t events = w.sim.events_executed();

  const double t_verify = wall_now();
  if (!finished) {
    res.oracle_failures.push_back("simulation drained before every agent "
                                  "finished");
  }
  res.failed = check_oracles(sc, res);
  res.ok = finished && res.failed == 0;
  const auto lat = rollback_latencies(w.trace);
  const double verify_s = wall_now() - t_verify;
  res.peak_rss_mb = peak_rss_mb();

  // --- deterministic totals the end-to-end metrics are made from ----------
  const double t_snap = wall_now();
  const auto snap = w.platform.metrics_snapshot();
  const double snap_s = wall_now() - t_snap;
  const double steps = static_cast<double>(res.steps);
  std::uint64_t storage_bytes = 0;
  std::uint64_t part_syncs = 0;
  std::uint64_t coord_syncs = 0;
  std::uint64_t depth_max = 0;
  for (int n = 1; n <= sc.shape.nodes; ++n) {
    auto& rt = w.platform.node(node(n));
    storage_bytes += rt.storage().stats().bytes_written;
    part_syncs += rt.txm().participant_syncs();
    coord_syncs += rt.txm().stats().coordinator_syncs;
    depth_max = std::max<std::uint64_t>(depth_max,
                                        rt.txm().stats().pipeline_depth_max);
  }
  const auto& net = w.net.stats();
  mar::sim::TimeUs makespan = 0;
  for (const auto id : sc.ids) {
    makespan = std::max(makespan, w.platform.outcome(id).finished_at);
  }
  std::vector<double> rb;
  for (const auto& [agent, us] : lat) {
    rb.push_back(us);
    ++res.rollback_latency_us[static_cast<std::uint64_t>(us)];
  }
  if (rb.size() != w.trace.count(TraceKind::rollback_done)) {
    res.oracle_failures.push_back("rollback latency unmatched for some "
                                  "agents");
    res.ok = false;
  }
  res.totals["steps"] = steps;
  res.totals["makespan_us"] = static_cast<double>(makespan);
  res.totals["storage_bytes"] = static_cast<double>(storage_bytes);
  res.totals["wire_bytes"] = static_cast<double>(net.bytes_sent);
  if (opts.retain_spans || opts.traced) {
    // Exact latency of every committed step: its hop span, from the
    // record entering the node's queue to the step transaction's commit.
    // Hops without a step_exec child (compensations, rollback requests)
    // are not steps.
    std::unordered_set<std::uint64_t> executed;
    const auto all = w.platform.spans().spans();
    for (const auto& s : all) {
      if (s.kind == mar::SpanKind::step_exec) executed.insert(s.parent);
    }
    std::uint64_t samples = 0;
    for (const auto& s : all) {
      if (s.kind != mar::SpanKind::hop || !executed.contains(s.span_id)) {
        continue;
      }
      ++res.step_latency_us[s.end_us - s.begin_us];
      ++samples;
    }
    // The step.latency_us histogram skips each agent's final step, and a
    // hop that commits after the last agent finished is not recorded yet.
    if (samples < hist_count(snap, "step.latency_us") ||
        samples > res.steps) {
      res.oracle_failures.push_back(
          "span-derived step latencies (" + std::to_string(samples) +
          ") disagree with step.latency_us (" +
          std::to_string(hist_count(snap, "step.latency_us")) +
          " samples) and committed steps (" + std::to_string(res.steps) +
          ")");
      res.ok = false;
    }
  }

  // --- per-layer deterministic counts -------------------------------------
  auto& c = res.counts;
  const double hops = static_cast<double>(hist_count(snap, "hop.latency_us"));
  const double rollbacks = static_cast<double>(rb.size());
  c["rollback.samples"] = rollbacks;
  c["rollback.samples_beyond_p99"] =
      static_cast<double>(samples_beyond(rb.size(), 99));
  c["agent.queue_wait_p50_us"] = hist_pct(snap, "queue.wait_us", 0.50);
  c["agent.queue_wait_p99_us"] = hist_pct(snap, "queue.wait_us", 0.99);
  c["sim.events_per_step"] = ratio(static_cast<double>(events), steps);
  c["storage.queue_ops_per_step"] =
      ratio(static_cast<double>(scalar(snap, "storage.queue_ops")), steps);
  c["storage.record_appends_per_step"] =
      ratio(static_cast<double>(scalar(snap, "storage.record_appends")), steps);
  c["storage.record_resets_per_step"] =
      ratio(static_cast<double>(scalar(snap, "storage.record_resets")), steps);
  c["storage.syncs_per_step"] =
      ratio(static_cast<double>(scalar(snap, "storage.sync_batches")), steps);
  c["tx.coordinator_syncs_per_hop"] =
      ratio(static_cast<double>(coord_syncs), hops);
  c["tx.participant_syncs_per_hop"] =
      ratio(static_cast<double>(part_syncs), hops);
  c["tx.pipeline_depth_max"] = static_cast<double>(depth_max);
  c["tx.commit_flush_p99_us"] = hist_pct(snap, "commit.flush_us", 0.99);
  const double delta = static_cast<double>(scalar(snap, "ship.delta_ships"));
  const double full = static_cast<double>(scalar(snap, "ship.full_images"));
  c["ship.payload_bytes_per_hop"] =
      ratio(static_cast<double>(scalar(snap, "ship.wire_payload_bytes")), hops);
  c["ship.delta_hit_ratio"] = ratio(delta, delta + full);
  c["ship.delta_fallbacks"] =
      static_cast<double>(scalar(snap, "ship.delta_fallbacks"));
  c["ship.need_full_retries"] =
      static_cast<double>(scalar(snap, "ship.need_full_retries"));
  c["ship.entries_per_convoy"] =
      ratio(static_cast<double>(scalar(snap, "ship.entries_sent")),
            static_cast<double>(scalar(snap, "ship.convoys_sent")));
  std::vector<double> image_bytes;
  for (const auto id : sc.ids) {
    image_bytes.push_back(
        static_cast<double>(w.platform.outcome(id).final_agent.size()));
  }
  c["serial.image_bytes_p50"] = percentile(image_bytes, 50);
  c["net.messages_per_step"] =
      ratio(static_cast<double>(net.messages_sent), steps);
  for (const char* type : {"ship.convoy", "ship.convoy_ack", "tx.commit",
                           "tx.commit_ack", "rce.exec", "rce.ack"}) {
    const auto it = net.bytes_by_type.find(type);
    c[std::string("net.bytes_by_type.") + type] =
        it == net.bytes_by_type.end()
            ? 0
            : ratio(static_cast<double>(it->second), steps);
  }
  const double aborts =
      static_cast<double>(w.platform.lock_conflict_aborts());
  c["resource.abort_rate"] = ratio(aborts, steps);
  const double comp_commit =
      static_cast<double>(w.trace.count(TraceKind::comp_commit));
  const double comp_abort =
      static_cast<double>(w.trace.count(TraceKind::comp_abort));
  const double comp_ops = static_cast<double>(w.trace.count(TraceKind::comp_op));
  c["rollback.comp_ops_per_rollback"] = ratio(comp_ops, rollbacks);
  c["rollback.comp_commit_ratio"] =
      ratio(comp_commit, comp_commit + comp_abort);
  c["rollback.transfers_per_rollback"] =
      ratio(static_cast<double>(w.platform.rollback_transfers()), rollbacks);
  c["rollback.mixed_ships"] = static_cast<double>(w.platform.mixed_ships());
  c["util.trace_events_per_step"] =
      ratio(static_cast<double>(w.trace.size()), steps);

  if (!opts.traced) return res;

  // --- traced-run extras: sampled counts, spans, timers, probes -----------
  c["agent.queue_depth_max"] = static_cast<double>(sampler.queue_depth_max);
  c["sim.pending_max"] = static_cast<double>(sampler.pending_max);
  c["rollback.log_bytes_p50"] = percentile(sampler.comp_log_bytes, 50);
  const auto& spans = w.platform.spans();
  const auto span_count = static_cast<double>(spans.size());
  c["util.spans_per_step"] = ratio(span_count, steps);
  std::vector<double> lock_waits;
  for (const auto& s : spans.of_kind(mar::SpanKind::lock_wait)) {
    lock_waits.push_back(static_cast<double>(s.end_us - s.begin_us));
  }
  c["resource.lock_wait_p99_us"] = percentile(lock_waits, 99);

  auto& t = res.timing;
  double dump_s = 0;
  if (!opts.span_dump.empty()) {
    // The last agent can finish before the coordinator-side commits of
    // its earlier hops complete; run those events (after every figure
    // above was taken) so every hop span in the dump is closed.
    w.sim.run_until(w.sim.now() + kDrainUs);
    const double t_dump = wall_now();
    std::ofstream os(opts.span_dump);
    spans.dump(os);
    if (!os) throw std::runtime_error("cannot write " + opts.span_dump);
    dump_s = wall_now() - t_dump;
  }
  t["bench.setup_s"] = res.setup_s;
  t["bench.drive_s"] = res.drive_s;
  t["bench.verify_s"] = verify_s;
  t["bench.snapshot_s"] = snap_s;
  t["bench.dump_s"] = dump_s;

  // Inputs for the probes, and the op counts their per-op times scale by.
  ProbeInputs in;
  in.images = std::move(sampler.images);
  in.peak_queue_depth = sampler.queue_depth_max;
  const double writes =
      static_cast<double>(scalar(snap, "storage.record_appends") +
                          scalar(snap, "storage.record_resets") +
                          scalar(snap, "storage.kv_writes"));
  in.mean_append_bytes = static_cast<std::uint64_t>(
      std::max(1.0, ratio(static_cast<double>(storage_bytes), writes)));
  run_probes(in, t);

  // Probe ns/op x ops counted in this run, as a share of the drive CPU.
  const double cpu_ns = res.drive_cpu_s * 1e9;
  // Every full image entering a queue was encoded once and is decoded
  // once (a lower bound: the sampler sees one new record per event).
  const double codec_kb = sampler.record_bytes / 1024.0;
  const double resource_ops =
      static_cast<double>(w.trace.count(TraceKind::comp_op)) + aborts +
      [&] {
        double n = 0;
        for (const auto& plan : sc.plans) {
          n += static_cast<double>(plan.deposits + plan.expected_results) *
               (plan.rolls_back ? 2.0 : 1.0);
        }
        return n;
      }();
  const double shares[] = {
      t["sim.ns_per_event"] * static_cast<double>(events),
      t["storage.queue_op_ns"] *
              static_cast<double>(scalar(snap, "storage.queue_ops")) +
          t["storage.append_ns_per_kb"] *
              static_cast<double>(storage_bytes) / 1024.0,
      (t["serial.encode_ns_per_kb"] + t["serial.decode_ns_per_kb"]) * codec_kb,
      t["resource.op_ns"] * resource_ops,
      t["util.emit_ns"] * static_cast<double>(w.trace.size()) +
          t["util.span_record_ns"] * span_count,
  };
  const char* names[] = {"sim", "storage", "serial", "resource", "util"};
  double attributed = 0;
  for (std::size_t i = 0; i < std::size(names); ++i) {
    const double pct = ratio(shares[i], cpu_ns) * 100.0;
    t[std::string("layer.") + names[i] + ".cpu_share"] = pct;
    attributed += pct;
  }
  t["layer.unattributed.cpu_share"] = 100.0 - attributed;
  return res;
}

}  // namespace

RunResult run_workload(const RunOptions& opts, int agents_override) {
  RunResult res;
  if (!opts.setup_only) res = measure(opts, agents_override);
  // Set-up is short next to the drive phase: time it a few more times,
  // after the measured world (and the peak-RSS reading) is gone, and
  // report the median so the figure is steady.
  std::vector<double> setups;
  if (!opts.setup_only) setups.push_back(res.setup_s);
  while (setups.size() < kSetups) {
    const double t0 = wall_now();
    const Scenario again =
        build_scenario(opts.workload, opts.seed, agents_override);
    setups.push_back(wall_now() - t0);
    res.agents = again.ids.size();
  }
  res.setup_s = median(setups);
  return res;
}

int oracle_self_test() {
  int failed = 0;
  auto expect = [&failed](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failed;
    }
  };
  // Small worlds of every workload pass every oracle on two seeds.
  for (const auto& [workload, agents] :
       {std::pair{"fleet", 16}, {"migrate", 8}, {"rollback", 32}}) {
    for (const std::uint64_t seed : {1, 2}) {
      RunOptions o;
      o.workload = workload;
      o.seed = seed;
      const auto r = run_workload(o, agents);
      expect(r.ok && r.failed == 0 && r.steps > 0 &&
                 !r.rollback_latency_us.empty(),
             std::string(workload) + " passes its oracles");
    }
  }
  // Deliberately broken results are caught.
  Scenario sc = build_scenario("rollback", 5, 32);
  sc.world->platform.run_until_all_finished(sc.ids);
  const auto all = sc.ids.size();
  RunResult r;
  expect(check_oracles(sc, r) == 0, "clean rollback world");
  sc.plans[0].expected_visits += 1;  // as if a step ran twice
  r = {};
  expect(check_oracles(sc, r) == 1, "visit oracle fails exactly one agent");
  sc.plans[0].expected_visits -= 1;
  const auto flip = static_cast<std::size_t>(
      std::find_if(sc.plans.begin(), sc.plans.end(),
                   [](const AgentPlan& p) { return !p.rolls_back; }) -
      sc.plans.begin());
  sc.plans[flip].rolls_back = true;  // a rollback that never happened
  r = {};
  expect(check_oracles(sc, r) == all, "rollback_done oracle fails all");
  sc.plans[flip].rolls_back = false;
  auto& rm = sc.world->platform.node(node(1)).resources();
  mar::serial::Value bank = rm.committed_state("bank");
  auto& acct = bank.as_map().at("accounts").as_map().at("a0");
  acct.set("balance", acct.at("balance").as_int() + 1);  // a lost withdraw
  rm.poke_state("bank", std::move(bank));
  r = {};
  expect(check_oracles(sc, r) == all, "bank-sum oracle fails all");
  return failed;
}

}  // namespace marbench
