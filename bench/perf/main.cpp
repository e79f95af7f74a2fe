// pmx_perf: the paper-scale end-to-end benchmark of the pmx simulator (see
// README.md). One process runs one workload on one thread: an untimed
// warm-up pass over the workload's points, then timed passes while another
// pass still fits in --seconds (and until at least kMinPasses passes and
// kMinPointTimings point timings exist). Every pass checks every point's
// simulated result. Host-time metrics use each point's fastest timed pass
// (see fastest()). The last line of stdout is one JSON object holding the
// metrics.
//
// Usage: pmx_perf --workload NAME --seconds S [--seed N] [--trace 0|1]
//                 [--selftest-slow-predictor-ns NS]
//        pmx_perf --write-expected
//
// --trace 1 alternates untraced and traced passes and reports the
// per-layer breakdown instead of the end-to-end metrics.
// --write-expected regenerates expected/<workload>.txt for the default
// seed through pmx::run_workload itself, so the staged path is checked
// against the library's own entry point.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "points.hpp"
#include "probes.hpp"
#include "stage.hpp"

namespace {

using perf::Point;
using perf::PointRun;

constexpr std::size_t kMinPasses = 3;
/// Small point sets (overload: 12 points) get more passes, so every point's
/// fastest time is picked from several timings.
constexpr std::size_t kMinPointTimings = 100;
constexpr std::size_t kMinTracedPasses = 2;

std::string expected_path(const std::string& workload) {
  return std::string(PMX_PERF_EXPECTED_DIR) + "/" + workload + ".txt";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::ranges::sort(v);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Correctness ------------------------------------------------------------

/// Checks every point run: drained, ledger balanced, auditor clean, and the
/// fingerprint equal to the committed one (default seed) and to the point's
/// first run in this process (determinism; traced == untraced).
class Checker {
 public:
  Checker(const std::vector<Point>& points,
          std::vector<std::optional<std::uint64_t>> expected)
      : points_(points),
        expected_(std::move(expected)),
        first_(points.size()) {}

  void check(std::size_t i, const PointRun& run) {
    ++attempted_;
    const std::uint64_t fp = perf::fingerprint(run.result);
    const char* why = nullptr;
    if (!run.result.completed) {
      why = "did not drain before the horizon";
    } else if (!run.ledger_ok) {
      why = "ledger does not balance (delivered + shed + dropped != "
            "submitted)";
    } else if (run.result.metrics.audit_violations > 0) {
      why = "auditor reported violations";
    } else if (expected_[i].has_value() && fp != *expected_[i]) {
      why = "fingerprint differs from the committed one";
    } else if (first_[i].has_value() && fp != *first_[i]) {
      why = "fingerprint differs from the point's first run";
    }
    if (!first_[i].has_value()) {
      first_[i] = fp;
    }
    if (why != nullptr) {
      ++failed_;
      if (errors_.size() < 16) {
        errors_.push_back(points_[i].label + ": " + why);
      }
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  const std::vector<Point>& points_;
  std::vector<std::optional<std::uint64_t>> expected_;
  std::vector<std::optional<std::uint64_t>> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Committed fingerprints of `points` (default seed). Exits when the file
/// is missing or lacks a point: the run could not be checked.
std::vector<std::optional<std::uint64_t>> load_expected(
    const std::string& workload, const std::vector<Point>& points) {
  std::ifstream in(expected_path(workload));
  std::map<std::string, std::uint64_t> by_label;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string label;
    std::string fp;
    fields >> label >> fp;
    by_label[label] = std::stoull(fp, nullptr, 16);
  }
  std::vector<std::optional<std::uint64_t>> expected;
  for (const Point& p : points) {
    const auto it = by_label.find(p.label);
    if (it == by_label.end()) {
      std::cerr << "pmx_perf: no committed fingerprint for " << workload << " "
                << p.label << " in " << expected_path(workload)
                << " (run pmx_perf --write-expected)\n";
      std::exit(1);
    }
    expected.emplace_back(it->second);
  }
  return expected;
}

int write_expected() {
  for (const std::string& workload : perf::workload_names()) {
    std::ofstream out(expected_path(workload));
    out << "# pmx_perf fingerprints of " << workload << ", seed "
        << perf::kDefaultSeed
        << ": FNV-1a of completed + RunMetrics, through pmx::run_workload\n";
    for (const Point& p : perf::make_points(workload, perf::kDefaultSeed)) {
      const pmx::RunResult r = pmx::run_workload(p.config, p.make_workload());
      if (!r.completed || r.metrics.audit_violations > 0) {
        std::cerr << "pmx_perf: " << workload << " " << p.label
                  << " did not complete cleanly; not writing it\n";
        return 1;
      }
      out << p.label << " " << hex(perf::fingerprint(r)) << "\n";
    }
    if (!out) {
      std::cerr << "pmx_perf: cannot write " << expected_path(workload) << "\n";
      return 1;
    }
    std::cerr << "wrote " << expected_path(workload) << "\n";
  }
  return 0;
}

// --- Passes -----------------------------------------------------------------

/// Per-layer sums over one pass.
struct Layers {
  perf::StageTimes times;
  std::uint64_t messages = 0;
  std::uint64_t configs = 0;
  std::uint64_t events = 0;
  pmx::SchedulerStats sched;
  perf::PredictorTally predictor;
  std::uint64_t shed = 0;
  double depth_p99_max = 0.0;
  std::uint64_t ctrl_messages = 0;
  std::uint64_t ctrl_rerequests = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t ctrl_dropped = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t solves = 0;
  std::uint64_t applies = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t audits = 0;
  std::uint64_t audited_points = 0;
  std::uint64_t idle_grants = 0;
  std::uint64_t evictions = 0;

  void add(const PointRun& r) {
    const pmx::RunMetrics& m = r.result.metrics;
    times.gen += r.times.gen;
    times.compile += r.times.compile;
    times.build += r.times.build;
    times.run += r.times.run;
    times.audit += r.times.audit;
    times.metrics += r.times.metrics;
    messages += r.messages;
    configs += r.compiled_configs;
    events += r.result.sim_events;
    sched.passes += r.sched.passes;
    sched.passes_elided += r.sched.passes_elided;
    sched.establishes += r.sched.establishes;
    sched.blocked += r.sched.blocked;
    sched.slot_advances += r.sched.slot_advances;
    predictor.calls += r.predictor.calls;
    predictor.busy_ns += r.predictor.busy_ns;
    predictor.evictions += r.predictor.evictions;
    shed += m.shed_messages;
    depth_p99_max = std::max(depth_p99_max, m.queue_depth_p99);
    ctrl_messages += m.ctrl_messages;
    ctrl_rerequests += m.ctrl_rerequests;
    lease_expiries += m.lease_expiries;
    ctrl_dropped += m.ctrl_dropped;
    retransmits += m.retransmits;
    solves += m.reopt_solves;
    applies += m.reopt_applies;
    rollbacks += m.reopt_rollbacks;
    audits += m.audits;
    audited_points += r.audited ? 1 : 0;
    idle_grants += r.result.counter("idle_grants");
    evictions += r.result.counter("evictions");
  }
};

struct Pass {
  std::vector<std::int64_t> point_ns;  ///< per point, set-up included
  /// Per point: workload generation + network construction.
  std::vector<std::int64_t> setup_ns;
  std::int64_t total_ns = 0;  ///< host time of the whole pass
  std::int64_t sim_ns = 0;    ///< simulated time advanced, all points
  Layers layers;
};

Pass run_pass(const std::vector<Point>& points, const perf::Instrument& inst,
              Checker& checker) {
  Pass pass;
  pass.point_ns.reserve(points.size());
  pass.setup_ns.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointRun run = perf::run_point(points[i], inst);
    checker.check(i, run);
    pass.point_ns.push_back(run.times.total);
    pass.setup_ns.push_back(run.times.gen + run.times.compile +
                            run.times.build);
    pass.total_ns += run.times.total;
    pass.sim_ns += run.sim_end_ns;
    pass.layers.add(run);
  }
  return pass;
}

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Each point's fastest time over `passes`. The simulation is
/// deterministic, so a point's host time varies only by what the host adds.
/// On a shared host that comes in bursts and in regimes of minutes, which
/// move a median over passes by 5-15% from run to run but a point's fastest
/// run by a few percent.
std::vector<std::int64_t> fastest(const std::vector<Pass>& passes,
                                  std::vector<std::int64_t> Pass::*times) {
  std::vector<std::int64_t> best = passes.front().*times;
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], (p.*times)[i]);
    }
  }
  return best;
}

/// Host seconds of one pass over the point set, from each point's fastest
/// run.
double pass_seconds(const std::vector<Pass>& passes) {
  std::int64_t sum = 0;
  for (const std::int64_t ns : fastest(passes, &Pass::point_ns)) {
    sum += ns;
  }
  return seconds(sum);
}

/// `samples` is the number of values a metric is computed from: the sums
/// take one fastest time per point, each over every timed pass; the
/// percentiles run over the points.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes) {
  std::vector<double> point_ms;
  for (const std::int64_t ns : fastest(passes, &Pass::point_ns)) {
    point_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  std::int64_t setup_ns = 0;
  for (const std::int64_t ns : fastest(passes, &Pass::setup_ns)) {
    setup_ns += ns;
  }
  const double wall = pass_seconds(passes);
  const double sim_us = static_cast<double>(passes.front().sim_ns) / 1e3;
  const std::size_t timings = passes.size() * point_ms.size();
  return {
      {"wall_s", "s", wall, timings},
      {"sim_us_per_host_s", "us/s", ratio(sim_us, wall), timings},
      {"point_ms_p50", "ms", quantile(point_ms, 0.5), point_ms.size()},
      {"point_ms_p90", "ms", quantile(point_ms, 0.9), point_ms.size()},
      {"setup_s", "s", seconds(setup_ns), timings},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1},
  };
}

/// Unit costs measured once per traced process.
struct Probes {
  double event_ns = 0.0;
  double pass_us = 0.0;
  double solve_us = 0.0;
};

/// The per-layer breakdown of one traced pass, in reporting order.
std::vector<Metric> layer_values(const Layers& l, const Probes& probes) {
  const double event_count = static_cast<double>(l.events);
  const double run_s = seconds(l.times.run);
  const double sched_busy =
      static_cast<double>(l.sched.passes - l.sched.passes_elided) *
      probes.pass_us / 1e6;
  const double dispatch = event_count * probes.event_ns / 1e9;
  const double predictor_s = seconds(l.predictor.busy_ns);
  const double audit_us =
      ratio(static_cast<double>(l.times.audit) / 1e3,
            static_cast<double>(l.audited_points));
  const double audit_s = static_cast<double>(l.audits) * audit_us / 1e6;
  const double control_s = static_cast<double>(l.solves) * probes.solve_us / 1e6;
  const auto count = [](const char* name, std::uint64_t v) {
    return Metric{name, "count", static_cast<double>(v), 1};
  };
  const auto value = [](const char* name, const char* unit, double v) {
    return Metric{name, unit, v, 1};
  };
  return {
      value("traffic.gen_s", "s", seconds(l.times.gen)),
      count("traffic.messages", l.messages),
      value("compiled.compile_s", "s", seconds(l.times.compile)),
      count("compiled.configs", l.configs),
      count("sim.events", l.events),
      value("sim.events_per_host_s", "1/s", ratio(event_count, run_s)),
      value("sim.event_ns", "ns", probes.event_ns),
      value("sim.dispatch_s_est", "s", dispatch),
      count("sched.passes", l.sched.passes),
      count("sched.passes_elided", l.sched.passes_elided),
      value("sched.elided_frac", "frac",
            ratio(static_cast<double>(l.sched.passes_elided),
                  static_cast<double>(l.sched.passes))),
      count("sched.establishes", l.sched.establishes),
      count("sched.blocked", l.sched.blocked),
      count("sched.slot_advances", l.sched.slot_advances),
      value("sched.pass_us", "us", probes.pass_us),
      value("sched.busy_s_est", "s", sched_busy),
      count("predictor.calls", l.predictor.calls),
      value("predictor.busy_s", "s", predictor_s),
      value("predictor.call_ns", "ns",
            ratio(static_cast<double>(l.predictor.busy_ns),
                  static_cast<double>(l.predictor.calls))),
      count("predictor.evictions", l.predictor.evictions),
      value("nic.shed_frac", "frac",
            ratio(static_cast<double>(l.shed),
                  static_cast<double>(l.messages))),
      value("nic.queue_depth_p99_bytes", "bytes", l.depth_p99_max),
      count("nic.ctrl_messages", l.ctrl_messages),
      count("nic.ctrl_rerequests", l.ctrl_rerequests),
      count("nic.lease_expiries", l.lease_expiries),
      count("fault.ctrl_dropped", l.ctrl_dropped),
      count("fault.retransmits", l.retransmits),
      count("control.solves", l.solves),
      count("control.applies", l.applies),
      count("control.rollbacks", l.rollbacks),
      value("control.solve_us", "us", probes.solve_us),
      value("control.busy_s_est", "s", control_s),
      value("switching.build_s", "s", seconds(l.times.build)),
      value("switching.run_s", "s", run_s),
      count("switching.audits", l.audits),
      value("switching.audit_us", "us", audit_us),
      value("switching.audit_s_est", "s", audit_s),
      count("switching.idle_grants", l.idle_grants),
      count("switching.evictions", l.evictions),
      value("switching.self_s", "s",
            run_s - predictor_s - sched_busy - dispatch - audit_s - control_s),
      value("core.metrics_s", "s", seconds(l.times.metrics)),
  };
}

/// Median over the traced passes of each layer value, plus the tracing
/// overhead: traced over untraced pass time, minus one.
std::vector<Metric> per_layer(const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced,
                              const Probes& probes) {
  std::vector<std::vector<Metric>> by_pass;
  for (const Pass& p : traced) {
    by_pass.push_back(layer_values(p.layers, probes));
  }
  std::vector<Metric> out = by_pass.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& pass : by_pass) {
      values.push_back(pass[m].value);
    }
    out[m].value = quantile(values, 0.5);
    out[m].samples = values.size();
  }
  out.push_back({"core.trace_overhead_frac", "frac",
                 ratio(pass_seconds(traced), pass_seconds(untraced)) - 1.0,
                 traced.size()});
  return out;
}

// --- Output -----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const std::string& workload, std::uint64_t seed, bool trace,
                  std::size_t passes, const Checker& checker,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"passes\": " << passes
     << ", \"correct\": " << (checker.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << checker.attempted()
     << ", \"failed\": " << checker.failed() << ", \"errors\": [";
  for (std::size_t i = 0; i < checker.errors().size(); ++i) {
    os << (i > 0 ? ", " : "") << json_string(checker.errors()[i]);
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i > 0 ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  if (cfg.get_bool("write-expected", false)) {
    cfg.fail_unread("pmx_perf");
    return write_expected();
  }
  if (!cfg.has("seconds")) {
    // The run length belongs to BENCHMARK.json (run_seconds), which the
    // runner passes; a default here could silently differ from it.
    std::cerr << "pmx_perf: --seconds is required\n";
    return 2;
  }
  const std::string workload = cfg.get_string("workload", "");
  const std::uint64_t seed = cfg.get_uint("seed", perf::kDefaultSeed);
  const double run_seconds = cfg.get_double("seconds", 0.0);
  const bool trace = cfg.get_uint("trace", 0) != 0;
  const auto slow_ns =
      static_cast<std::int64_t>(cfg.get_uint("selftest-slow-predictor-ns", 0));
  cfg.fail_unread("pmx_perf");

  const std::vector<Point> points = perf::make_points(workload, seed);
  if (points.empty()) {
    std::cerr << "pmx_perf: unknown --workload '" << workload << "'\n";
    return 2;
  }
  Checker checker(points, seed == perf::kDefaultSeed
                              ? load_expected(workload, points)
                              : std::vector<std::optional<std::uint64_t>>(
                                    points.size()));
  const perf::Instrument plain{false, slow_ns};
  const perf::Instrument traced{true, slow_ns};
  const auto budget_ns = static_cast<std::int64_t>(run_seconds * 1e9);

  (void)run_pass(points, plain, checker);  // warm-up, checked, untimed

  std::vector<Pass> untraced_passes;
  std::vector<Pass> traced_passes;
  std::vector<Metric> metrics;
  if (!trace) {
    const std::size_t min_passes =
        std::max(kMinPasses,
                 (kMinPointTimings + points.size() - 1) / points.size());
    const perf::Clock::time_point t0 = perf::Clock::now();
    while (untraced_passes.size() < min_passes ||
           perf::ns_since(t0) + untraced_passes.back().total_ns <= budget_ns) {
      untraced_passes.push_back(run_pass(points, plain, checker));
    }
    metrics = end_to_end(untraced_passes);
  } else {
    Probes probes;
    probes.event_ns = perf::event_ns();
    probes.pass_us = perf::sched_pass_us();
    probes.solve_us = perf::solve_us(points.front().make_workload());
    const perf::Clock::time_point t0 = perf::Clock::now();
    while (traced_passes.size() < kMinTracedPasses ||
           perf::ns_since(t0) + untraced_passes.back().total_ns +
                   traced_passes.back().total_ns <=
               budget_ns) {
      untraced_passes.push_back(run_pass(points, plain, checker));
      traced_passes.push_back(run_pass(points, traced, checker));
    }
    metrics = per_layer(untraced_passes, traced_passes, probes);
  }
  for (const std::string& error : checker.errors()) {
    std::cerr << "pmx_perf: FAIL " << error << "\n";
  }
  print_result(workload, seed, trace,
               trace ? traced_passes.size() : untraced_passes.size(), checker,
               metrics);
  return 0;
}
