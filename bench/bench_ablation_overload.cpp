// Ablation A9: overload robustness campaign. Open-loop arrival traffic
// (no barriers, no drain feedback) offers 0.5x to 2.0x of per-port line
// rate to all four paradigms with bounded VOQs and admission control
// armed. Two campaigns:
//
//   load sweep   -- offered load x {uniform, skewed, bursty} arrivals under
//                   a fixed shed policy: accepted load tracks offered load
//                   up to saturation then plateaus; queue depth stays
//                   bounded by the capacity; every run completes with
//                   injected == delivered + shed (auditor-checked).
//   policy sweep -- 2.0x skewed overload across every shed policy
//                   (tail-drop, drop-newest, drop-oldest, deadline,
//                   backpressure): who sheds what, and what backpressure
//                   costs in processor stall time instead.
//
// Everything is seeded: running this binary twice prints identical tables,
// at any --jobs value.
//
// Usage: bench_ablation_overload [--nodes N] [--bytes B] [--duration NS]
//                                [--capacity BYTES] [--seed S] [--jobs J]

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"
#include "nic/admission.hpp"
#include "traffic/arrival.hpp"

namespace {

constexpr std::size_t kNumKinds = pmx::kSwitchKinds.size();

struct Scenario {
  std::string label;
  pmx::ArrivalParams arrival;
  pmx::ShedPolicy policy = pmx::ShedPolicy::kDropOldest;
};

void print_table(const std::string& title,
                 const std::vector<pmx::RunResult>& results,
                 std::size_t scenario_idx) {
  pmx::Table table({"paradigm", "done", "offered", "accepted", "shed msgs",
                    "bp stall ns", "depth p99", "depth max", "recover ns",
                    "tput B/ns"});
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const pmx::RunResult& r = results[scenario_idx * kNumKinds + k];
    const pmx::RunMetrics& m = r.metrics;
    table.add_row({pmx::to_string(pmx::kSwitchKinds[k]),
                   r.completed ? "yes" : "DNF",
                   pmx::Table::fmt(m.offered_load, 3),
                   pmx::Table::fmt(m.accepted_load, 3),
                   pmx::Table::fmt(static_cast<std::uint64_t>(m.shed_messages)),
                   pmx::Table::fmt(m.backpressure_stall_ns),
                   pmx::Table::fmt(m.queue_depth_p99, 0),
                   pmx::Table::fmt(m.queue_depth_max),
                   pmx::Table::fmt(m.recovery_after_burst_ns, 0),
                   pmx::Table::fmt(m.throughput, 4)});
  }
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  const std::size_t nodes = cfg.get_uint("nodes", 16);
  const std::uint64_t bytes = cfg.get_uint("bytes", 512);
  const std::int64_t duration =
      static_cast<std::int64_t>(cfg.get_uint("duration", 50'000));
  const std::uint64_t capacity = cfg.get_uint("capacity", 4096);
  const std::uint64_t seed = cfg.get_uint("seed", 0x0E71'0ADEull);
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_overload");

  const double rate = pmx::SystemParams{}.link.bytes_per_ns();

  // Campaign 1: offered-load sweep x traffic shape, fixed drop-oldest.
  const std::vector<double> loads{0.5, 1.0, 1.5, 2.0};
  std::vector<Scenario> scenarios;
  for (const double load : loads) {
    for (const char* shape : {"uniform", "skewed", "bursty"}) {
      Scenario s;
      s.label = shape + std::string(" x") + pmx::Table::fmt(load, 1);
      s.arrival.offered_load = load;
      s.arrival.mean_msg_bytes = bytes;
      s.arrival.duration = pmx::TimeNs{duration};
      s.arrival.seed = seed;
      if (shape == std::string("skewed")) {
        s.arrival.rate_skew = 0.8;
        s.arrival.dest_skew = 0.5;
      } else if (shape == std::string("bursty")) {
        s.arrival.process = pmx::ArrivalParams::Process::kOnOff;
      }
      scenarios.push_back(std::move(s));
    }
  }
  const std::size_t load_scenarios = scenarios.size();

  // Campaign 2: every shed policy at 2.0x skewed overload.
  for (const pmx::ShedPolicy policy :
       {pmx::ShedPolicy::kTailDrop, pmx::ShedPolicy::kDropNewest,
        pmx::ShedPolicy::kDropOldest, pmx::ShedPolicy::kDeadline,
        pmx::ShedPolicy::kBackpressure}) {
    Scenario s;
    s.label = "policy " + pmx::to_string(policy);
    s.arrival.offered_load = 2.0;
    s.arrival.rate_skew = 0.8;
    s.arrival.dest_skew = 0.5;
    s.arrival.mean_msg_bytes = bytes;
    s.arrival.duration = pmx::TimeNs{duration};
    s.arrival.seed = seed;
    s.policy = policy;
    scenarios.push_back(std::move(s));
  }

  // Workloads are a pure function of the arrival params: generate each once
  // so every paradigm sees byte-identical programs.
  std::vector<pmx::Workload> workloads;
  workloads.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    workloads.push_back(pmx::open_loop(nodes, s.arrival, rate));
  }

  std::cout << "Ablation A9: overload robustness campaign (" << nodes
            << " nodes, " << bytes << "-byte messages, " << duration
            << " ns injection window, " << capacity
            << "-byte source queues, seed " << seed << ")\n";

  const std::vector<pmx::RunResult> results = pmx::run_sweep(
      scenarios.size() * kNumKinds,
      [&](std::size_t i) {
        pmx::RunConfig config =
            pmx::bench::ledger_config(pmx::kSwitchKinds[i % kNumKinds], nodes);
        config.params.admission.capacity_bytes = capacity;
        config.params.admission.policy = scenarios[i / kNumKinds].policy;
        // Dynamic TDM arms the starvation watchdog: under skewed overload a
        // cold source must not be crowded out of the schedule forever.
        config.starvation_slots = 8;
        return pmx::run_workload(config, workloads[i / kNumKinds]);
      },
      sweep);

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const char* campaign = s < load_scenarios ? "load sweep, " : "2.0x skewed, ";
    print_table(campaign + scenarios[s].label, results, s);
  }
  return 0;
}
