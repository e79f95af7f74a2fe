// Ablation A6: fault tolerance. How gracefully does each switching paradigm
// degrade when the fabric misbehaves? Three scenarios over the same random
// nearest-neighbour workload:
//
//   clean      -- fault layer force-enabled but every rate zero (measures the
//                 overhead of the reliability machinery itself: none).
//   bit errors -- transient corruption at increasing BER; goodput stays at
//                 100% delivery while wire throughput absorbs the retransmit
//                 tax.
//   hard fault -- links die on an exponential MTBF timeline and are repaired;
//                 the scheduler masks dead ports and connections re-establish
//                 after repair.
//
// Everything is seeded: running this binary twice prints identical tables.
//
// Usage: bench_ablation_faults [--nodes N] [--bytes B] [--rounds R]
//                              [--seed S] [--mtbf NS] [--repair NS]
//                              [--jobs J]

#include <cstdint>
#include <iostream>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"
#include "traffic/patterns.hpp"

int main(int argc, char** argv) {
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  const std::size_t nodes = cfg.get_uint("nodes", 64);
  const std::uint64_t bytes = cfg.get_uint("bytes", 512);
  const std::size_t rounds = cfg.get_uint("rounds", 2);
  const std::uint32_t seed =
      static_cast<std::uint32_t>(cfg.get_uint("seed", 0x5EEDF417u));
  // Per-link MTBF comparable to the run's makespan (tens of microseconds),
  // so the hard-fault scenario actually exercises repairs; real hardware
  // rates would never fire inside one benchmark run.
  const pmx::TimeNs mtbf{static_cast<std::int64_t>(
      cfg.get_uint("mtbf", 100'000))};
  const pmx::TimeNs repair{static_cast<std::int64_t>(
      cfg.get_uint("repair", 20'000))};
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_faults");

  const pmx::Workload workload =
      pmx::patterns::random_mesh(nodes, bytes, rounds, 7);
  const std::size_t messages = workload.num_messages();

  std::cout << "Ablation A6: graceful degradation under faults (" << nodes
            << " nodes, " << bytes << "-byte messages, " << messages
            << " messages, seed " << seed << ")\n";

  // Five fault scenarios (clean, three BERs, hard faults), four paradigms
  // each. Flattened to (scenario, kind) for the sweep; scenarios stay in
  // print order.
  const std::vector<double> bers{1e-5, 1e-4, 5e-4};
  std::vector<pmx::FaultParams> scenarios;
  {
    pmx::FaultParams clean;
    clean.seed = seed;
    clean.force_enable = true;
    scenarios.push_back(clean);
    for (const double ber : bers) {
      pmx::FaultParams fault;
      fault.seed = seed;
      fault.ber = ber;
      scenarios.push_back(fault);
    }
    pmx::FaultParams hard;
    hard.seed = seed;
    hard.link_mtbf = mtbf;
    hard.link_repair = repair;
    hard.max_link_faults = 16;
    scenarios.push_back(hard);
  }
  constexpr std::size_t kNumKinds = pmx::kSwitchKinds.size();
  const std::vector<pmx::RunResult> results = pmx::run_sweep(
      scenarios.size() * kNumKinds,
      [&](std::size_t i) {
        pmx::RunConfig config;
        config.params.num_nodes = nodes;
        config.params.fault = scenarios[i / kNumKinds];
        config.kind = pmx::kSwitchKinds[i % kNumKinds];
        config.horizon = pmx::TimeNs{1'000'000'000};  // 1 s: plenty for repairs
        return pmx::run_workload(config, workload);
      },
      sweep);
  const auto scenario_result = [&](std::size_t s,
                                   std::size_t k) -> const pmx::RunResult& {
    return results[s * kNumKinds + k];
  };

  // --- Scenario 1: reliability layer on, nothing ever fails ---------------
  {
    pmx::Table table({"paradigm", "delivered", "goodput B/ns", "wire B/ns",
                      "retransmits"});
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const pmx::RunResult& r = scenario_result(0, k);
      table.add_row({pmx::to_string(pmx::kSwitchKinds[k]),
                     pmx::bench::delivery_cell(r, messages),
                     pmx::Table::fmt(r.metrics.goodput, 4),
                     pmx::Table::fmt(r.metrics.wire_throughput, 4),
                     pmx::Table::fmt(r.metrics.retransmits)});
    }
    std::cout << "\n== clean (fault layer armed, zero rates) ==\n";
    table.print(std::cout);
  }

  // --- Scenario 2: transient bit errors, increasing BER -------------------
  for (std::size_t b = 0; b < bers.size(); ++b) {
    pmx::Table table({"paradigm", "delivered", "goodput B/ns", "wire B/ns",
                      "retransmits", "corrupt", "dup"});
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const pmx::RunResult& r = scenario_result(1 + b, k);
      table.add_row({pmx::to_string(pmx::kSwitchKinds[k]),
                     pmx::bench::delivery_cell(r, messages),
                     pmx::Table::fmt(r.metrics.goodput, 4),
                     pmx::Table::fmt(r.metrics.wire_throughput, 4),
                     pmx::Table::fmt(r.metrics.retransmits),
                     pmx::Table::fmt(r.metrics.crc_corruptions),
                     pmx::Table::fmt(r.metrics.duplicates)});
    }
    std::cout << "\n== bit errors, BER " << bers[b] << " ==\n";
    table.print(std::cout);
  }

  // --- Scenario 3: hard link faults with repair ---------------------------
  {
    pmx::Table table({"paradigm", "delivered", "faults", "forced rel",
                      "recover mean ns", "recover max ns"});
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const pmx::RunResult& r = scenario_result(1 + bers.size(), k);
      table.add_row(
          {pmx::to_string(pmx::kSwitchKinds[k]),
           pmx::bench::delivery_cell(r, messages),
           pmx::Table::fmt(static_cast<std::uint64_t>(r.metrics.link_faults)),
           pmx::Table::fmt(
               static_cast<std::uint64_t>(r.metrics.forced_releases)),
           pmx::Table::fmt(r.metrics.recovery_mean_ns, 0),
           pmx::Table::fmt(r.metrics.recovery_max_ns, 0)});
    }
    std::cout << "\n== hard link faults (MTBF " << mtbf.ns() << " ns, repair "
              << repair.ns() << " ns) ==\n";
    table.print(std::cout);
  }
  return 0;
}
