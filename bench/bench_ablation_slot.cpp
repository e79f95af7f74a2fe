// Ablation A2: slot length and guard band. The guard band (fabric
// reconfiguration + grant-line skew, Section 4) is a fixed tax per slot:
// longer slots amortize it but coarsen the multiplexing granularity.
//
// Usage: bench_ablation_slot [--nodes N] [--bytes B] [--jobs J]

#include <iostream>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"
#include "traffic/patterns.hpp"

int main(int argc, char** argv) {
  std::size_t nodes = 64;
  std::uint64_t bytes = 512;
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  nodes = cfg.get_uint("nodes", nodes);
  bytes = cfg.get_uint("bytes", bytes);
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_slot");
  const pmx::Workload workload =
      pmx::patterns::random_mesh(nodes, bytes, 2, 7);

  std::cout << "Ablation A2: efficiency vs slot length and guard band ("
            << nodes << " nodes, random mesh, " << bytes
            << "-byte messages, dynamic TDM K=4)\n\n";
  std::vector<std::pair<std::int64_t, std::int64_t>> timings;
  for (const std::int64_t slot : {50, 100, 200, 400, 1000}) {
    for (const std::int64_t guard : {0L, slot / 10, slot / 5, slot * 2 / 5}) {
      timings.emplace_back(slot, guard);
    }
  }
  const auto timing_config = [&](std::size_t i) {
    pmx::RunConfig config;
    config.params.num_nodes = nodes;
    config.params.slot_length = pmx::TimeNs{timings[i].first};
    config.params.guard_band = pmx::TimeNs{timings[i].second};
    config.kind = pmx::SwitchKind::kDynamicTdm;
    config.multi_slot_connections = true;
    return config;
  };
  const std::vector<pmx::RunResult> timing_results = pmx::run_sweep(
      timings.size(),
      [&](std::size_t i) {
        return pmx::run_workload(timing_config(i), workload);
      },
      sweep);

  pmx::Table table({"slot(ns)", "guard(ns)", "payload(B)", "efficiency"});
  for (std::size_t i = 0; i < timings.size(); ++i) {
    table.add_row(
        {pmx::Table::fmt(timings[i].first), pmx::Table::fmt(timings[i].second),
         pmx::Table::fmt(timing_config(i).params.slot_payload_bytes()),
         pmx::bench::efficiency_cell(timing_results[i])});
  }
  table.print(std::cout);

  // Second sweep: end-to-end flow control. How fast must the receiving
  // processor drain its input buffer before backpressure stops mattering?
  std::cout << "\nEnd-to-end flow control: receive buffer & drain rate "
               "(same workload)\n\n";
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flows;
  for (const std::uint64_t buffer : {128ULL, 256ULL, 1024ULL}) {
    for (const std::uint64_t drain : {16ULL, 32ULL, 64ULL}) {
      flows.emplace_back(buffer, drain);
    }
  }
  const std::vector<pmx::RunResult> flow_results = pmx::run_sweep(
      flows.size(),
      [&](std::size_t i) {
        pmx::RunConfig config;
        config.params.num_nodes = nodes;
        config.kind = pmx::SwitchKind::kDynamicTdm;
        config.multi_slot_connections = true;
        config.receiver_buffer_bytes = flows[i].first;
        config.receiver_drain_per_slot = flows[i].second;
        return pmx::run_workload(config, workload);
      },
      sweep);

  pmx::Table flow({"buffer(B)", "drain(B/slot)", "efficiency",
                   "backpressure stalls"});
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const pmx::RunResult& result = flow_results[i];
    flow.add_row(
        {pmx::Table::fmt(flows[i].first), pmx::Table::fmt(flows[i].second),
         pmx::bench::efficiency_cell(result),
         pmx::Table::fmt(result.counter("backpressure_stalls"))});
  }
  flow.print(std::cout);
  return 0;
}
