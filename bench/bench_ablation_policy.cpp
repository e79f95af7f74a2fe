// Ablation A8: the programmable policy axis. Every rank-function policy the
// PolicyEngine supports -- the paper's timeout/counter predictors, the new
// capacity policies (LRU, LFU-with-decay, weighted hybrid), the
// deadline-aware lease, and the phase-predictive self-flusher -- on four
// workloads with different reuse structure: a random mesh (high locality),
// a scatter (no reuse), a hotspot-skewed mix (one hot destination), and
// the paper's two-phase test (an all-to-all, a barrier, then a random
// mesh: the working set changes mid-run).
//
// Ablation A3, the paper's eviction predictors (Section 3.2) at several
// horizons, is a slice of this axis; its table is the policy list
//   none,timeout:100,timeout:200,timeout:800,phase:200,counter:64,
//   counter:512,never-evict
// passed to --policies (one comma-separated argument).
//
// Usage: bench_ablation_policy [--nodes N] [--bytes B]
//        [--policies a,b:1,c] [--csv] [--jobs J]
// --policies is a CSV of PolicySpec tokens (NAME[:PARAM]); the defaults
// cover every known policy. Tables are byte-identical for any --jobs.

#include <iostream>
#include <string>
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
  const std::uint64_t bytes = cfg.get_uint("bytes", 256);
  const bool csv = cfg.get_bool("csv", false);
  const std::vector<std::string> tokens = cfg.get_csv(
      "policies",
      {"none", "timeout:200", "counter:64", "lru:12", "lfu-decay:12",
       "deadline:1000", "phase:200", "hybrid:12", "never-evict"});
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_policy");

  std::vector<pmx::PolicySpec> policies;
  for (const std::string& token : tokens) {
    policies.push_back(pmx::PolicySpec::parse(token));
  }

  const std::vector<pmx::bench::NamedWorkload> workloads{
      {"random-mesh", pmx::patterns::random_mesh(nodes, bytes, 2, 7)},
      {"scatter", pmx::patterns::scatter(nodes, bytes)},
      {"hotspot-skewed",
       pmx::patterns::hotspot(nodes, bytes, 8, 0, 0.35, 11)},
      {"two-phase", pmx::patterns::two_phase(nodes, bytes, 7)},
  };

  const std::size_t per_policy = workloads.size();
  const std::vector<pmx::RunResult> results = pmx::run_sweep(
      policies.size() * per_policy,
      [&](std::size_t i) {
        pmx::RunConfig config;
        config.params.num_nodes = nodes;
        config.kind = pmx::SwitchKind::kDynamicTdm;
        config.policy = policies[i / per_policy];
        config.multi_slot_connections = true;
        return pmx::run_workload(config,
                                 workloads[i % per_policy].workload);
      },
      sweep);

  std::cout << "Ablation A8: rank-function policy engine (" << nodes
            << " nodes, " << bytes
            << "-byte messages, dynamic TDM K=4)\n\n";

  const auto print_metric = [&](const std::string& title, auto cell) {
    std::vector<std::string> headers{"policy"};
    for (const auto& [name, workload] : workloads) {
      headers.push_back(name);
    }
    pmx::Table table(std::move(headers));
    for (std::size_t p = 0; p < policies.size(); ++p) {
      std::vector<std::string> row{policies[p].label()};
      for (std::size_t w = 0; w < workloads.size(); ++w) {
        row.push_back(cell(results[p * per_policy + w]));
      }
      table.add_row(std::move(row));
    }
    std::cout << "== " << title << " ==\n";
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    std::cout << "\n";
  };

  print_metric("efficiency", pmx::bench::efficiency_cell);
  print_metric("evictions", [](const pmx::RunResult& r) {
    return pmx::Table::fmt(r.counter("evictions"));
  });
  return 0;
}
