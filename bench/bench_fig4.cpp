// Figure 4 reproduction: bandwidth efficiency vs message size (8..2048 B)
// for the four test patterns (Scatter, Random Mesh, Ordered Mesh, Two Phase)
// under Wormhole, Circuit, Dynamic TDM (K=4, timeout predictor) and Preload
// TDM (K=4).
//
// Usage: bench_fig4 [--nodes N] [--csv] [--timeout NS] [--multislot|
//        --no-multislot] [--policy NAME[:PARAM]] [--counter-predictor]
//        [--no-predictor] [--jobs J] [--seed S]
// Unknown options abort with exit status 2.
// --policy selects any PolicySpec policy (timeout, counter, lru, lfu-decay,
// deadline, phase, hybrid, none, never-evict); the legacy
// --counter-predictor/--no-predictor flags are shorthands.
//
// Every (pattern, size, paradigm) point is an independent simulation, so
// the sweep fans out across --jobs threads; results are assembled in index
// order and the printed tables are byte-identical for any J.

#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"
#include "traffic/patterns.hpp"

namespace {

using pmx::kSwitchKinds;
using pmx::RunConfig;
using pmx::SwitchKind;
using pmx::Workload;

struct Pattern {
  std::string name;
  Workload (*make)(std::size_t nodes, std::uint64_t bytes);
};

// Workload seed; overridable with --seed so sweeps over seeds stay fully
// Config-driven (rng audit: no hardcoded engine seeds outside Config).
std::uint64_t g_seed = 7;

Workload make_scatter(std::size_t nodes, std::uint64_t bytes) {
  return pmx::patterns::scatter(nodes, bytes);
}
Workload make_random_mesh(std::size_t nodes, std::uint64_t bytes) {
  return pmx::patterns::random_mesh(nodes, bytes, /*rounds=*/2, g_seed);
}
Workload make_ordered_mesh(std::size_t nodes, std::uint64_t bytes) {
  return pmx::patterns::ordered_mesh(nodes, bytes, /*rounds=*/2);
}
Workload make_two_phase(std::size_t nodes, std::uint64_t bytes) {
  return pmx::patterns::two_phase(nodes, bytes, g_seed);
}

bool g_multi_slot = true;
pmx::PolicySpec g_policy{};

RunConfig config_for(SwitchKind kind, std::size_t nodes) {
  RunConfig config;
  config.params.num_nodes = nodes;
  config.params.mux_degree = 4;  // Figure 4: multiplexing degree of four
  config.kind = kind;
  config.policy = g_policy;
  config.multi_slot_connections = g_multi_slot;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  const std::size_t nodes = cfg.get_uint("nodes", 128);
  const bool csv = cfg.get_bool("csv", false);
  g_seed = cfg.get_uint("seed", g_seed);
  g_multi_slot = cfg.get_bool("multislot", g_multi_slot) &&
                 !cfg.get_bool("no-multislot", false);
  std::string policy = cfg.get_string("policy", "timeout");
  if (cfg.get_bool("counter-predictor", false)) {
    policy = "counter";
  }
  if (cfg.get_bool("no-predictor", false)) {
    policy = "none";
  }
  g_policy = pmx::PolicySpec::parse(policy);
  g_policy.timeout_ns = cfg.get_int("timeout", g_policy.timeout_ns);
  g_policy.validate();
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_fig4");

  const std::vector<Pattern> patterns{
      {"scatter", make_scatter},
      {"random-mesh", make_random_mesh},
      {"ordered-mesh", make_ordered_mesh},
      {"two-phase", make_two_phase},
  };
  const std::vector<std::uint64_t> sizes{8, 16, 32, 64, 128, 256, 512, 1024,
                                         2048};

  // Flatten the (pattern, size, kind) cube into independent sweep points;
  // every point rebuilds its workload from the index, so it is a pure
  // function of i and the tables below come out identical for any --jobs.
  const std::size_t per_pattern = sizes.size() * kSwitchKinds.size();
  const std::vector<pmx::RunResult> results = pmx::run_sweep(
      patterns.size() * per_pattern,
      [&](std::size_t i) {
        const Pattern& pattern = patterns[i / per_pattern];
        const std::uint64_t bytes =
            sizes[(i % per_pattern) / kSwitchKinds.size()];
        const SwitchKind kind = kSwitchKinds[i % kSwitchKinds.size()];
        return pmx::run_workload(config_for(kind, nodes),
                                 pattern.make(nodes, bytes));
      },
      sweep);

  std::cout << "Figure 4: bandwidth efficiency vs message size (" << nodes
            << " nodes, K=4)\n";
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    std::vector<std::string> headers{"bytes"};
    for (const auto kind : kSwitchKinds) {
      headers.push_back(pmx::to_string(kind));
    }
    pmx::Table table(std::move(headers));
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<std::string> row{pmx::Table::fmt(sizes[s])};
      for (std::size_t k = 0; k < kSwitchKinds.size(); ++k) {
        row.push_back(pmx::bench::efficiency_cell(
            results[p * per_pattern + s * kSwitchKinds.size() + k]));
      }
      table.add_row(std::move(row));
    }
    std::cout << "\n== " << patterns[p].name << " ==\n";
    if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }
  return 0;
}
