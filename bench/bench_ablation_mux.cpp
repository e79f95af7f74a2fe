// Ablation A1: multiplexing degree sweep. How does the number of TDM slots
// K affect dynamic and preloaded switching on the mesh and all-to-all
// patterns? (Section 2's tradeoff: K must cover the working set, but every
// extra populated slot dilutes per-connection bandwidth.)
//
// Usage: bench_ablation_mux [--nodes N] [--bytes B] [--jobs J]

#include <iostream>
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
  cfg.fail_unread("bench_ablation_mux");

  const std::vector<pmx::bench::NamedWorkload> workloads{
      {"random-mesh", pmx::patterns::random_mesh(nodes, bytes, 2, 7)},
      {"all-to-all", pmx::patterns::all_to_all(nodes, bytes)},
      {"uniform", pmx::patterns::uniform_random(nodes, bytes, 8, 7)},
  };
  const std::vector<std::size_t> degrees{1, 2, 4, 8, 16};
  const std::vector<pmx::SwitchKind> kinds{pmx::SwitchKind::kDynamicTdm,
                                           pmx::SwitchKind::kPreloadTdm};

  const std::size_t per_workload = degrees.size() * kinds.size();
  const std::vector<pmx::RunResult> results = pmx::run_sweep(
      workloads.size() * per_workload,
      [&](std::size_t i) {
        pmx::RunConfig config;
        config.params.num_nodes = nodes;
        config.params.mux_degree =
            degrees[(i % per_workload) / kinds.size()];
        config.kind = kinds[i % kinds.size()];
        config.multi_slot_connections = true;
        return pmx::run_workload(config,
                                 workloads[i / per_workload].workload);
      },
      sweep);

  std::cout << "Ablation A1: efficiency vs multiplexing degree K (" << nodes
            << " nodes, " << bytes << "-byte messages)\n";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    pmx::Table table({"K", "dynamic-tdm", "preload-tdm"});
    for (std::size_t d = 0; d < degrees.size(); ++d) {
      std::vector<std::string> row{pmx::Table::fmt(
          static_cast<std::uint64_t>(degrees[d]))};
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        row.push_back(pmx::bench::efficiency_cell(
            results[w * per_workload + d * kinds.size() + k]));
      }
      table.add_row(std::move(row));
    }
    std::cout << "\n== " << workloads[w].name << " ==\n";
    table.print(std::cout);
  }
  return 0;
}
