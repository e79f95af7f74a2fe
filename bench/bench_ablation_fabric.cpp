// Ablation A4: crossbar vs Omega multistage vs oversubscribed fat tree.
//
// Section 4 notes the fabric can be a multistage network at the price of
// "limited permutation capabilities", or a fat tree with fewer spines than
// leaf ports. This harness quantifies that price: the multiplexing degree
// each fabric needs to realize a working set without conflict, and the
// end-to-end preloaded-TDM efficiency when the compiled plan respects the
// Omega or fat-tree constraints (same slot count K).
//
// Usage: bench_ablation_fabric [--nodes N] [--bytes B] [--jobs J]

#include <iostream>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "compiled/plan.hpp"
#include "core/driver.hpp"
#include "core/metrics.hpp"
#include "core/sweep.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"
#include "harness.hpp"
#include "sim/simulator.hpp"
#include "switching/preload_tdm.hpp"
#include "traffic/patterns.hpp"

namespace {

/// Runs `w` on a preload TDM network holding `plan`. Only `completed` and
/// `metrics` are filled in.
pmx::RunResult run_preload(const pmx::Workload& w, pmx::CompiledPlan plan,
                           std::size_t nodes) {
  pmx::SystemParams params;
  params.num_nodes = nodes;
  pmx::Simulator sim;
  pmx::PreloadTdmNetwork net(sim, params, std::move(plan));
  pmx::TrafficDriver driver(sim, net, w);
  driver.start();
  sim.run_until(pmx::TimeNs{50'000'000});
  pmx::RunResult result;
  result.completed = driver.finished();
  if (result.completed) {
    result.metrics = pmx::compute_metrics(w, net);
  }
  return result;
}

/// One (workload, fabric) point: plan degree + end-to-end run.
struct FabricPoint {
  std::size_t degree = 0;
  pmx::RunResult run;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 64;
  std::uint64_t bytes = 256;
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  nodes = cfg.get_uint("nodes", nodes);
  bytes = cfg.get_uint("bytes", bytes);
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_fabric");
  const pmx::OmegaNetwork omega(nodes);
  // Fat tree: 8 leaves, 2:1 oversubscription.
  const std::size_t leaves = 8;
  const pmx::FatTree tree(leaves, nodes / leaves, nodes / leaves / 2);

  const std::vector<pmx::bench::NamedWorkload> workloads{
      {"ordered-mesh", pmx::patterns::ordered_mesh(nodes, bytes, 2)},
      {"random-mesh", pmx::patterns::random_mesh(nodes, bytes, 2, 7)},
      {"uniform", pmx::patterns::uniform_random(nodes, bytes, 6, 7)},
      {"all-to-all", pmx::patterns::all_to_all(nodes, bytes)},
  };

  // Flatten (workload, fabric) — plan compilation dominates some points, so
  // each point compiles its own plan inside the sweep body.
  constexpr std::size_t kFabrics = 3;  // xbar, omega, fattree
  const std::vector<FabricPoint> points = pmx::sweep_map<FabricPoint>(
      workloads.size() * kFabrics,
      [&](std::size_t i) {
        const pmx::Workload& w = workloads[i / kFabrics].workload;
        pmx::CompiledPlan plan = [&] {
          switch (i % kFabrics) {
            case 0:
              return pmx::compile_workload(w);
            case 1:
              return pmx::compile_workload_omega(w, omega);
            default:
              return pmx::compile_workload_fattree(w, tree);
          }
        }();
        FabricPoint point;
        point.degree = plan.max_degree();
        point.run = run_preload(w, std::move(plan), nodes);
        return point;
      },
      sweep);

  std::cout << "Ablation A4: crossbar vs Omega multistage fabric (" << nodes
            << " nodes, " << omega.stages() << " stages, " << bytes
            << "-byte messages, preload TDM K=4)\n\n";
  pmx::Table table({"workload", "xbar deg", "omega deg", "fattree deg",
                    "xbar eff", "omega eff", "fattree eff"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const FabricPoint& xbar = points[w * kFabrics + 0];
    const FabricPoint& om = points[w * kFabrics + 1];
    const FabricPoint& ft = points[w * kFabrics + 2];
    table.add_row(
        {workloads[w].name,
         pmx::Table::fmt(static_cast<std::uint64_t>(xbar.degree)),
         pmx::Table::fmt(static_cast<std::uint64_t>(om.degree)),
         pmx::Table::fmt(static_cast<std::uint64_t>(ft.degree)),
         pmx::bench::efficiency_cell(xbar.run),
         pmx::bench::efficiency_cell(om.run),
         pmx::bench::efficiency_cell(ft.run)});
  }
  table.print(std::cout);
  std::cout << "\ndegree = configurations needed to realize the working set "
               "without conflict\n(Omega pays for blocking stages; the "
               "2:1-oversubscribed fat tree pays on inter-leaf traffic)\n";
  return 0;
}
