// Explore fabric constraints: how expensive is a working set to realize on
// a crossbar vs an Omega multistage network, and what does that do to
// preloaded-TDM performance?
//
// Accepts key=value arguments (see common/config.hpp):
//
//   ./build/examples/fabric_explorer nodes=64 pattern=uniform count=8
//       bytes=256 seed=7
//
// pattern: mesh | uniform | alltoall | scatter | transpose
//
// nodes must be a power of two (the Omega network); leaves must divide it.
// A bad value is rejected with one line on stderr and exit status 2 before
// anything is built or printed.

#include <algorithm>
#include <array>
#include <bit>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "compiled/plan.hpp"
#include "core/driver.hpp"
#include "core/metrics.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"
#include "sim/simulator.hpp"
#include "switching/preload_tdm.hpp"
#include "traffic/patterns.hpp"

namespace {

constexpr std::array<const char*, 5> kPatterns = {
    "mesh", "uniform", "alltoall", "scatter", "transpose"};

/// Why these options cannot run, or an empty string when they can.
std::string reject_reason(std::size_t nodes, std::uint64_t bytes,
                          const std::string& pattern, std::size_t leaves,
                          std::size_t spines) {
  if (nodes < 2 || !std::has_single_bit(nodes)) {
    return "nodes must be a power of two >= 2 (Omega network)";
  }
  if (bytes == 0) {
    return "bytes must be positive";
  }
  if (leaves == 0 || nodes % leaves != 0) {
    return "leaves must be positive and divide nodes";
  }
  if (spines == 0) {
    return "spines must be positive";
  }
  if (std::ranges::find(kPatterns, pattern) == kPatterns.end()) {
    return "unknown pattern '" + pattern +
           "' (mesh, uniform, alltoall, scatter, transpose)";
  }
  if (pattern == "mesh" && nodes < 4) {
    return "pattern=mesh needs nodes >= 4";
  }
  // A power of two is a square exactly when its exponent is even.
  if (pattern == "transpose" && std::countr_zero(nodes) % 2 != 0) {
    return "pattern=transpose needs a square node count (a power of four)";
  }
  return {};
}

pmx::Workload make_pattern(const std::string& name, std::size_t nodes,
                           std::uint64_t bytes, std::size_t count,
                           std::uint64_t seed) {
  if (name == "mesh") {
    return pmx::patterns::random_mesh(nodes, bytes, count, seed);
  }
  if (name == "alltoall") {
    return pmx::patterns::all_to_all(nodes, bytes);
  }
  if (name == "scatter") {
    return pmx::patterns::scatter(nodes, bytes);
  }
  if (name == "transpose") {
    return pmx::patterns::transpose(nodes, bytes, count);
  }
  return pmx::patterns::uniform_random(nodes, bytes, count, seed);
}

double run_preload(const pmx::Workload& w, pmx::CompiledPlan plan,
                   std::size_t nodes) {
  pmx::SystemParams params;
  params.num_nodes = nodes;
  pmx::Simulator sim;
  pmx::PreloadTdmNetwork net(sim, params, std::move(plan));
  pmx::TrafficDriver driver(sim, net, w);
  driver.start();
  sim.run_until(pmx::TimeNs{50'000'000});
  return driver.finished() ? pmx::compute_metrics(w, net).efficiency : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t nodes = 0;
  std::uint64_t bytes = 0;
  std::size_t count = 0;
  std::uint64_t seed = 0;
  std::string pattern;
  std::size_t leaves = 0;
  std::size_t spines = 0;
  try {
    const pmx::Config config = pmx::Config::from_args(args);
    nodes = config.get_uint("nodes", 64);
    bytes = config.get_uint("bytes", 256);
    count = config.get_uint("count", 8);
    seed = config.get_uint("seed", 7);
    pattern = config.get_string("pattern", "uniform");
    leaves = config.get_uint("leaves", nodes >= 32 ? 8 : 2);
    spines = config.get_uint(
        "spines",
        leaves == 0 ? 1 : std::max<std::size_t>(1, nodes / leaves / 2));
    config.fail_unread("fabric_explorer");
  } catch (const std::exception& e) {
    std::cerr << "fabric_explorer: " << e.what() << "\n";
    return 2;
  }
  if (const std::string reason =
          reject_reason(nodes, bytes, pattern, leaves, spines);
      !reason.empty()) {
    std::cerr << "fabric_explorer: " << reason << "\n";
    return 2;
  }

  const pmx::Workload w = make_pattern(pattern, nodes, bytes, count, seed);
  const pmx::OmegaNetwork omega(nodes);

  std::cout << "fabric explorer: pattern=" << pattern << " nodes=" << nodes
            << " (" << omega.stages() << "-stage Omega), "
            << w.num_messages() << " messages of " << bytes << " B\n\n";

  const pmx::FatTree tree(leaves, nodes / leaves, spines);

  pmx::CompiledPlan xbar = pmx::compile_workload(w);
  pmx::CompiledPlan greedy = pmx::compile_workload(w, /*optimal=*/false);
  pmx::CompiledPlan mesh = pmx::compile_workload_omega(w, omega);
  pmx::CompiledPlan ft = pmx::compile_workload_fattree(w, tree);

  pmx::Table table({"fabric/decomposition", "mux degree", "preload-tdm eff"});
  const std::size_t xd = xbar.max_degree();
  const std::size_t gd = greedy.max_degree();
  const std::size_t od = mesh.max_degree();
  const double xe = run_preload(w, std::move(xbar), nodes);
  const double ge = run_preload(w, std::move(greedy), nodes);
  const double oe = run_preload(w, std::move(mesh), nodes);
  const auto cell = [](double e) {
    return e < 0 ? std::string("DNF") : pmx::Table::fmt(e, 3);
  };
  table.add_row({"crossbar / Konig-optimal",
                 pmx::Table::fmt(static_cast<std::uint64_t>(xd)), cell(xe)});
  table.add_row({"crossbar / greedy first-fit",
                 pmx::Table::fmt(static_cast<std::uint64_t>(gd)), cell(ge)});
  table.add_row({"Omega multistage",
                 pmx::Table::fmt(static_cast<std::uint64_t>(od)), cell(oe)});
  const std::size_t fd = ft.max_degree();
  const double fe = run_preload(w, std::move(ft), nodes);
  table.add_row({"fat tree (" + std::to_string(leaves) + " leaves, " +
                     std::to_string(spines) + " spines)",
                 pmx::Table::fmt(static_cast<std::uint64_t>(fd)), cell(fe)});
  table.print(std::cout);
  std::cout << "\nmux degree = configurations needed to realize the working "
               "set without conflict\n";
  return 0;
}
