// Quickstart: simulate one workload under all four switching paradigms and
// compare bandwidth efficiency -- the experiment style of the paper's
// Figure 4, at a glance.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [nodes] [bytes]

#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "traffic/patterns.hpp"

int main(int argc, char** argv) {
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 32;
  const std::uint64_t bytes =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 256;

  // A nearest-neighbour workload: every node sends to its four torus
  // neighbours twice, in random order (no predictability).
  const pmx::Workload workload = pmx::patterns::random_mesh(
      nodes, bytes, /*rounds=*/2, /*seed=*/42);

  std::cout << "pmx quickstart: " << nodes << " nodes, " << bytes
            << "-byte messages, " << workload.num_messages()
            << " messages total\n\n";

  pmx::Table table({"paradigm", "efficiency", "makespan(us)", "avg lat(ns)",
                    "p99 lat(ns)"});

  for (const pmx::SwitchKind kind : pmx::kSwitchKinds) {
    pmx::RunConfig config;
    config.params.num_nodes = nodes;
    config.kind = kind;
    const pmx::RunResult result = pmx::run_workload(config, workload);
    if (!result.completed) {
      std::cerr << "run did not complete: " << pmx::to_string(kind) << "\n";
      return 1;
    }
    table.add_row({pmx::to_string(kind),
                   pmx::Table::fmt(result.metrics.efficiency),
                   pmx::Table::fmt(result.metrics.makespan.us()),
                   pmx::Table::fmt(result.metrics.avg_latency_ns, 0),
                   pmx::Table::fmt(result.metrics.p99_latency_ns, 0)});
  }

  table.print(std::cout);
  std::cout << "\nefficiency = serialization lower bound / achieved makespan "
               "(1.0 = bottleneck link never idle)\n";
  return 0;
}
