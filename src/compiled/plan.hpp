#pragma once

#include <cstdint>
#include <vector>

#include "common/bitmatrix.hpp"
#include "compiled/decomposition.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"
#include "traffic/program.hpp"

namespace pmx {

/// The compiled-communication plan for one barrier-delimited phase of a
/// workload: the phase's connection working set W^(j), decomposed into
/// configurations, plus per-configuration traffic budgets so a preloading
/// network knows when a configuration's traffic has drained and the slot
/// can be handed to the next configuration.
struct PhasePlan {
  std::vector<BitMatrix> configs;
  /// Total payload bytes that will flow over each configuration.
  std::vector<std::uint64_t> config_bytes;
  /// Configuration index serving connection (u,v), or kNoConfig.
  [[nodiscard]] std::size_t config_of(NodeId src, NodeId dst) const {
    if (src >= num_nodes || dst >= num_nodes) {
      return kNoConfig;
    }
    const std::uint16_t cfg = pair_to_config[src * num_nodes + dst];
    return cfg != kNoPair ? cfg : kNoConfig;
  }

  static constexpr std::size_t kNoConfig = static_cast<std::size_t>(-1);
  /// pair_to_config's value for a pair outside the working set.
  static constexpr std::uint16_t kNoPair = UINT16_MAX;

  /// Configuration index of every pair, row-major over num_nodes x
  /// num_nodes (the preloaded per-slot table of Section 3.1): kNoPair for a
  /// pair outside W^(j).
  std::vector<std::uint16_t> pair_to_config;
  std::size_t num_nodes = 0;
};

/// Whole-program compiled plan: one PhasePlan per phase, in order.
///
/// This models the output of the compiler/load-time analysis of Section 3.1:
/// the sequence of communication working sets W^(1)..W^(p) with each W^(j)
/// decomposed into conflict-free configurations.
struct CompiledPlan {
  std::vector<PhasePlan> phases;

  [[nodiscard]] std::size_t num_phases() const { return phases.size(); }
  /// Largest per-phase multiplexing requirement: the most configurations
  /// any phase needs.
  [[nodiscard]] std::size_t max_degree() const;
};

/// Analyze a workload and produce its compiled plan. `optimal` selects the
/// Konig edge-coloring decomposition; otherwise first-fit greedy.
[[nodiscard]] CompiledPlan compile_workload(const Workload& workload,
                                            bool optimal = true);

/// Compile for an Omega multistage fabric: each phase's working set is
/// decomposed into configurations that are conflict-free on the Omega
/// network's internal lines, not just on crossbar ports. Such plans
/// generally need a higher multiplexing degree -- the bandwidth price of
/// the cheaper fabric (Section 4's "limited permutation capabilities").
[[nodiscard]] CompiledPlan compile_workload_omega(const Workload& workload,
                                                  const OmegaNetwork& omega);

/// Compile for a two-level fat tree: configurations additionally respect
/// each leaf switch's uplink/downlink capacity. Oversubscribed trees need
/// proportionally more configurations for inter-leaf-heavy working sets.
[[nodiscard]] CompiledPlan compile_workload_fattree(const Workload& workload,
                                                    const FatTree& tree);

}  // namespace pmx
