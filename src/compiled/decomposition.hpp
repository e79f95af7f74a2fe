#pragma once

#include <cstddef>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/message.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"

namespace pmx {

/// Result of decomposing a connection set C into network configurations
/// C_1..C_k (Section 2): each configuration is a partial permutation, the
/// union of all configurations is exactly C, and `color_of[i]` gives the
/// configuration index of input edge i.
struct Decomposition {
  std::vector<BitMatrix> configs;
  std::vector<std::size_t> color_of;

  [[nodiscard]] std::size_t degree() const { return configs.size(); }
};

/// Maximum in/out degree of the connection set: the lower bound on the
/// multiplexing degree needed to realize it (Konig's theorem makes this
/// bound achievable for crossbars).
[[nodiscard]] std::size_t working_set_degree(std::size_t n,
                                             const std::vector<Conn>& conns);

/// Optimal decomposition by bipartite edge coloring (Kempe-chain recoloring):
/// always uses exactly working_set_degree(conns) configurations.
[[nodiscard]] Decomposition decompose_optimal(std::size_t n,
                                              const std::vector<Conn>& conns);

/// First-fit greedy decomposition: assign each connection to the first slot
/// where both ports are free and, on an Omega network or a fat tree, the
/// fabric's `Slot` admits it; open a new slot when none fits. On a crossbar
/// it may use up to 2*degree-1 configurations and is the baseline for the
/// decomposition ablation. On the other fabrics the result's size is the
/// multiplexing degree that fabric needs for the working set; a fat tree
/// with as many spines as leaf ports gives the crossbar's result.
[[nodiscard]] Decomposition decompose_greedy(std::size_t n,
                                             const std::vector<Conn>& conns);
[[nodiscard]] Decomposition decompose_greedy(const OmegaNetwork& omega,
                                             const std::vector<Conn>& conns);
[[nodiscard]] Decomposition decompose_greedy(const FatTree& tree,
                                             const std::vector<Conn>& conns);

}  // namespace pmx
