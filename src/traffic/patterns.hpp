#pragma once

#include <cstdint>

#include "traffic/program.hpp"

namespace pmx {

/// Generators for the test patterns of Section 5 plus standard synthetic
/// patterns. All generators are deterministic given their seed.
namespace patterns {

/// Scatter: `root` sends one unique message to every other node, in node
/// order, one at a time.
[[nodiscard]] Workload scatter(std::size_t n, std::uint64_t bytes,
                               NodeId root = 0);

/// Ordered Mesh: every node sends to its four torus neighbours in the same
/// global direction order (E, W, N, S), `rounds` times. Each direction step
/// is a permutation, so the pattern is perfectly predictable.
[[nodiscard]] Workload ordered_mesh(std::size_t n, std::uint64_t bytes,
                                    std::size_t rounds = 2);

/// Random Mesh: same communication volume as ordered_mesh (4*rounds sends
/// per node, all to nearest neighbours) but each node picks a uniformly
/// random neighbour for every send -- nearest-neighbour locality with no
/// predictability.
[[nodiscard]] Workload random_mesh(std::size_t n, std::uint64_t bytes,
                                   std::size_t rounds = 2,
                                   std::uint64_t seed = 1);

/// Staggered all-to-all: node u sends to u+1, u+2, ..., u+n-1 (mod n), so
/// every step is a full permutation.
[[nodiscard]] Workload all_to_all(std::size_t n, std::uint64_t bytes);

/// Two Phase (Section 5): one 128-processor all-to-all, a barrier, then 16
/// random nearest-neighbour communications per node.
[[nodiscard]] Workload two_phase(std::size_t n, std::uint64_t bytes,
                                 std::uint64_t seed = 1,
                                 std::size_t mesh_rounds = 4);

/// Figure 5 workload: each node issues `count` sends; with probability
/// `determinism` the destination is one of the node's `favored` statically
/// known destinations (the preloadable pattern), otherwise it is a uniformly
/// random other node.
[[nodiscard]] Workload determinism_mix(std::size_t n, std::uint64_t bytes,
                                       double determinism, std::size_t count,
                                       std::size_t favored = 2,
                                       std::uint64_t seed = 1);

/// The favored destinations used by determinism_mix, exposed so the compiled
/// planner can preload the same static pattern: destination j of node u is
/// (u + j * n / favored + 1) mod n.
[[nodiscard]] NodeId favored_destination(std::size_t n, NodeId node,
                                         std::size_t j, std::size_t favored);

/// Uniform random traffic: `count` sends per node to random other nodes.
[[nodiscard]] Workload uniform_random(std::size_t n, std::uint64_t bytes,
                                      std::size_t count,
                                      std::uint64_t seed = 1);

/// Hotspot: every node sends `count` messages; a `fraction` of them target
/// the single hotspot node, the rest are uniform.
[[nodiscard]] Workload hotspot(std::size_t n, std::uint64_t bytes,
                               std::size_t count, NodeId hot, double fraction,
                               std::uint64_t seed = 1);

/// Transpose permutation traffic (classic NoC stressor): on the s x s grid
/// of nodes, s = sqrt(n), node (x, y) = (u % s, u / s) sends `rounds`
/// messages to node (y, x); diagonal nodes send nothing. n must be a perfect
/// square (aborts otherwise).
[[nodiscard]] Workload transpose(std::size_t n, std::uint64_t bytes,
                                 std::size_t rounds = 1);

}  // namespace patterns
}  // namespace pmx
