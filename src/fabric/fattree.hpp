#pragma once

#include <cstddef>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/message.hpp"

namespace pmx {

/// Two-level fat-tree (folded Clos) fabric model.
///
/// Section 4 lists fat trees among the fabrics the passive switching system
/// can use, noting they have "multi-paths from inputs to outputs". We model
/// the standard two-level organization: `num_leaves` leaf switches of
/// `leaf_ports` node ports each, every leaf connected to `num_spines` spine
/// switches by one uplink each. A connection between nodes under different
/// leaves consumes one uplink at the source leaf and one downlink at the
/// destination leaf (any spine works -- the multipath property); traffic
/// within a leaf never leaves it.
///
/// A configuration is realizable iff, besides the crossbar port constraint,
/// every leaf's inter-leaf connection count stays within `num_spines` in
/// each direction (Hall's condition for the spine bipartite graph is then
/// satisfiable because any spine can carry any pair, i.e. the spine stage
/// is rearrangeably non-blocking).
class FatTree {
 public:
  /// The fat-tree constraint of one configuration: inter-leaf connections
  /// per leaf, up and down. The crossbar's port constraint is the caller's
  /// to check. Must not outlive the tree it was made for.
  class Slot {
   public:
    explicit Slot(const FatTree& tree);

    /// True when `c` stays inside its leaf switch, or its source leaf has
    /// an uplink and its destination leaf a downlink to spare.
    [[nodiscard]] bool admits(const Conn& c) const;
    /// Take `c`'s uplink and downlink, if it leaves its leaf.
    void add(const Conn& c);

   private:
    const FatTree* tree_;
    std::vector<std::size_t> up_;    ///< per leaf: uplinks in use
    std::vector<std::size_t> down_;  ///< per leaf: downlinks in use
  };

  FatTree(std::size_t num_leaves, std::size_t leaf_ports,
          std::size_t num_spines);

  [[nodiscard]] std::size_t size() const { return num_leaves_ * leaf_ports_; }
  [[nodiscard]] std::size_t num_leaves() const { return num_leaves_; }
  [[nodiscard]] std::size_t leaf_ports() const { return leaf_ports_; }
  [[nodiscard]] std::size_t num_spines() const { return num_spines_; }

  /// Leaf switch housing node `u`.
  [[nodiscard]] std::size_t leaf_of(NodeId u) const { return u / leaf_ports_; }
  /// True when the connection stays inside one leaf switch.
  [[nodiscard]] bool is_local(const Conn& c) const {
    return leaf_of(c.src) == leaf_of(c.dst);
  }

  /// Oversubscription ratio: node ports per leaf divided by uplinks.
  [[nodiscard]] double oversubscription() const {
    return static_cast<double>(leaf_ports_) /
           static_cast<double>(num_spines_);
  }

  /// True when `config` (a partial permutation) fits the uplink/downlink
  /// capacities of every leaf.
  [[nodiscard]] bool routable(const BitMatrix& config) const;

 private:
  std::size_t num_leaves_;
  std::size_t leaf_ports_;
  std::size_t num_spines_;
};

}  // namespace pmx
