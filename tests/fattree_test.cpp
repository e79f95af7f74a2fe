#include "fabric/fattree.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compiled/decomposition.hpp"

namespace pmx {
namespace {

TEST(FatTree, Geometry) {
  const FatTree tree(4, 8, 4);  // 4 leaves x 8 ports, 4 spines
  EXPECT_EQ(tree.size(), 32u);
  EXPECT_EQ(tree.leaf_of(0), 0u);
  EXPECT_EQ(tree.leaf_of(7), 0u);
  EXPECT_EQ(tree.leaf_of(8), 1u);
  EXPECT_EQ(tree.leaf_of(31), 3u);
  EXPECT_TRUE(tree.is_local(Conn{0, 7}));
  EXPECT_FALSE(tree.is_local(Conn{0, 8}));
  EXPECT_DOUBLE_EQ(tree.oversubscription(), 2.0);
}

TEST(FatTree, LocalTrafficUnconstrained) {
  // Intra-leaf permutations never touch the spines.
  const FatTree tree(4, 8, 1);  // heavily oversubscribed
  BitMatrix config(32);
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    for (std::size_t p = 0; p < 8; ++p) {
      const std::size_t u = leaf * 8 + p;
      const std::size_t v = leaf * 8 + (p + 1) % 8;
      config.set(u, v);
    }
  }
  EXPECT_TRUE(tree.routable(config));
}

TEST(FatTree, UplinkCapacityEnforced) {
  const FatTree tree(4, 8, 2);  // 2 uplinks per leaf
  BitMatrix config(32);
  config.set(0, 8);
  config.set(1, 9);
  EXPECT_TRUE(tree.routable(config));  // exactly at capacity
  config.set(2, 10);                   // third uplink from leaf 0
  EXPECT_FALSE(tree.routable(config));
}

TEST(FatTree, DownlinkCapacityEnforced) {
  const FatTree tree(4, 8, 2);
  BitMatrix config(32);
  config.set(0, 16);   // leaf 0 -> leaf 2
  config.set(8, 17);   // leaf 1 -> leaf 2
  EXPECT_TRUE(tree.routable(config));
  config.set(24, 18);  // leaf 3 -> leaf 2: third downlink into leaf 2
  EXPECT_FALSE(tree.routable(config));
}

TEST(FatTree, FullBisectionMatchesCrossbarForPermutations) {
  // num_spines == leaf_ports: any permutation is realizable.
  const FatTree tree(4, 8, 8);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto perm = rng.permutation(32);
    BitMatrix config(32);
    for (std::size_t u = 0; u < 32; ++u) {
      config.set(u, perm[u]);
    }
    EXPECT_TRUE(tree.routable(config));
  }
}

TEST(DecomposeFatTree, CoversEverythingWithinCapacity) {
  const FatTree tree(4, 8, 2);
  Rng rng(9);
  std::vector<Conn> conns;
  BitMatrix used(32);
  for (int e = 0; e < 96; ++e) {
    const Conn c{rng.below(32), rng.below(32)};
    if (!used.get(c.src, c.dst)) {
      used.set(c.src, c.dst);
      conns.push_back(c);
    }
  }
  const Decomposition d = decompose_greedy(tree, conns);
  BitMatrix covered(32);
  for (const auto& cfg : d.configs) {
    EXPECT_TRUE(tree.routable(cfg));
    for (std::size_t u = 0; u < 32; ++u) {
      for (std::size_t v = 0; v < 32; ++v) {
        if (cfg.get(u, v)) {
          EXPECT_FALSE(covered.get(u, v));
          covered.set(u, v);
        }
      }
    }
  }
  EXPECT_EQ(covered.count(), conns.size());
}

TEST(DecomposeFatTree, OversubscriptionInflatesDegree) {
  // An all-inter-leaf permutation workload: with full bisection it fits in
  // as many configs as the crossbar needs; halving the spines roughly
  // doubles the degree.
  const std::size_t n = 32;
  std::vector<Conn> conns;
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      conns.push_back(Conn{u, (u + 8 * k) % n});  // always crosses leaves
    }
  }
  // Each leaf sources 3 permutations x 8 ports = 24 inter-leaf connections;
  // with s spines per leaf a config carries at most s of them, so the
  // degree is at least 24/s.
  const std::size_t full =
      decompose_greedy(FatTree(4, 8, 8), conns).degree();
  const std::size_t half =
      decompose_greedy(FatTree(4, 8, 4), conns).degree();
  const std::size_t quarter =
      decompose_greedy(FatTree(4, 8, 2), conns).degree();
  EXPECT_EQ(full, 3u);  // crossbar degree of 3 shift permutations
  EXPECT_GE(half, 6u);
  EXPECT_GE(quarter, 12u);
  EXPECT_GT(quarter, half);
}

TEST(DecomposeFatTree, LocalTrafficFreeUnderOversubscription) {
  // Intra-leaf working sets ignore the spine bottleneck entirely.
  const FatTree tree(4, 8, 1);
  std::vector<Conn> conns;
  for (std::size_t leaf = 0; leaf < 4; ++leaf) {
    for (std::size_t p = 0; p < 8; ++p) {
      conns.push_back(
          Conn{leaf * 8 + p, leaf * 8 + (p + 1) % 8});
      conns.push_back(
          Conn{leaf * 8 + p, leaf * 8 + (p + 2) % 8});
    }
  }
  EXPECT_EQ(decompose_greedy(tree, conns).degree(), 2u);
}

TEST(DecomposeFatTree, EmptySet) {
  EXPECT_EQ(decompose_greedy(FatTree(2, 4, 2), {}).degree(), 0u);
}

TEST(FatTreeDeathTest, DegenerateConfigRejected) {
  EXPECT_DEATH(FatTree(0, 4, 2), "degenerate");
}

}  // namespace
}  // namespace pmx
