#include "fabric/omega.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "compiled/decomposition.hpp"

namespace pmx {
namespace {

TEST(OmegaNetwork, SizesAndStages) {
  EXPECT_EQ(OmegaNetwork(2).stages(), 1u);
  EXPECT_EQ(OmegaNetwork(8).stages(), 3u);
  EXPECT_EQ(OmegaNetwork(128).stages(), 7u);
}

TEST(OmegaNetworkDeathTest, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(OmegaNetwork(12), "power of two");
}

TEST(OmegaNetwork, RouteEndsAtDestination) {
  const OmegaNetwork omega(16);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto src = static_cast<std::size_t>(rng.below(16));
    const auto dst = static_cast<std::size_t>(rng.below(16));
    const auto lines = omega.route(src, dst);
    ASSERT_EQ(lines.size(), omega.stages());
    EXPECT_EQ(lines.back(), dst);
    for (std::size_t s = 0; s < lines.size(); ++s) {
      EXPECT_EQ(lines[s], omega.line_after_stage(src, dst, s));
    }
  }
}

TEST(OmegaNetwork, IdentityPermutationIsRoutable) {
  // The identity is a classic Omega-routable permutation.
  const std::size_t n = 16;
  const OmegaNetwork omega(n);
  BitMatrix identity(n);
  for (std::size_t u = 0; u < n; ++u) {
    identity.set(u, u);
  }
  EXPECT_TRUE(omega.routable(identity));
}

TEST(OmegaNetwork, UniformShiftsAreRoutable) {
  // Cyclic shifts sigma(u) = u + k are routable through an Omega network.
  const std::size_t n = 16;
  const OmegaNetwork omega(n);
  for (std::size_t k = 0; k < n; ++k) {
    BitMatrix shift(n);
    for (std::size_t u = 0; u < n; ++u) {
      shift.set(u, (u + k) % n);
    }
    EXPECT_TRUE(omega.routable(shift)) << "shift " << k;
  }
}

TEST(OmegaNetwork, KnownBlockingPermutationDetected) {
  // The Omega network cannot route every permutation; with n inputs it
  // realizes only 2^(n/2 * log2 n) of n! permutations. Verify some random
  // permutation at n=16 is reported blocked (brute-search for one).
  const std::size_t n = 16;
  const OmegaNetwork omega(n);
  Rng rng(7);
  bool found_blocked = false;
  for (int trial = 0; trial < 50 && !found_blocked; ++trial) {
    const auto perm = rng.permutation(n);
    BitMatrix config(n);
    for (std::size_t u = 0; u < n; ++u) {
      config.set(u, perm[u]);
    }
    found_blocked = !omega.routable(config);
  }
  EXPECT_TRUE(found_blocked);
}

TEST(OmegaNetwork, ConflictMatchesRoutability) {
  const std::size_t n = 8;
  const OmegaNetwork omega(n);
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const Conn a{rng.below(n), rng.below(n)};
    Conn b{rng.below(n), rng.below(n)};
    if (a.src == b.src || a.dst == b.dst) {
      continue;  // crossbar-infeasible pair
    }
    BitMatrix config(n);
    config.set(a.src, a.dst);
    config.set(b.src, b.dst);
    EXPECT_EQ(!omega.conflict(a, b), omega.routable(config));
  }
}

TEST(OmegaNetwork, SingleConnectionAlwaysRoutable) {
  const std::size_t n = 32;
  const OmegaNetwork omega(n);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    BitMatrix config(n);
    config.set(rng.below(n), rng.below(n));
    EXPECT_TRUE(omega.routable(config));
  }
}

TEST(DecomposeOmega, CoversEveryConnectionExactlyOnce) {
  const std::size_t n = 16;
  const OmegaNetwork omega(n);
  Rng rng(17);
  std::vector<Conn> conns;
  BitMatrix used(n);
  for (std::size_t e = 0; e < n * 3; ++e) {
    const Conn c{rng.below(n), rng.below(n)};
    if (!used.get(c.src, c.dst)) {
      used.set(c.src, c.dst);
      conns.push_back(c);
    }
  }
  const Decomposition d = decompose_greedy(omega, conns);
  BitMatrix covered(n);
  for (const auto& cfg : d.configs) {
    EXPECT_TRUE(omega.routable(cfg));
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (cfg.get(u, v)) {
          EXPECT_FALSE(covered.get(u, v));
          covered.set(u, v);
        }
      }
    }
  }
  EXPECT_EQ(covered.count(), conns.size());
}

TEST(DecomposeOmega, NeedsAtLeastCrossbarDegree) {
  // The Omega constraint is strictly tighter than the crossbar constraint:
  // its multiplexing degree is never below Konig's, and for most working
  // sets it is strictly above.
  const std::size_t n = 32;
  const OmegaNetwork omega(n);
  Rng rng(19);
  std::size_t strictly_above = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Conn> conns;
    BitMatrix used(n);
    for (std::size_t e = 0; e < n * 4; ++e) {
      const Conn c{rng.below(n), rng.below(n)};
      if (!used.get(c.src, c.dst)) {
        used.set(c.src, c.dst);
        conns.push_back(c);
      }
    }
    const std::size_t crossbar = decompose_optimal(n, conns).degree();
    const std::size_t mux = decompose_greedy(omega, conns).degree();
    EXPECT_GE(mux, crossbar);
    strictly_above += mux > crossbar ? 1u : 0u;
  }
  EXPECT_GT(strictly_above, 5u);
}

TEST(DecomposeOmega, ShiftWorkingSetStaysCheap) {
  // A working set made of cyclic shifts decomposes into exactly one config
  // per shift on the Omega network too.
  const std::size_t n = 16;
  const OmegaNetwork omega(n);
  std::vector<Conn> conns;
  for (std::size_t k = 1; k <= 4; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      conns.push_back(Conn{u, (u + k) % n});
    }
  }
  const Decomposition d = decompose_greedy(omega, conns);
  EXPECT_EQ(d.degree(), 4u);
}

TEST(DecomposeOmega, EmptySet) {
  const OmegaNetwork omega(8);
  EXPECT_EQ(decompose_greedy(omega, {}).degree(), 0u);
}

}  // namespace
}  // namespace pmx
