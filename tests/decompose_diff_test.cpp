// Differential test of the one first-fit decomposer against the three
// greedy loops it replaced, kept here as oracles: decompose_greedy_ref
// (crossbar ports only), decompose_omega_ref (plus the internal lines of
// every Omega stage) and decompose_fattree_ref (plus each leaf's uplinks
// and downlinks). The configurations and every connection's colour must
// match exactly on seeded working sets -- uniform random pairs, unions of
// random permutations, cyclic shifts, all-to-all and the empty set -- and
// the fabrics' own `conflict` and `routable` must match the oracles'.
//
// On a conflict-free decomposition the last Omega stage never binds: its
// line is the destination, which the output-port check already guards.
// Only `conflict` shows it, because two connections to one destination
// always conflict.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/bitvector.hpp"
#include "common/message.hpp"
#include "common/rng.hpp"
#include "compiled/decomposition.hpp"
#include "fabric/fattree.hpp"
#include "fabric/omega.hpp"

namespace pmx {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The crossbar's first-fit loop as it stood before the fabrics shared it.
Decomposition decompose_greedy_ref(std::size_t n,
                                   const std::vector<Conn>& conns) {
  Decomposition result;
  result.color_of.assign(conns.size(), kNone);
  std::vector<BitVector> out_used;  // per config: inputs in use
  std::vector<BitVector> in_used;   // per config: outputs in use
  for (std::size_t e = 0; e < conns.size(); ++e) {
    const Conn& c = conns[e];
    std::size_t slot = kNone;
    for (std::size_t s = 0; s < result.configs.size(); ++s) {
      if (!out_used[s].get(c.src) && !in_used[s].get(c.dst)) {
        slot = s;
        break;
      }
    }
    if (slot == kNone) {
      slot = result.configs.size();
      result.configs.emplace_back(n);
      out_used.emplace_back(n);
      in_used.emplace_back(n);
    }
    result.configs[slot].set(c.src, c.dst);
    out_used[slot].set(c.src);
    in_used[slot].set(c.dst);
    result.color_of[e] = slot;
  }
  return result;
}

/// Destination-tag route through an n-port Omega network, written out
/// independently of OmegaNetwork: the line after each stage.
std::vector<std::size_t> omega_lines_ref(std::size_t n, std::size_t src,
                                         std::size_t dst) {
  const auto stages = static_cast<std::size_t>(std::countr_zero(n));
  std::vector<std::size_t> lines(stages);
  std::size_t line = src;
  for (std::size_t s = 0; s < stages; ++s) {
    line = ((line << 1) & (n - 1)) | ((dst >> (stages - 1 - s)) & 1);
    lines[s] = line;
  }
  return lines;
}

bool omega_conflict_ref(std::size_t n, const Conn& a, const Conn& b) {
  const auto lines_a = omega_lines_ref(n, a.src, a.dst);
  const auto lines_b = omega_lines_ref(n, b.src, b.dst);
  for (std::size_t s = 0; s < lines_a.size(); ++s) {
    if (lines_a[s] == lines_b[s]) {
      return true;
    }
  }
  return false;
}

/// The Omega first-fit loop as it stood before the fabrics shared it.
Decomposition decompose_omega_ref(std::size_t n,
                                  const std::vector<Conn>& conns) {
  const auto stages = static_cast<std::size_t>(std::countr_zero(n));
  Decomposition result;
  result.color_of.assign(conns.size(), kNone);
  struct Slot {
    std::vector<BitVector> lines;
    BitVector in_used;
    BitVector out_used;
  };
  std::vector<Slot> slots;
  for (std::size_t e = 0; e < conns.size(); ++e) {
    const Conn& c = conns[e];
    const auto lines = omega_lines_ref(n, c.src, c.dst);
    std::size_t chosen = kNone;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (slot.in_used.get(c.src) || slot.out_used.get(c.dst)) {
        continue;
      }
      bool free = true;
      for (std::size_t st = 0; st < stages && free; ++st) {
        free = !slot.lines[st].get(lines[st]);
      }
      if (free) {
        chosen = s;
        break;
      }
    }
    if (chosen == kNone) {
      chosen = slots.size();
      slots.push_back(Slot{std::vector<BitVector>(stages, BitVector(n)),
                           BitVector(n), BitVector(n)});
      result.configs.emplace_back(n);
    }
    Slot& slot = slots[chosen];
    for (std::size_t st = 0; st < stages; ++st) {
      slot.lines[st].set(lines[st]);
    }
    slot.in_used.set(c.src);
    slot.out_used.set(c.dst);
    result.configs[chosen].set(c.src, c.dst);
    result.color_of[e] = chosen;
  }
  return result;
}

/// A two-level fat tree's shape, kept apart from FatTree.
struct TreeShape {
  std::size_t leaves;
  std::size_t leaf_ports;
  std::size_t spines;

  [[nodiscard]] std::size_t size() const { return leaves * leaf_ports; }
};

std::ostream& operator<<(std::ostream& os, const TreeShape& t) {
  return os << "tree (" << t.leaves << "," << t.leaf_ports << "," << t.spines
            << ")";
}

constexpr std::size_t kOmegaSizes[] = {2, 8, 64, 128};
constexpr TreeShape kTrees[] = {
    {2, 4, 2}, {4, 8, 1}, {4, 8, 2}, {4, 8, 8}, {8, 16, 4}};

/// The fat-tree first-fit loop as it stood before the fabrics shared it.
Decomposition decompose_fattree_ref(const TreeShape& tree,
                                    const std::vector<Conn>& conns) {
  const std::size_t n = tree.size();
  Decomposition result;
  result.color_of.assign(conns.size(), kNone);
  struct Slot {
    BitVector in_used;
    BitVector out_used;
    std::vector<std::size_t> up;
    std::vector<std::size_t> down;
  };
  std::vector<Slot> slots;
  for (std::size_t e = 0; e < conns.size(); ++e) {
    const Conn& c = conns[e];
    const std::size_t src_leaf = c.src / tree.leaf_ports;
    const std::size_t dst_leaf = c.dst / tree.leaf_ports;
    const bool local = src_leaf == dst_leaf;
    std::size_t chosen = kNone;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (slot.in_used.get(c.src) || slot.out_used.get(c.dst)) {
        continue;
      }
      if (!local && (slot.up[src_leaf] >= tree.spines ||
                     slot.down[dst_leaf] >= tree.spines)) {
        continue;
      }
      chosen = s;
      break;
    }
    if (chosen == kNone) {
      chosen = slots.size();
      slots.push_back(Slot{BitVector(n), BitVector(n),
                           std::vector<std::size_t>(tree.leaves, 0),
                           std::vector<std::size_t>(tree.leaves, 0)});
      result.configs.emplace_back(n);
    }
    Slot& slot = slots[chosen];
    slot.in_used.set(c.src);
    slot.out_used.set(c.dst);
    if (!local) {
      ++slot.up[src_leaf];
      ++slot.down[dst_leaf];
    }
    result.configs[chosen].set(c.src, c.dst);
    result.color_of[e] = chosen;
  }
  return result;
}

bool fattree_routable_ref(const TreeShape& tree, const BitMatrix& config) {
  std::vector<std::size_t> up(tree.leaves, 0);
  std::vector<std::size_t> down(tree.leaves, 0);
  for (std::size_t u = 0; u < tree.size(); ++u) {
    const std::size_t v = config.row(u).find_first();
    if (v >= tree.size() || u / tree.leaf_ports == v / tree.leaf_ports) {
      continue;
    }
    if (++up[u / tree.leaf_ports] > tree.spines ||
        ++down[v / tree.leaf_ports] > tree.spines) {
      return false;
    }
  }
  return true;
}

/// One working set and what it is, for failure messages.
struct WorkingSet {
  const char* kind;
  std::vector<Conn> conns;
};

/// Adds (u,v) to `conns` unless it is already there.
void add_once(std::vector<Conn>& conns, BitMatrix& seen, const Conn& c) {
  if (!seen.get(c.src, c.dst)) {
    seen.set(c.src, c.dst);
    conns.push_back(c);
  }
}

std::vector<WorkingSet> working_sets(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WorkingSet> sets;
  sets.push_back({"empty", {}});
  for (const std::size_t per_node : {std::size_t{1}, std::size_t{4}}) {
    WorkingSet set{"uniform random pairs", {}};
    BitMatrix seen(n);
    for (std::size_t e = 0; e < n * per_node; ++e) {
      add_once(set.conns, seen, Conn{rng.below(n), rng.below(n)});
    }
    sets.push_back(std::move(set));
  }
  {
    WorkingSet set{"random permutations", {}};
    BitMatrix seen(n);
    for (int k = 0; k < 3; ++k) {
      const auto perm = rng.permutation(n);
      for (std::size_t u = 0; u < n; ++u) {
        add_once(set.conns, seen, Conn{u, perm[u]});
      }
    }
    sets.push_back(std::move(set));
  }
  {
    WorkingSet set{"cyclic shifts", {}};
    BitMatrix seen(n);
    for (int k = 0; k < 4; ++k) {
      const std::size_t shift = rng.below(n);
      for (std::size_t u = 0; u < n; ++u) {
        add_once(set.conns, seen, Conn{u, (u + shift) % n});
      }
    }
    sets.push_back(std::move(set));
  }
  WorkingSet all{"all-to-all", {}};
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v) {
        all.conns.push_back(Conn{u, v});
      }
    }
  }
  sets.push_back(std::move(all));
  return sets;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// A random permutation with about a quarter of its rows left empty.
BitMatrix random_partial_permutation(Rng& rng, std::size_t n) {
  const auto perm = rng.permutation(n);
  BitMatrix config(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.below(4) != 0) {
      config.set(u, perm[u]);
    }
  }
  return config;
}

void expect_same(const Decomposition& got, const Decomposition& want) {
  EXPECT_EQ(got.color_of, want.color_of);
  ASSERT_EQ(got.configs.size(), want.configs.size());
  for (std::size_t k = 0; k < got.configs.size(); ++k) {
    EXPECT_TRUE(got.configs[k] == want.configs[k]) << "configuration " << k;
  }
}

TEST(DecomposeDiff, CrossbarMatchesReference) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{130}}) {
    for (const std::uint64_t seed : kSeeds) {
      for (const WorkingSet& set : working_sets(n, seed)) {
        SCOPED_TRACE(testing::Message() << "N=" << n << " seed " << seed
                                        << ", " << set.kind);
        expect_same(decompose_greedy(n, set.conns),
                    decompose_greedy_ref(n, set.conns));
      }
    }
  }
}

TEST(DecomposeDiff, OmegaMatchesReference) {
  std::size_t blocked = 0;  // sets the Omega lines cost a configuration
  for (const std::size_t n : kOmegaSizes) {
    const OmegaNetwork omega(n);
    for (const std::uint64_t seed : kSeeds) {
      for (const WorkingSet& set : working_sets(n, seed)) {
        SCOPED_TRACE(testing::Message() << "N=" << n << " seed " << seed
                                        << ", " << set.kind);
        const Decomposition want = decompose_omega_ref(n, set.conns);
        expect_same(decompose_greedy(omega, set.conns), want);
        if (want.configs.size() >
            decompose_greedy_ref(n, set.conns).configs.size()) {
          ++blocked;
        }
      }
    }
  }
  EXPECT_GT(blocked, 0u) << "no working set exercised the Omega constraint";
}

TEST(DecomposeDiff, OmegaConflictAndRoutableMatchReference) {
  for (const std::size_t n : kOmegaSizes) {
    SCOPED_TRACE(testing::Message() << "N=" << n);
    const OmegaNetwork omega(n);
    Rng rng(n);
    // Every pair at small N; at large N random pairs, with a shared
    // source or destination half the time.
    const std::size_t trials = n <= 8 ? n * n * n * n : 4000;
    for (std::size_t t = 0; t < trials; ++t) {
      Conn a{t % n, t / n % n};
      Conn b{t / (n * n) % n, t / (n * n * n)};
      if (n > 8) {
        a = Conn{rng.below(n), rng.below(n)};
        b = Conn{t % 4 == 1 ? a.src : rng.below(n),
                 t % 4 == 3 ? a.dst : rng.below(n)};
      }
      ASSERT_EQ(omega.conflict(a, b), omega_conflict_ref(n, a, b))
          << "(" << a.src << "," << a.dst << ") (" << b.src << "," << b.dst
          << ")";
    }
    for (int t = 0; t < 200; ++t) {
      const BitMatrix config = random_partial_permutation(rng, n);
      std::vector<Conn> conns;
      for (std::size_t u = 0; u < n; ++u) {
        if (config.row_any(u)) {
          conns.push_back(Conn{u, config.row(u).find_first()});
        }
      }
      bool want = true;
      for (std::size_t i = 0; i < conns.size() && want; ++i) {
        for (std::size_t j = i + 1; j < conns.size() && want; ++j) {
          want = !omega_conflict_ref(n, conns[i], conns[j]);
        }
      }
      ASSERT_EQ(omega.routable(config), want) << "trial " << t;
    }
  }
}

TEST(DecomposeDiff, FatTreeMatchesReference) {
  std::size_t over_capacity = 0;  // sets the spines cost a configuration
  for (const TreeShape& shape : kTrees) {
    const FatTree tree(shape.leaves, shape.leaf_ports, shape.spines);
    const std::size_t n = shape.size();
    for (const std::uint64_t seed : kSeeds) {
      for (const WorkingSet& set : working_sets(n, seed)) {
        SCOPED_TRACE(testing::Message()
                     << shape << " seed " << seed << ", " << set.kind);
        const Decomposition want = decompose_fattree_ref(shape, set.conns);
        expect_same(decompose_greedy(tree, set.conns), want);
        if (want.configs.size() >
            decompose_greedy_ref(n, set.conns).configs.size()) {
          ++over_capacity;
        }
      }
    }
  }
  EXPECT_GT(over_capacity, 0u)
      << "no working set exercised the leaf capacities";
}

TEST(DecomposeDiff, FatTreeRoutableMatchesReference) {
  for (const TreeShape& shape : kTrees) {
    const FatTree tree(shape.leaves, shape.leaf_ports, shape.spines);
    Rng rng(shape.size() + shape.spines);
    std::size_t rejected = 0;
    for (int t = 0; t < 200; ++t) {
      const BitMatrix config = random_partial_permutation(rng, shape.size());
      const bool want = fattree_routable_ref(shape, config);
      ASSERT_EQ(tree.routable(config), want) << shape << " trial " << t;
      if (!want) {
        ++rejected;
      }
    }
    if (shape.spines < shape.leaf_ports) {
      EXPECT_GT(rejected, 0u) << shape << " never ran out of spines";
    }
  }
}

}  // namespace
}  // namespace pmx
