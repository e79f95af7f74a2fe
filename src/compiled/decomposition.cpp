#include "compiled/decomposition.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace pmx {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

void check_conns(std::size_t n, const std::vector<Conn>& conns) {
  for (const Conn& c : conns) {
    PMX_CHECK(c.src < n && c.dst < n, "connection endpoint out of range");
  }
}

/// The crossbar constrains only ports, which first_fit tracks itself.
struct CrossbarSlot {
  [[nodiscard]] bool admits(const Conn& /*c*/) const { return true; }
  void add(const Conn& /*c*/) {}
};

/// Greedy first-fit: each connection joins the first configuration whose
/// input and output ports are free and whose fabric slot admits it, and
/// opens a new configuration, with a copy of `empty` as its slot, when none
/// does.
template <typename Slot>
Decomposition first_fit(std::size_t n, const std::vector<Conn>& conns,
                        const Slot& empty) {
  check_conns(n, conns);
  Decomposition result;
  result.color_of.assign(conns.size(), kNone);
  std::vector<BitVector> out_used;  // per config: inputs in use
  std::vector<BitVector> in_used;   // per config: outputs in use
  std::vector<Slot> slots;          // per config: the fabric's own state
  for (std::size_t e = 0; e < conns.size(); ++e) {
    const Conn& c = conns[e];
    std::size_t chosen = kNone;
    for (std::size_t s = 0; s < result.configs.size(); ++s) {
      if (!out_used[s].get(c.src) && !in_used[s].get(c.dst) &&
          slots[s].admits(c)) {
        chosen = s;
        break;
      }
    }
    if (chosen == kNone) {
      chosen = result.configs.size();
      result.configs.emplace_back(n);
      out_used.emplace_back(n);
      in_used.emplace_back(n);
      slots.push_back(empty);
    }
    result.configs[chosen].set(c.src, c.dst);
    out_used[chosen].set(c.src);
    in_used[chosen].set(c.dst);
    slots[chosen].add(c);
    result.color_of[e] = chosen;
  }
  return result;
}

}  // namespace

std::size_t working_set_degree(std::size_t n, const std::vector<Conn>& conns) {
  check_conns(n, conns);
  std::vector<std::size_t> out_deg(n, 0);
  std::vector<std::size_t> in_deg(n, 0);
  std::size_t degree = 0;
  for (const Conn& c : conns) {
    degree = std::max({degree, ++out_deg[c.src], ++in_deg[c.dst]});
  }
  return degree;
}

Decomposition decompose_optimal(std::size_t n, const std::vector<Conn>& conns) {
  check_conns(n, conns);
  const std::size_t k = working_set_degree(n, conns);
  Decomposition result;
  result.color_of.assign(conns.size(), kNone);
  if (k == 0) {
    return result;
  }

  // Bipartite edge coloring with k = max degree colors (Konig's theorem).
  // The graph's left side is the source ports, the right side the
  // destination ports. For each port and color we track the incident edge
  // index: out_edge[u][c] is u's edge colored c, in_edge[v][c] is v's.
  std::vector<std::vector<std::size_t>> out_edge(
      n, std::vector<std::size_t>(k, kNone));
  std::vector<std::vector<std::size_t>> in_edge(
      n, std::vector<std::size_t>(k, kNone));

  const auto free_color = [&](const std::vector<std::size_t>& table) {
    for (std::size_t c = 0; c < k; ++c) {
      if (table[c] == kNone) {
        return c;
      }
    }
    PMX_CHECK(false, "no free color: degree bound violated");
    return kNone;
  };

  const auto assign = [&](std::size_t e, std::size_t c) {
    result.color_of[e] = c;
    out_edge[conns[e].src][c] = e;
    in_edge[conns[e].dst][c] = e;
  };

  const auto unassign = [&](std::size_t e) {
    const std::size_t c = result.color_of[e];
    out_edge[conns[e].src][c] = kNone;
    in_edge[conns[e].dst][c] = kNone;
    result.color_of[e] = kNone;
  };

  for (std::size_t e = 0; e < conns.size(); ++e) {
    const Conn& conn = conns[e];
    PMX_CHECK(std::none_of(out_edge[conn.src].begin(),
                           out_edge[conn.src].end(),
                           [&](std::size_t idx) {
                             return idx != kNone && conns[idx].dst == conn.dst;
                           }),
              "duplicate connection in working set");
    const std::size_t alpha = free_color(out_edge[conn.src]);
    if (in_edge[conn.dst][alpha] == kNone) {
      assign(e, alpha);
      continue;
    }
    const std::size_t beta = free_color(in_edge[conn.dst]);
    // Kempe chain: starting at conn.dst, follow the alternating
    // alpha/beta/alpha/... path. Konig's argument guarantees the path is
    // simple and never reaches conn.src (src has no alpha edge, and left
    // nodes are only entered through alpha edges), so flipping every edge's
    // color along the path frees alpha at conn.dst while keeping the
    // coloring proper.
    std::vector<std::size_t> path;
    std::size_t node = conn.dst;
    bool right_side = true;  // conn.dst is a destination (right) node
    std::size_t color = alpha;
    while (true) {
      const std::size_t edge =
          right_side ? in_edge[node][color] : out_edge[node][color];
      if (edge == kNone) {
        break;
      }
      path.push_back(edge);
      node = right_side ? conns[edge].src : conns[edge].dst;
      right_side = !right_side;
      color = color == alpha ? beta : alpha;
    }
    for (const std::size_t edge : path) {
      unassign(edge);
    }
    // Re-assign in reverse order with flipped colors; reverse order keeps
    // the intermediate states conflict-free (the far end of the path gets
    // its new color first).
    std::size_t flip = path.size() % 2 == 1 ? beta : alpha;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      assign(*it, flip);
      flip = flip == alpha ? beta : alpha;
    }
    PMX_CHECK(in_edge[conn.dst][alpha] == kNone &&
                  out_edge[conn.src][alpha] == kNone,
              "Kempe chain did not free the color");
    assign(e, alpha);
  }

  result.configs.assign(k, BitMatrix(n));
  for (std::size_t e = 0; e < conns.size(); ++e) {
    PMX_CHECK(result.color_of[e] != kNone, "uncolored connection");
    result.configs[result.color_of[e]].set(conns[e].src, conns[e].dst);
  }
  for (const auto& cfg : result.configs) {
    PMX_CHECK(cfg.is_partial_permutation(), "invalid configuration produced");
  }
  return result;
}

Decomposition decompose_greedy(std::size_t n, const std::vector<Conn>& conns) {
  return first_fit(n, conns, CrossbarSlot{});
}

Decomposition decompose_greedy(const OmegaNetwork& omega,
                               const std::vector<Conn>& conns) {
  Decomposition result =
      first_fit(omega.size(), conns, OmegaNetwork::Slot(omega));
  for (const auto& cfg : result.configs) {
    PMX_CHECK(omega.routable(cfg),
              "omega decomposition produced a blocked configuration");
  }
  return result;
}

Decomposition decompose_greedy(const FatTree& tree,
                               const std::vector<Conn>& conns) {
  Decomposition result = first_fit(tree.size(), conns, FatTree::Slot(tree));
  for (const auto& cfg : result.configs) {
    PMX_CHECK(tree.routable(cfg),
              "fat-tree decomposition produced an over-capacity config");
  }
  return result;
}

}  // namespace pmx
