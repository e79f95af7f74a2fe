#include "compiled/plan.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"

namespace pmx {

namespace {

std::uint64_t pair_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

}  // namespace

std::size_t CompiledPlan::max_degree() const {
  std::size_t degree = 0;
  for (const auto& phase : phases) {
    degree = std::max(degree, phase.configs.size());
  }
  return degree;
}

namespace {

/// Gathered per-phase connection sets and per-pair byte totals.
struct PhaseTraffic {
  std::vector<std::vector<Conn>> conns;
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> bytes;
};

PhaseTraffic gather(const Workload& workload) {
  const std::size_t n = workload.num_nodes();
  const std::size_t num_phases = workload.num_phases();
  PhaseTraffic traffic;
  traffic.conns.resize(num_phases);
  traffic.bytes.resize(num_phases);
  for (NodeId u = 0; u < n; ++u) {
    std::size_t phase = 0;
    for (const auto& cmd : workload.programs[u]) {
      if (cmd.kind == Command::Kind::kBarrier) {
        ++phase;
        continue;
      }
      if (cmd.kind != Command::Kind::kSend) {
        continue;
      }
      const std::uint64_t key = pair_key(u, cmd.dst);
      auto& bytes = traffic.bytes[phase][key];
      if (bytes == 0) {
        traffic.conns[phase].push_back(Conn{u, cmd.dst});
      }
      bytes += cmd.bytes;
    }
  }
  return traffic;
}

/// Assemble PhasePlans from a per-phase decomposition callback.
template <typename DecomposeFn>
CompiledPlan assemble(const Workload& workload, DecomposeFn&& decompose) {
  const std::size_t n = workload.num_nodes();
  const PhaseTraffic traffic = gather(workload);
  CompiledPlan plan;
  plan.phases.resize(traffic.conns.size());
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    PhasePlan& phase = plan.phases[p];
    const auto& conns = traffic.conns[p];
    Decomposition d = decompose(conns);
    PMX_CHECK(d.configs.size() < PhasePlan::kNoPair,
              "phase needs more configurations than a 16-bit index holds");
    phase.configs = std::move(d.configs);
    phase.config_bytes.assign(phase.configs.size(), 0);
    phase.num_nodes = n;
    phase.pair_to_config.assign(n * n, PhasePlan::kNoPair);
    for (std::size_t e = 0; e < conns.size(); ++e) {
      const std::size_t color = d.color_of[e];
      const std::uint64_t key = pair_key(conns[e].src, conns[e].dst);
      phase.pair_to_config[conns[e].src * n + conns[e].dst] =
          static_cast<std::uint16_t>(color);
      phase.config_bytes[color] += traffic.bytes[p].at(key);
    }
  }
  return plan;
}

/// Greedy first-fit on `fabric` for every phase.
template <typename Fabric>
CompiledPlan compile_on(const Workload& workload, const Fabric& fabric) {
  PMX_CHECK(fabric.size() == workload.num_nodes(),
            "fabric and workload disagree on node count");
  return assemble(workload, [&](const std::vector<Conn>& conns) {
    return decompose_greedy(fabric, conns);
  });
}

}  // namespace

CompiledPlan compile_workload(const Workload& workload, bool optimal) {
  const std::size_t n = workload.num_nodes();
  return assemble(workload, [&](const std::vector<Conn>& conns) {
    return optimal ? decompose_optimal(n, conns) : decompose_greedy(n, conns);
  });
}

CompiledPlan compile_workload_omega(const Workload& workload,
                                    const OmegaNetwork& omega) {
  return compile_on(workload, omega);
}

CompiledPlan compile_workload_fattree(const Workload& workload,
                                      const FatTree& tree) {
  return compile_on(workload, tree);
}

}  // namespace pmx
