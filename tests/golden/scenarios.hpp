#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "traffic/patterns.hpp"

namespace pmx::golden {

/// One conformance scenario: a (policy, workload) pair whose RunResult
/// fingerprint is frozen as a golden file. The policy is named by string so
/// the same table drives both the pre-refactor capture (mapped onto the old
/// predictor enum) and the post-refactor suite (mapped onto PolicySpec).
struct Scenario {
  std::string id;  ///< golden file stem: <policy-label>_<workload>
  std::string policy;  ///< none | never-evict | timeout | counter | phase
  std::int64_t timeout_ns = 0;
  std::uint64_t threshold = 0;
  std::int64_t phase_epoch_ns = 0;
  std::string workload;  ///< scatter | mesh | two-phase | chaos-mesh
};

/// gtest prints a parameter into the test's listed name; the id keeps that
/// name stable, where the default byte dump would start with a heap address.
inline void PrintTo(const Scenario& s, std::ostream* os) { *os << s.id; }

/// Clean-path scenarios use 24 nodes / 192-byte messages; the chaos-mesh
/// scenarios shrink to 16 nodes and layer lossy control + random link
/// faults + the recovery-mode auditor on top, so the goldens also freeze
/// the predictor's interaction with forced releases and resyncs.
inline std::vector<Scenario> conformance_scenarios() {
  std::vector<Scenario> out;
  struct Policy {
    std::string label;
    std::string policy;
    std::int64_t timeout_ns;
    std::uint64_t threshold;
    std::int64_t phase_epoch_ns;
  };
  const std::vector<Policy> policies{
      {"none", "none", 0, 0, 0},
      {"never-evict", "never-evict", 0, 0, 0},
      {"timeout-100", "timeout", 100, 0, 0},
      {"timeout-200", "timeout", 200, 0, 0},
      {"timeout-800", "timeout", 800, 0, 0},
      {"counter-8", "counter", 0, 8, 0},
      {"counter-64", "counter", 0, 64, 0},
      {"phase-200", "phase", 200, 0, 1000},
  };
  for (const auto& p : policies) {
    for (const std::string workload : {"scatter", "mesh", "two-phase"}) {
      out.push_back(Scenario{p.label + "_" + workload, p.policy, p.timeout_ns,
                             p.threshold, p.phase_epoch_ns, workload});
    }
  }
  for (const auto& p : policies) {
    if (p.policy == "timeout" && p.timeout_ns != 200) {
      continue;  // one timeout horizon is enough for the chaos axis
    }
    if (p.policy == "counter" && p.threshold != 64) {
      continue;
    }
    out.push_back(Scenario{p.label + "_chaos-mesh", p.policy, p.timeout_ns,
                           p.threshold, p.phase_epoch_ns, "chaos-mesh"});
  }
  return out;
}

inline Workload scenario_workload(const Scenario& s) {
  if (s.workload == "scatter") {
    return patterns::scatter(24, 192);
  }
  if (s.workload == "mesh") {
    return patterns::random_mesh(24, 192, 2, /*seed=*/7);
  }
  if (s.workload == "two-phase") {
    return patterns::two_phase(24, 192, /*seed=*/7);
  }
  // chaos-mesh: smaller fabric, more rounds, its own seed.
  return patterns::random_mesh(16, 256, 4, /*seed=*/3);
}

/// Everything about the run configuration except the predictor/policy
/// selection itself (which is the half that changed across the refactor).
inline void apply_scenario_base(RunConfig& config, const Scenario& s) {
  config.kind = SwitchKind::kDynamicTdm;
  config.multi_slot_connections = true;
  if (s.workload == "chaos-mesh") {
    config.params.num_nodes = 16;
    config.params.ctrl.loss = 0.10;
    config.params.fault.link_mtbf = TimeNs{400'000};
    config.params.fault.link_repair = TimeNs{30'000};
    config.params.audit.enabled = true;
    config.params.audit.period_slots = 4;
  } else {
    config.params.num_nodes = 24;
  }
}

}  // namespace pmx::golden
