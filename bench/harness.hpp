#pragma once

// Plumbing shared by the bench mains: the table cells, workload labels and
// base run configuration that two or more of them would otherwise copy.
// Each main keeps its own options, sweep and table layout.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/table.hpp"
#include "core/experiment.hpp"

namespace pmx::bench {

/// A workload and the label its row or column is printed under.
struct NamedWorkload {
  std::string name;
  Workload workload;
};

/// Bandwidth efficiency at 3 decimals, or "DNF" when the run hit its horizon
/// before the traffic drained.
inline std::string efficiency_cell(const RunResult& r) {
  return r.completed ? Table::fmt(r.metrics.efficiency, 3) : std::string("DNF");
}

/// "delivered/total" messages, or "DNF".
inline std::string delivery_cell(const RunResult& r, std::size_t messages) {
  if (!r.completed) {
    return "DNF";
  }
  return Table::fmt(static_cast<std::uint64_t>(r.metrics.messages)) + "/" +
         Table::fmt(static_cast<std::uint64_t>(messages));
}

/// Base configuration of the campaigns that audit conservation (A7, A9,
/// A10). The zero-rate fault layer arms the injected == delivered + dropped
/// + shed + in-flight ledger without perturbing timing (A6 "clean"), the
/// slot auditor checks it in recovery mode (resync, don't abort), and the
/// 1 s horizon lets heavy loss drain.
inline RunConfig ledger_config(SwitchKind kind, std::size_t nodes) {
  RunConfig config;
  config.params.num_nodes = nodes;
  config.params.fault.force_enable = true;
  config.params.audit.enabled = true;
  config.params.audit.strict = false;
  config.kind = kind;
  config.horizon = TimeNs{1'000'000'000};
  return config;
}

}  // namespace pmx::bench
