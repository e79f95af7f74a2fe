#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitmatrix.hpp"
#include "core/driver.hpp"
#include "core/metrics.hpp"
#include "predictor/rank_fn.hpp"
#include "switching/params.hpp"
#include "traffic/program.hpp"

namespace pmx {

/// Which switching paradigm to instantiate.
enum class SwitchKind : std::uint8_t {
  kWormhole,     ///< wormhole-routed digital crossbar (baseline)
  kCircuit,      ///< per-message circuit switching (baseline)
  kDynamicTdm,   ///< reactive multiplexed switching (Section 4)
  kPreloadTdm,   ///< compiled-communication preloading (Section 3.1)
};

/// Every paradigm, in the order the paper's tables list them.
inline constexpr std::array<SwitchKind, 4> kSwitchKinds{
    SwitchKind::kWormhole, SwitchKind::kCircuit, SwitchKind::kDynamicTdm,
    SwitchKind::kPreloadTdm};

[[nodiscard]] std::string to_string(SwitchKind kind);

/// One simulated run's full configuration.
struct RunConfig {
  SystemParams params{};
  SwitchKind kind = SwitchKind::kDynamicTdm;
  SendMode send_mode = SendMode::kEager;

  // Dynamic-TDM knobs. The eviction policy (rank function + parameters) is
  // a PolicySpec so a bench can sweep it from a `name[:value]` token
  // (PolicySpec::parse).
  PolicySpec policy{};  ///< default: timeout, 200 ns (2 slots)
  bool multi_slot_connections = false;
  std::size_t sl_units = 1;  ///< parallel scheduling-logic copies (ext. 1)
  /// End-to-end flow control: receive-buffer bytes (0 = unlimited) and the
  /// per-slot drain rate of the receiving processor.
  std::uint64_t receiver_buffer_bytes = 0;
  std::uint64_t receiver_drain_per_slot = 64;
  /// Starvation watchdog: flush learned schedule state after a source has
  /// been stuck with queued traffic for this many slots. 0 = off.
  std::size_t starvation_slots = 0;

  // Circuit knob.
  bool hold_circuits = false;

  // Hybrid: configurations pinned into slots 0..k-1 of a dynamic TDM
  // network before the run (Figure 5's "k preloaded slots").
  std::vector<BitMatrix> pinned_configs;

  // Preload-TDM knob: use the optimal (Konig) decomposition.
  bool optimal_decomposition = true;

  /// Abort the run at this horizon even if traffic has not drained (guards
  /// against configuration mistakes wedging a benchmark).
  TimeNs horizon{TimeNs{20'000'000}};
};

/// Outcome of one run.
struct RunResult {
  RunMetrics metrics;
  bool completed = false;  ///< traffic fully drained before the horizon
  std::uint64_t sim_events = 0;
  /// Paradigm-specific counters (worms, circuits established, slot bytes,
  /// evictions, ...), flattened for reporting.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
};

/// Build the configured network, run the workload to completion (or the
/// horizon) and report metrics. Deterministic for a given config+workload.
[[nodiscard]] RunResult run_workload(const RunConfig& config,
                                     const Workload& workload);

}  // namespace pmx
