#pragma once

#include <chrono>
#include <cstdint>

#include "core/experiment.hpp"
#include "points.hpp"
#include "sched/tdm_scheduler.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

/// Host nanoseconds elapsed since `t0`.
inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
      .count();
}

/// How a point runs. Both fields leave the simulated result unchanged.
struct Instrument {
  /// Time every predictor call (the traced run's predictor layer).
  bool trace = false;
  /// Self-test of the regression gate: spin this long inside every
  /// predictor call, a deliberately slowed kernel outside src/.
  std::int64_t slow_predictor_ns = 0;
};

/// Host-time spans of one point's stages, in ns. `build` excludes
/// `compile`; `total` covers the whole point, set-up included.
struct StageTimes {
  std::int64_t gen = 0;
  std::int64_t compile = 0;
  std::int64_t build = 0;
  std::int64_t run = 0;
  std::int64_t audit = 0;
  std::int64_t metrics = 0;
  std::int64_t total = 0;
};

/// What the predictor decorator counted (traced runs only).
struct PredictorTally {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t evictions = 0;
};

/// Everything one staged point run yields.
struct PointRun {
  pmx::RunResult result;
  std::int64_t sim_end_ns = 0;  ///< simulated time when the point ended
  std::size_t messages = 0;     ///< sends in the workload
  /// delivered + shed + dropped == submitted == sends in the workload.
  bool ledger_ok = false;
  bool audited = false;  ///< the point ran with the slot auditor
  StageTimes times;
  pmx::SchedulerStats sched;  ///< zero for paradigms without a TDM scheduler
  PredictorTally predictor;
  std::uint64_t compiled_configs = 0;  ///< preload plan size, all phases
};

/// Run one point through the same stages as pmx::run_workload, using public
/// calls only, and time each stage from the outside.
[[nodiscard]] PointRun run_point(const Point& point, const Instrument& inst);

/// FNV-1a over the canonical text dump of `completed` plus every RunMetrics
/// field. sim_events is left out, so an engine that simulates the same
/// result with fewer events keeps its fingerprints.
[[nodiscard]] std::uint64_t fingerprint(const pmx::RunResult& result);

}  // namespace perf
