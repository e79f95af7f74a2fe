#pragma once

#include "traffic/program.hpp"

namespace perf {

// Unit-cost probes for the traced run: each calls one layer's public API at
// N=128, K=4 and returns the median cost of one operation over several
// repetitions. Multiplied by the exact counts of a pass they give the
// per-layer `*_est` shares.

/// ns per Simulator schedule + pop of a no-op event.
[[nodiscard]] double event_ns();

/// us per TdmScheduler::run_pass with one request toggled before every pass,
/// so the quiescence memo cannot elide it.
[[nodiscard]] double sched_pass_us();

/// us per SlotOptimizer::solve (the re-optimization service's settings) on
/// the demand `workload` issues in its first service window.
[[nodiscard]] double solve_us(const pmx::Workload& workload);

}  // namespace perf
