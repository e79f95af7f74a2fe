#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "traffic/program.hpp"

namespace perf {

/// The benchmark seed whose point sets use the canonical simulation seeds
/// of the originating benches; only on it are points checked against the
/// committed fingerprints in expected/.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One simulation point: a run configuration plus the generator of its
/// workload. Generation is part of the timed set-up, so a pass calls the
/// generator again for every point instead of caching the workload.
struct Point {
  std::string label;
  pmx::RunConfig config;
  std::function<pmx::Workload()> make_workload;
};

/// The benchmark's workload names, in reporting order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The point set of workload `name` under benchmark seed `seed`; empty when
/// `name` is not a workload.
[[nodiscard]] std::vector<Point> make_points(const std::string& name,
                                             std::uint64_t seed);

}  // namespace perf
