#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "control/reopt_params.hpp"
#include "control/slot_optimizer.hpp"
#include "sched/tdm_scheduler.hpp"
#include "sim/simulator.hpp"
#include "stage.hpp"
#include "switching/params.hpp"

namespace perf {

namespace {

constexpr std::size_t kNodes = 128;
constexpr std::size_t kSlots = 4;
constexpr int kReps = 7;
constexpr std::int64_t kRepNs = 20'000'000;

/// Median over kReps repetitions of host ns per operation. Each repetition
/// calls `batch` (which returns how many operations it ran) for kRepNs.
template <class Batch>
double median_ns_per_op(Batch&& batch) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    std::int64_t elapsed = 0;
    do {
      ops += batch();
      elapsed = ns_since(t0);
    } while (elapsed < kRepNs);
    per_op.push_back(static_cast<double>(elapsed) / static_cast<double>(ops));
  }
  std::ranges::sort(per_op);
  return per_op[per_op.size() / 2];
}

/// (src, dst) send bytes whose issue instant falls inside the first
/// `window` of the programs: what the service's first solve would see.
std::vector<pmx::DemandEstimator::Demand> first_window_demand(
    const pmx::Workload& workload, pmx::TimeNs window) {
  const std::size_t n = workload.num_nodes();
  std::vector<std::uint64_t> bytes(n * n, 0);
  for (pmx::NodeId u = 0; u < n; ++u) {
    pmx::TimeNs t = pmx::TimeNs::zero();
    for (const pmx::Command& cmd : workload.programs[u]) {
      if (cmd.kind == pmx::Command::Kind::kCompute) {
        t = t + cmd.delay;
      } else if (cmd.kind == pmx::Command::Kind::kSend && t < window) {
        bytes[u * n + cmd.dst] += cmd.bytes;
      }
    }
  }
  std::vector<pmx::DemandEstimator::Demand> demand;
  for (pmx::NodeId u = 0; u < n; ++u) {
    for (pmx::NodeId v = 0; v < n; ++v) {
      if (bytes[u * n + v] > 0) {
        demand.push_back({u, v, bytes[u * n + v]});
      }
    }
  }
  return demand;
}

}  // namespace

double event_ns() {
  pmx::Simulator sim;
  return median_ns_per_op([&sim] {
    constexpr std::int64_t kBatch = 512;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      sim.schedule_after(pmx::TimeNs{i % 97}, [] {});
    }
    sim.run();
    return static_cast<std::uint64_t>(kBatch);
  });
}

double sched_pass_us() {
  pmx::TdmScheduler::Options o;
  o.num_ports = kNodes;
  o.num_slots = kSlots;
  o.multi_slot_connections = true;
  o.skip_unrequested_slots = true;
  pmx::TdmScheduler sched(o);
  // A K=4 working set: every source requests its next four neighbours.
  for (std::size_t u = 0; u < kNodes; ++u) {
    for (std::size_t j = 1; j <= kSlots; ++j) {
      sched.set_request(u, (u + j) % kNodes, true);
    }
  }
  std::size_t next = 0;
  return median_ns_per_op([&] {
           constexpr std::uint64_t kBatch = 64;
           for (std::uint64_t i = 0; i < kBatch; ++i) {
             const std::size_t u = next++ % kNodes;
             const std::size_t v = (u + kSlots + 1) % kNodes;
             sched.set_request(u, v, !sched.request(u, v));
             (void)sched.run_pass();
           }
           return kBatch;
         }) /
         1e3;
}

double solve_us(const pmx::Workload& workload) {
  const pmx::ReoptParams reopt;
  pmx::SlotOptimizer::Options o;
  o.num_nodes = workload.num_nodes();
  o.num_slots = kSlots - 1;  // the service plans over K-1 registers
  o.change_penalty = reopt.change_penalty;
  o.work_budget = reopt.work_budget;
  const pmx::SlotOptimizer optimizer(o);
  const pmx::TimeNs window = pmx::SystemParams{}.slot_length * 16;
  const std::vector<pmx::DemandEstimator::Demand> demand =
      first_window_demand(workload, window);
  return median_ns_per_op([&] {
           (void)optimizer.solve(demand, {});
           return std::uint64_t{1};
         }) /
         1e3;
}

}  // namespace perf
