#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/time.hpp"
#include "control/demand_estimator.hpp"
#include "control/reconfig_applier.hpp"
#include "control/reopt_params.hpp"
#include "control/slot_optimizer.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace pmx {

/// The online slot-table re-optimization service loop (DESIGN.md §14):
/// DemandEstimator -> SlotOptimizer -> ReconfigApplier on one periodic
/// clock. Owned by a network paradigm, which supplies the fabric hooks; the
/// service itself never touches NIC or scheduler types directly, keeping
/// control/ below nic/ in the layer DAG.
///
/// Every tick: fold VOQ occupancy into the demand window, roll the EWMA,
/// and -- when no reconfiguration is already in flight -- solve for new
/// tables and stage them if they beat the live tables by the hysteresis
/// margin. The staged command crosses the (possibly lossy) control channel;
/// the applier watches a probation window and rolls back on goodput dips
/// or auditor violations.
class ReoptService {
 public:
  struct Hooks {
    ReconfigApplier::Hooks applier;
    /// Walk the current VOQ backlog: call the visitor once per (src, dst)
    /// pair with queued bytes. Required: every tick folds the backlog into
    /// the demand window.
    std::function<void(
        const std::function<void(NodeId, NodeId, std::uint64_t)>&)>
        visit_queues;
  };

  /// `ctrl` may be null (lossless maintenance channel).
  ReoptService(Simulator& sim, ControlFaultModel* ctrl,
               const ReoptParams& params, std::size_t num_nodes,
               std::size_t num_slots, TimeNs slot_length, TimeNs wire_latency,
               TimeNs scheduler_latency, Hooks hooks);

  /// Start the service clock (first tick one period from now).
  void start();

  /// Account delivered bytes for (u, v) in the current demand window
  /// (called by the owning network on every slot's transfers).
  void observe(NodeId u, NodeId v, std::uint64_t bytes) {
    estimator_.observe(u, v, bytes);
  }

  [[nodiscard]] const ReoptStats& stats() const { return stats_; }
  [[nodiscard]] const DemandEstimator& estimator() const { return estimator_; }
  [[nodiscard]] const ReconfigApplier& applier() const { return *applier_; }
  [[nodiscard]] TimeNs period() const { return clock_.period(); }

 private:
  void on_tick();

  Simulator& sim_;
  ReoptParams params_;
  std::size_t num_slots_;  ///< K registers; the optimizer plans over K-1
  TimeNs scheduler_latency_;
  Hooks hooks_;
  ReoptStats stats_;
  DemandEstimator estimator_;
  SlotOptimizer optimizer_;
  std::unique_ptr<ReconfigApplier> applier_;
  Clock clock_;
  std::uint64_t bytes_at_last_tick_ = 0;
  std::uint64_t last_window_bytes_ = 0;
  std::uint64_t proposal_counter_ = 0;  ///< chaos-hook cadence
};

}  // namespace pmx
