#pragma once

#include <cstdint>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/message.hpp"
#include "common/time.hpp"
#include "control/demand_estimator.hpp"
#include "control/slot_optimizer.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace pmx {

class TdmNetwork;

/// Disruption ledger of the re-optimization loop, surfaced via RunMetrics.
/// All accounting is integral; percentiles are computed at metrics time.
struct ReoptStats {
  std::uint64_t solves = 0;            ///< ticks that ran the solver
  std::uint64_t proposals = 0;         ///< proposals staged (incl. chaos)
  std::uint64_t cmds_lost = 0;         ///< reconfig commands lost in transit
  std::uint64_t applies = 0;           ///< proposals applied to the fabric
  std::uint64_t rollbacks = 0;         ///< applies reverted by the guard
  std::uint64_t invalidated_ctrl = 0;  ///< in-flight ctrl msgs invalidated
                                       ///< by apply/rollback resyncs
  /// Stage-to-apply latency of every applied proposal, in ns.
  std::vector<std::int64_t> apply_latency_ns;
  /// Worst probation shortfall: baseline-expected bytes minus bytes
  /// actually delivered, over the probations that rolled back.
  std::uint64_t dip_depth_bytes = 0;
  /// Total time spent inside probation windows that ended in rollback.
  std::int64_t dip_duration_ns = 0;
};

/// The online slot-table re-optimization loop of dynamic TDM (DESIGN.md
/// §14): DemandEstimator -> SlotOptimizer -> staged, probed apply on one
/// periodic clock. It drives its TdmNetwork directly: it reads the live
/// configuration registers, delivered bytes and auditor violations, and
/// writes new tables through TdmNetwork::apply_reopt.
///
/// Every tick folds VOQ backlog into the demand window, rolls the EWMA
/// and -- when no reconfiguration is in flight -- solves for new tables,
/// staging them if they beat the live tables by the hysteresis margin.
///
/// State machine: Idle -> Staged (reconfig command in flight on the
/// control wire) -> Probation (new tables live, goodput and auditor
/// watched) -> Idle, by commit or by rollback to the stashed pre-apply
/// tables. At most one proposal is ever in flight, which bounds disruption
/// to one reconfiguration per probation window.
class ReoptLoop {
 public:
  /// Needs params.reopt enabled and at least two configuration registers.
  ReoptLoop(Simulator& sim, TdmNetwork& net);

  /// Start the loop clock (first tick now, then every period).
  void start();

  /// Account delivered bytes for (u, v) in the current demand window
  /// (called by the network on every slot's transfers).
  void observe(NodeId u, NodeId v, std::uint64_t bytes) {
    estimator_.observe(u, v, bytes);
  }

  [[nodiscard]] const ReoptStats& stats() const { return stats_; }

 private:
  enum class State : std::uint8_t { kIdle, kStaged, kProbation };

  void on_tick();
  /// Send the reconfig command for `tables` after `stage_latency` (the
  /// budgeted solve cost) plus the wire; `queued_bytes` (the backlog at
  /// stage time) keeps the probation guard armed on a starved fabric.
  void stage(std::vector<BitMatrix> tables, TimeNs stage_latency,
             std::uint64_t queued_bytes);
  void on_command_arrival(std::uint64_t gen);
  void on_probation_end(std::uint64_t gen);
  /// The live configuration registers, one table per slot.
  [[nodiscard]] std::vector<BitMatrix> live_tables() const;
  /// Monotonic count of auditor violations (0 when there is no auditor).
  [[nodiscard]] std::uint64_t violations() const;

  Simulator& sim_;
  TdmNetwork& net_;
  ReoptStats stats_;
  DemandEstimator estimator_;
  SlotOptimizer optimizer_;
  Clock clock_;
  std::uint64_t bytes_at_last_tick_ = 0;
  std::uint64_t last_window_bytes_ = 0;
  std::uint64_t proposal_counter_ = 0;  ///< chaos cadence

  State state_ = State::kIdle;
  /// Generation guard for the in-flight command and probation-end events;
  /// bumped whenever the state machine resets (equality-compared, like the
  /// ControlPlane epoch, so wraparound is harmless).
  std::uint64_t gen_ = 0;
  std::vector<BitMatrix> staged_;   ///< tables the command will apply
  std::vector<BitMatrix> stashed_;  ///< pre-apply tables for rollback
  TimeNs stage_time_{};
  std::uint64_t expected_probation_bytes_ = 0;
  TimeNs apply_time_{};
  std::uint64_t bytes_at_apply_ = 0;
  std::uint64_t violations_at_apply_ = 0;
};

}  // namespace pmx
