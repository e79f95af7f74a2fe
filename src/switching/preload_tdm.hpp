#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "compiled/plan.hpp"
#include "control/demand_estimator.hpp"
#include "sim/clock.hpp"
#include "switching/tdm_base.hpp"

namespace pmx {

/// Proactive (compiled-communication) multiplexed switching -- Section 3.1
/// applied to the Section 4 switch.
///
/// The whole workload is analyzed up front (compile/load time): each
/// barrier-delimited phase's working set W^(j) is decomposed into
/// conflict-free configurations. At run time no dynamic scheduling happens
/// at all; the network streams the precomputed configurations through the K
/// configuration registers, replacing a configuration as soon as its traffic
/// budget has drained (the compiler knows exactly how many bytes each
/// configuration will carry). Loading a register costs one scheduler pass
/// (80 ns), overlapped with traffic in the other slots. The NIC and its
/// request path are dynamic TDM's (TdmNetworkBase), without the grant line:
/// requests only steer which loaded configurations the rotation visits.
class PreloadTdmNetwork final : public TdmNetworkBase {
 public:
  PreloadTdmNetwork(Simulator& sim, const SystemParams& params,
                    CompiledPlan plan);

  [[nodiscard]] std::string name() const override { return "preload-tdm"; }

  [[nodiscard]] std::size_t current_phase() const { return phase_; }

 protected:
  /// Checks the message against the plan and counts it against its phase.
  void do_submit(const Message& msg) override;
  /// A retransmitted copy re-enters the NIC: its bytes are re-credited to
  /// the compiled configuration budget so the phase does not retire before
  /// the copy has actually crossed the fabric.
  void do_retransmit(const Message& msg) override;
  void on_message_settled(const Message& msg) override;
  /// A shed message's bytes will never cross the fabric, yet the compiled
  /// budget expects them: credit the configuration so the phase can retire.
  void on_message_shed(const Message& msg) override;

 private:
  void on_slot_tick();
  /// Load pending configurations of the current phase into free slots.
  void fill_free_slots();
  /// Demand-window roll tick (re-opt loop period): fold the VOQ backlog
  /// into the window, then roll the EWMA.
  void on_demand_roll();
  /// True when every configuration of the current phase has drained.
  [[nodiscard]] bool phase_drained() const;
  /// Move to the next phase once the current one drains.
  void maybe_advance_phase();

  CompiledPlan plan_;

  std::size_t phase_ = 0;
  std::vector<std::uint64_t> config_sent_;
  /// Bytes shed from not-yet-current phases, by [phase][config]: applied as
  /// starting credit when the phase is entered (lazily sized).
  std::vector<std::vector<std::uint64_t>> shed_credit_;
  /// Per-phase count of messages still inside the reliability state machine
  /// (fault layer only). A phase is held open until its count hits zero so
  /// retransmissions never cross a phase boundary.
  std::vector<std::uint64_t> phase_unsettled_;
  bool retransmitting_ = false;
  /// Which plan configuration each scheduler slot currently holds.
  std::vector<std::optional<std::size_t>> slot_config_;
  /// fill_free_slots' scratch, by configuration of the current phase: 1
  /// where some pending pair needs it. Reserved for the largest phase.
  std::vector<std::uint8_t> head_needed_;
  /// Consecutive slots with queued traffic but no transmission.
  std::uint64_t stall_slots_ = 0;

  /// Estimator stage of the re-optimization loop, when
  /// params.reopt.enabled(). Preloaded plans are immutable (the compiler
  /// owns the tables), so the estimator only ranks pending configurations:
  /// by smoothed measured demand instead of head-of-line bytes.
  std::unique_ptr<DemandEstimator> demand_;
  std::unique_ptr<Clock> demand_clock_;

  Clock slot_clock_;
};

}  // namespace pmx
