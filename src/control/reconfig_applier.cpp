#include "control/reconfig_applier.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmx {

namespace {

/// Probation window after an apply, in TDM slots: goodput and auditor state
/// are watched for this long before the new tables are committed.
constexpr std::int64_t kProbationSlots = 32;

/// Rollback guard: if goodput delivered during probation drops below this
/// percentage of the pre-apply baseline window, the apply is rolled back to
/// the stashed tables.
constexpr std::uint64_t kGuardThresholdPct = 50;

}  // namespace

ReconfigApplier::ReconfigApplier(Simulator& sim, ControlFaultModel* ctrl,
                                 TimeNs slot_length, TimeNs wire_latency,
                                 Hooks hooks, ReoptStats& stats)
    : sim_(sim),
      ctrl_(ctrl),
      slot_length_(slot_length),
      wire_(wire_latency),
      hooks_(std::move(hooks)),
      stats_(stats) {
  PMX_CHECK(hooks_.apply && hooks_.capture && hooks_.delivered_bytes &&
                hooks_.violations,
            "reconfig applier needs all four hooks");
}

void ReconfigApplier::stage(SlotOptimizer::Proposal proposal,
                            TimeNs stage_latency,
                            std::uint64_t baseline_window_bytes,
                            TimeNs baseline_window,
                            std::uint64_t queued_bytes, bool chaos) {
  PMX_CHECK(state_ == State::kIdle, "staging while a reconfig is in flight");
  staged_ = std::move(proposal);
  stage_time_ = sim_.now();
  ++stats_.proposals;
  if (chaos) {
    ++stats_.chaos_proposals;
  }
  // Probation guard baseline: scale the last service window's goodput to
  // the probation length. Integral throughout; a truly idle baseline (zero
  // bytes delivered AND zero bytes queued) disarms the goodput guard for
  // this apply -- reconfiguring an idle fabric cannot dip what is not
  // flowing. A starved fabric is different: when traffic is queued but the
  // last window delivered nothing, the guard stays armed at a one-byte
  // floor so a probation that still moves nothing rolls back. Without the
  // floor, one wedged window would disarm the guard for the next apply and
  // a catastrophic table could pin itself in forever.
  const TimeNs probation = slot_length_ * kProbationSlots;
  expected_probation_bytes_ = 0;
  if (baseline_window > TimeNs::zero()) {
    expected_probation_bytes_ =
        baseline_window_bytes *
        static_cast<std::uint64_t>(probation.ns()) /
        static_cast<std::uint64_t>(baseline_window.ns());
  }
  if (expected_probation_bytes_ == 0 && queued_bytes > 0) {
    expected_probation_bytes_ = 1;
  }

  state_ = State::kStaged;
  const std::uint64_t gen = ++gen_;
  // The optimizer's apply command rides the same control wire as every
  // other control message: a lost command is a skipped reconfiguration,
  // retried naturally at the next service tick.
  if (!send_control(sim_, ctrl_, CtrlMsg::kReconfig, stage_latency + wire_,
                    [this, gen] { on_command_arrival(gen); })) {
    ++stats_.cmds_lost;
    state_ = State::kIdle;
  }
}

void ReconfigApplier::on_command_arrival(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kStaged) {
    return;
  }
  stashed_ = hooks_.capture();
  apply_time_ = sim_.now();
  stats_.invalidated_ctrl += hooks_.apply(staged_.tables, /*pinned=*/true);
  ++stats_.applies;
  stats_.apply_latency_ns.push_back((apply_time_ - stage_time_).ns());
  bytes_at_apply_ = hooks_.delivered_bytes();
  violations_at_apply_ = hooks_.violations();
  state_ = State::kProbation;
  sim_.schedule_after(slot_length_ * kProbationSlots,
                      [this, gen] { on_probation_end(gen); });
}

void ReconfigApplier::on_probation_end(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kProbation) {
    return;
  }
  const std::uint64_t delivered = hooks_.delivered_bytes() - bytes_at_apply_;
  const bool violated = hooks_.violations() > violations_at_apply_;
  // Goodput guard: delivered * 100 < expected * pct, all integral.
  const bool dipped =
      delivered * 100 < expected_probation_bytes_ * kGuardThresholdPct;
  if (violated || dipped) {
    // Roll back to the stashed pre-apply tables, unpinned: the reactive
    // path owns every slot again until the next solve earns trust. The
    // rollback command uses the lossless maintenance channel (like the A7
    // resync itself) -- an un-revertable bad table would be a wedge.
    stats_.invalidated_ctrl += hooks_.apply(stashed_, /*pinned=*/false);
    ++stats_.rollbacks;
    if (expected_probation_bytes_ > delivered) {
      stats_.dip_depth_bytes = std::max(stats_.dip_depth_bytes,
                                        expected_probation_bytes_ - delivered);
    }
    stats_.dip_duration_ns += (sim_.now() - apply_time_).ns();
  }
  state_ = State::kIdle;
  ++gen_;
}

}  // namespace pmx
