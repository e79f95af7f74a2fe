#include "switching/reopt_loop.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "fault/control_fault.hpp"
#include "switching/tdm.hpp"

namespace pmx {

namespace {

/// Hysteresis: a proposal is staged only when its score exceeds the score
/// of the live tables (coverage under the same demand, zero change cost) by
/// at least this many demand units. Suppresses churn-for-churn.
constexpr std::int64_t kMinGain = 64;

/// Probation window after an apply, in TDM slots: goodput and auditor state
/// are watched for this long before the new tables are committed.
constexpr std::int64_t kProbationSlots = 32;

/// Rollback guard: if goodput delivered during probation drops below this
/// percentage of the pre-apply baseline window, the apply is rolled back to
/// the stashed tables.
constexpr std::uint64_t kGuardThresholdPct = 50;

}  // namespace

ReoptLoop::ReoptLoop(Simulator& sim, TdmNetwork& net)
    : sim_(sim),
      net_(net),
      estimator_(net.params().num_nodes, net.params().reopt.ewma_shift),
      // The optimizer plans over K-1 registers: the last register is never
      // pinned by a proposal, so the reactive path always has at least one
      // slot to establish connections the plan does not cover. Pinning all
      // K would lock uncovered (src, dst) pairs out of the fabric forever.
      optimizer_(SlotOptimizer::Options{net.params().num_nodes,
                                        net.params().mux_degree - 1,
                                        net.params().reopt.change_penalty,
                                        net.params().reopt.work_budget}),
      clock_(sim,
             net.params().slot_length *
                 static_cast<std::int64_t>(net.params().reopt.period_slots),
             [this] { on_tick(); }) {
  PMX_CHECK(net.params().reopt.enabled(),
            "reopt loop constructed while disabled");
  PMX_CHECK(net.params().mux_degree >= 2,
            "re-optimization needs at least two configuration registers "
            "(one always stays with the reactive scheduler)");
}

void ReoptLoop::start() { clock_.start(); }

std::vector<BitMatrix> ReoptLoop::live_tables() const {
  const TdmScheduler& sched = net_.scheduler();
  std::vector<BitMatrix> tables;
  tables.reserve(sched.num_slots());
  for (std::size_t s = 0; s < sched.num_slots(); ++s) {
    tables.push_back(sched.config(s));
  }
  return tables;
}

std::uint64_t ReoptLoop::violations() const {
  return net_.auditor() ? net_.auditor()->stats().violations : 0;
}

void ReoptLoop::on_tick() {
  // Close the demand window: the backlog fold comes first (starved pairs
  // are demand too: delivery counters alone would under-report exactly the
  // pairs the current table is failing), then the EWMA rolls. The backlog
  // total also arms the probation guard's starvation floor.
  const std::uint64_t queued = net_.fold_backlog(estimator_);
  estimator_.roll();

  const std::uint64_t delivered = net_.delivered_bytes();
  last_window_bytes_ = delivered - bytes_at_last_tick_;
  bytes_at_last_tick_ = delivered;

  if (state_ != State::kIdle) {
    // Bounded disruption: at most one reconfiguration in flight. The next
    // window's solve sees fresher demand anyway.
    return;
  }

  const std::vector<DemandEstimator::Demand> demand = estimator_.snapshot();
  if (demand.empty()) {
    return;
  }
  ++stats_.solves;
  const std::vector<BitMatrix> current = live_tables();
  SlotOptimizer::Proposal proposal = optimizer_.solve(demand, current);
  const TimeNs stage_latency =
      net_.params().scheduler_latency *
      static_cast<std::int64_t>(optimizer_.solve_passes(
          proposal.pairs_examined));

  const std::size_t n = estimator_.num_nodes();
  const std::size_t num_slots = net_.params().mux_degree;
  const std::size_t chaos_every = net_.params().reopt.chaos_empty_every;
  ++proposal_counter_;
  if (chaos_every > 0 && proposal_counter_ % chaos_every == 0) {
    // Poison proposal: every slot -- including the register normally
    // reserved for the reactive path -- pinned to a demandless full
    // permutation (u -> u+1 mod n). With skip-unrequested rotation the
    // fabric idles and the reactive path has no unpinned slot to recover
    // through -- exactly the catastrophic wrong-table case the probation
    // guard and rollback must catch.
    BitMatrix poison(n);
    for (NodeId u = 0; u < n; ++u) {
      poison.set(u, (u + 1) % n);
    }
    proposal.tables.assign(num_slots, poison);
  } else {
    // Hysteresis: only reconfigure when the proposal beats what the live
    // tables already cover by at least kMinGain demand units.
    const std::int64_t base = optimizer_.baseline_score(demand, current);
    if (proposal.score < base + kMinGain) {
      return;
    }
    // Pad to the full register count: the reserved last table is empty, so
    // the apply unloads that slot and hands it to the reactive scheduler.
    proposal.tables.resize(num_slots, BitMatrix(n));
  }
  stage(std::move(proposal.tables), stage_latency, queued);
}

void ReoptLoop::stage(std::vector<BitMatrix> tables, TimeNs stage_latency,
                      std::uint64_t queued_bytes) {
  staged_ = std::move(tables);
  stage_time_ = sim_.now();
  ++stats_.proposals;
  // Probation guard baseline: scale the last window's goodput to the
  // probation length. Integral throughout; a truly idle baseline (zero
  // bytes delivered AND zero bytes queued) disarms the goodput guard for
  // this apply -- reconfiguring an idle fabric cannot dip what is not
  // flowing. A starved fabric is different: when traffic is queued but the
  // last window delivered nothing, the guard stays armed at a one-byte
  // floor so a probation that still moves nothing rolls back. Without the
  // floor, one wedged window would disarm the guard for the next apply and
  // a catastrophic table could pin itself in forever.
  const TimeNs probation = net_.params().slot_length * kProbationSlots;
  expected_probation_bytes_ =
      last_window_bytes_ * static_cast<std::uint64_t>(probation.ns()) /
      static_cast<std::uint64_t>(clock_.period().ns());
  if (expected_probation_bytes_ == 0 && queued_bytes > 0) {
    expected_probation_bytes_ = 1;
  }

  state_ = State::kStaged;
  const std::uint64_t gen = ++gen_;
  // The apply command rides the same control wire as every other control
  // message: a lost command is a skipped reconfiguration, retried
  // naturally at the next tick.
  if (!send_control(sim_, net_.control_fault(), CtrlMsg::kReconfig,
                    stage_latency + net_.params().control_wire_latency(),
                    [this, gen] { on_command_arrival(gen); })) {
    ++stats_.cmds_lost;
    state_ = State::kIdle;
  }
}

void ReoptLoop::on_command_arrival(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kStaged) {
    return;
  }
  stashed_ = live_tables();
  apply_time_ = sim_.now();
  stats_.invalidated_ctrl += net_.apply_reopt(staged_, /*pinned=*/true);
  ++stats_.applies;
  stats_.apply_latency_ns.push_back((apply_time_ - stage_time_).ns());
  bytes_at_apply_ = net_.delivered_bytes();
  violations_at_apply_ = violations();
  state_ = State::kProbation;
  sim_.schedule_after(net_.params().slot_length * kProbationSlots,
                      [this, gen] { on_probation_end(gen); });
}

void ReoptLoop::on_probation_end(std::uint64_t gen) {
  if (gen != gen_ || state_ != State::kProbation) {
    return;
  }
  const std::uint64_t delivered = net_.delivered_bytes() - bytes_at_apply_;
  const bool violated = violations() > violations_at_apply_;
  // Goodput guard: delivered * 100 < expected * pct, all integral.
  const bool dipped =
      delivered * 100 < expected_probation_bytes_ * kGuardThresholdPct;
  if (violated || dipped) {
    // Roll back to the stashed pre-apply tables, unpinned: the reactive
    // path owns every slot again until the next solve earns trust. The
    // rollback command uses the lossless maintenance channel (like the A7
    // resync itself) -- an un-revertable bad table would be a wedge.
    stats_.invalidated_ctrl += net_.apply_reopt(stashed_, /*pinned=*/false);
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
