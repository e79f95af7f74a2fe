#include "fault/control_fault.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmx {

const char* to_string(CtrlMsg kind) {
  switch (kind) {
    case CtrlMsg::kRequest:
      return "request";
    case CtrlMsg::kGrant:
      return "grant";
    case CtrlMsg::kRelease:
      return "release";
    case CtrlMsg::kReconfig:
      return "reconfig";
  }
  return "unknown";
}

double ControlFaultParams::effective_loss(CtrlMsg kind) const {
  switch (kind) {
    case CtrlMsg::kGrant:
      return grant_loss < 0.0 ? loss : grant_loss;
    case CtrlMsg::kRelease:
      return release_loss < 0.0 ? loss : release_loss;
    case CtrlMsg::kReconfig:
      return reconfig_loss < 0.0 ? loss : reconfig_loss;
    case CtrlMsg::kRequest:
      break;
  }
  return loss;
}

void ControlFaultParams::validate(TimeNs slot_length) const {
  PMX_CHECK(loss >= 0.0 && loss <= 1.0,
            "control loss rate must be in [0, 1]");
  PMX_CHECK(corrupt >= 0.0 && corrupt <= 1.0,
            "control corruption rate must be in [0, 1]");
  PMX_CHECK(delay_rate >= 0.0 && delay_rate <= 1.0,
            "control delay rate must be in [0, 1]");
  PMX_CHECK(delay >= TimeNs::zero(), "negative control delay");
  PMX_CHECK(grant_loss <= 1.0, "grant loss rate must be <= 1");
  PMX_CHECK(release_loss <= 1.0, "release loss rate must be <= 1");
  PMX_CHECK(reconfig_loss <= 1.0, "reconfig loss rate must be <= 1");
  PMX_CHECK(watchdog_timeout > TimeNs::zero(),
            "grant watchdog timeout must be positive: a zero timeout would "
            "reissue every request in the same instant it was sent");
  PMX_CHECK(watchdog_cap >= watchdog_timeout,
            "watchdog backoff cap below the base timeout");
  PMX_CHECK(lease == TimeNs::zero() || lease >= slot_length,
            "scheduler lease shorter than one TDM slot would expire live "
            "connections between their own data slots (0 disables leases)");
}

ControlFaultModel::ControlFaultModel(Simulator& sim,
                                     const ControlFaultParams& params,
                                     TimeNs slot_length)
    : sim_(sim), params_(params), rng_(params.seed) {
  params_.validate(slot_length);
}

ControlFaultModel::Verdict ControlFaultModel::decide(CtrlMsg kind) {
  const auto k = static_cast<std::size_t>(kind);
  KindStats& st = stats_[k];
  ++st.sent;
  // Scripted overrides first; they never consume the RNG stream, so a test
  // can force one exact loss without perturbing the seeded timeline.
  if (forced_drops_[k] > 0) {
    --forced_drops_[k];
    ++st.dropped;
    return Verdict::kDrop;
  }
  if (forced_corrupts_[k] > 0) {
    --forced_corrupts_[k];
    ++st.corrupted;
    return Verdict::kCorrupt;
  }
  if (forced_delays_[k] > 0) {
    --forced_delays_[k];
    ++st.delayed;
    return Verdict::kDelay;
  }
  // Zero-rate draws consume no RNG: the force-enabled model with all rates
  // zero is bit-identical to no model at all.
  const double loss = params_.effective_loss(kind);
  if (loss > 0.0 && rng_.chance(loss)) {
    ++st.dropped;
    return Verdict::kDrop;
  }
  if (params_.corrupt > 0.0 && rng_.chance(params_.corrupt)) {
    ++st.corrupted;
    return Verdict::kCorrupt;
  }
  if (params_.delay_rate > 0.0 && rng_.chance(params_.delay_rate)) {
    ++st.delayed;
    return Verdict::kDelay;
  }
  return Verdict::kDeliver;
}

bool ControlFaultModel::send(CtrlMsg kind, TimeNs latency, EventFn deliver) {
  switch (decide(kind)) {
    case Verdict::kDeliver:
      sim_.schedule_after(latency, std::move(deliver));
      return true;
    case Verdict::kDelay:
      sim_.schedule_after(latency + params_.delay, std::move(deliver));
      return true;
    case Verdict::kDrop:
    case Verdict::kCorrupt:
      // A corrupted control message fails the receiver's check and is
      // discarded: behaviorally a drop, counted separately.
      return false;
  }
  return false;
}

bool send_control(Simulator& sim, ControlFaultModel* faults, CtrlMsg kind,
                  TimeNs latency, EventFn deliver) {
  if (faults != nullptr) {
    return faults->send(kind, latency, std::move(deliver));
  }
  sim.schedule_after(latency, std::move(deliver));
  return true;
}

void ControlFaultModel::force_drop(CtrlMsg kind, std::size_t n) {
  forced_drops_[static_cast<std::size_t>(kind)] += n;
}

void ControlFaultModel::force_corrupt(CtrlMsg kind, std::size_t n) {
  forced_corrupts_[static_cast<std::size_t>(kind)] += n;
}

void ControlFaultModel::force_delay(CtrlMsg kind, std::size_t n) {
  forced_delays_[static_cast<std::size_t>(kind)] += n;
}

TimeNs ControlFaultModel::watchdog_delay(std::size_t attempt) const {
  PMX_CHECK(attempt >= 1, "watchdog attempts are 1-based");
  std::int64_t d = params_.watchdog_timeout.ns();
  for (std::size_t i = 1; i < attempt && d < params_.watchdog_cap.ns(); ++i) {
    d *= 2;
  }
  return std::min(TimeNs{d}, params_.watchdog_cap);
}

std::uint64_t ControlFaultModel::total_sent() const {
  std::uint64_t total = 0;
  for (const KindStats& st : stats_) {
    total += st.sent;
  }
  return total;
}

std::uint64_t ControlFaultModel::total_dropped() const {
  std::uint64_t total = 0;
  for (const KindStats& st : stats_) {
    total += st.dropped;
  }
  return total;
}

std::uint64_t ControlFaultModel::total_corrupted() const {
  std::uint64_t total = 0;
  for (const KindStats& st : stats_) {
    total += st.corrupted;
  }
  return total;
}

std::uint64_t ControlFaultModel::total_delayed() const {
  std::uint64_t total = 0;
  for (const KindStats& st : stats_) {
    total += st.delayed;
  }
  return total;
}

}  // namespace pmx
