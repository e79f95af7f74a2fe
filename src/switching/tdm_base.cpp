#include "switching/tdm_base.hpp"

#include <utility>

#include "control/demand_estimator.hpp"

namespace pmx {

TdmNetworkBase::TdmNetworkBase(Simulator& sim, const SystemParams& params,
                               bool multi_slot, bool grant_line)
    : Network(sim, params),
      // Idle connections (held, or loaded ahead of their traffic) cost no
      // slot time: the TDM counter skips slots nobody requests.
      sched_(TdmScheduler::Options{.num_ports = params.num_nodes,
                                   .num_slots = params.mux_degree,
                                   .multi_slot_connections = multi_slot,
                                   .skip_unrequested_slots = true}),
      voqs_(params.num_nodes, VoqSet(params.num_nodes)) {
  if (control_faulty()) {
    plane_ = std::make_unique<ControlPlane>(
        sim, *control_fault(),
        ControlPlane::Options{.num_nodes = params.num_nodes,
                              .wire_latency = params.control_wire_latency(),
                              .grant_line = grant_line},
        counters(),
        [this](NodeId u, NodeId v, bool value) { apply_request(u, v, value); });
  }
}

std::uint64_t TdmNetworkBase::queued_bytes() const {
  std::uint64_t total = 0;
  for (const auto& voq : voqs_) {
    total += voq.total_bytes();
  }
  return total;
}

void TdmNetworkBase::do_submit(const Message& msg) {
  voqs_[msg.src].push(msg);
  if (plane_) {
    plane_->want(msg.src, msg.dst);
  } else {
    sched_.set_request(msg.src, msg.dst, true);
  }
}

void TdmNetworkBase::drop_request(NodeId u, NodeId v) {
  if (plane_) {
    // The release crosses the lossy control channel; R[u][v] clears on
    // arrival (or by lease expiry if the message is lost).
    plane_->unwant(u, v);
  } else {
    sched_.set_request(u, v, false);
  }
}

std::optional<Message> TdmNetworkBase::remove_shed_victim(NodeId src,
                                                          bool oldest,
                                                          TimeNs cutoff) {
  auto victim = voqs_[src].evict(oldest, cutoff, std::nullopt);
  if (victim.has_value() && voqs_[src].empty(victim->dst)) {
    // The eviction drained the VOQ: withdraw the request exactly like the
    // slot-drain path does, or the scheduler would keep a slot established
    // for traffic that no longer exists.
    drop_request(src, victim->dst);
  }
  return victim;
}

std::uint64_t TdmNetworkBase::transmit(NodeId u, NodeId v,
                                       std::uint64_t budget,
                                       TimeNs slot_start,
                                       std::optional<std::size_t> phase) {
  std::uint64_t sent = 0;
  while (budget > 0 && !voqs_[u].empty(v)) {
    if (phase.has_value() && voqs_[u].head(v).phase != *phase) {
      break;
    }
    Message completed;
    const std::uint64_t taken = voqs_[u].consume(v, budget, &completed);
    budget -= taken;
    sent += taken;
    if (completed.id != 0) {
      // Last byte of this message leaves the NIC `sent` bytes into the
      // slot's data window; it lands after the passive-fabric pipe plus the
      // receive NIC cycle.
      const TimeNs done = slot_start + link_.serialization(sent);
      notify_send_done(completed, done);
      notify_delivered(
          completed, done,
          done + params_.passive_path_latency() + params_.nic_cycle);
    }
  }
  if (plane_ && sent > 0) {
    plane_->note_progress(u, v);
    plane_->refresh_lease(u, v);
  }
  if (voqs_[u].empty(v)) {
    drop_request(u, v);
  }
  return sent;
}

void TdmNetworkBase::apply_request(NodeId u, NodeId v, bool value) {
  if (!value) {
    sched_.set_request(u, v, false);
    return;
  }
  plane_->refresh_lease(u, v);
  sched_.set_request(u, v, true);
  if (sched_.is_established(u, v)) {
    // Duplicate request on a live connection (watchdog reissue after a lost
    // grant): re-acknowledge so the NIC's granted-belief converges. A no-op
    // without a grant line.
    plane_->send_grant(u, v, true);
  }
}

void TdmNetworkBase::lease_scan() {
  if (!plane_) {
    return;
  }
  const BitMatrix& requests = sched_.requests();
  std::vector<std::pair<NodeId, NodeId>> expired;
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    requests.row(u).for_each_set([&](std::size_t v) {
      if (plane_->lease_expired(u, v)) {
        expired.emplace_back(u, v);
      }
    });
  }
  for (const auto& [u, v] : expired) {
    // The NIC has been silent on (u, v) longer than the lease: its release
    // message was lost. Drop the stale request bit (the next SL pass over
    // the slot releases the connection) and tell the NIC; a NIC that still
    // wants the pair re-requests on revoke arrival.
    counters().counter("lease_expiries") += 1;
    sched_.set_request(u, v, false);
    plane_->send_grant(u, v, false);
  }
}

void TdmNetworkBase::audit_control(std::vector<std::string>& out) {
  sched_.audit_invariants(out);
  audit_requests(out);
}

void TdmNetworkBase::audit_requests(std::vector<std::string>& out) const {
  if (plane_) {
    audit_requests_fast(
        plane_->audit_input(sched_.requests(), sched_.established()), out);
  }
}

std::size_t TdmNetworkBase::resync_views() {
  // Full out-of-band state exchange: both views are rebuilt from ground
  // truth (the VOQ occupancy on the NIC side, B* on the scheduler side).
  // Resync is lossless by construction -- it models a maintenance channel,
  // not the lossy request/grant wires.
  const std::size_t invalidated = plane_ ? plane_->begin_resync() : 0;
  const std::size_t n = params_.num_nodes;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) {
        continue;
      }
      const bool truth = !voqs_[u].empty(v);
      if (plane_) {
        plane_->force_state(u, v, truth, sched_.is_established(u, v));
      }
      sched_.set_request(u, v, truth);
    }
  }
  return invalidated;
}

std::uint64_t TdmNetworkBase::fold_backlog(DemandEstimator& estimator) const {
  std::uint64_t queued = 0;
  for (NodeId u = 0; u < params_.num_nodes; ++u) {
    voqs_[u].pending().for_each_set([&](std::size_t v) {
      const std::uint64_t bytes = voqs_[u].bytes(static_cast<NodeId>(v));
      queued += bytes;
      estimator.observe(u, static_cast<NodeId>(v), bytes);
    });
  }
  return queued;
}

void TdmNetworkBase::resync_control() {
  if (plane_) {
    resync_views();
  }
}

}  // namespace pmx
