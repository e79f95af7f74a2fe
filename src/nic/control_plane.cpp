#include "nic/control_plane.hpp"

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace pmx {

namespace {

/// Formats one pair's findings, in the audit's fixed order.
void report_pair(std::size_t u, std::size_t v, bool leak, bool intent,
                 bool grant, bool grant_line, std::vector<std::string>& out) {
  if (leak) {
    out.push_back("leaked request (" + std::to_string(u) + " -> " +
                  std::to_string(v) +
                  "): scheduler holds R for a NIC that dropped it");
  }
  if (intent) {
    out.push_back("wedged NIC (" + std::to_string(u) + " -> " +
                  std::to_string(v) + "): intent raised but no request" +
                  (grant_line ? ", grant," : "") + " or watchdog pending");
  }
  if (grant) {
    out.push_back("wedged NIC (" + std::to_string(u) + " -> " +
                  std::to_string(v) +
                  "): connection established but the grant was lost");
  }
}

void check_audit_shape(const RequestAuditInput& in) {
  const std::size_t n = in.requests.size();
  PMX_CHECK(in.established.size() == n && in.wants.size() == n &&
                in.granted.size() == n && in.inflight.size() == n &&
                in.armed.size() == n,
            "request audit matrix size mismatch");
}

}  // namespace

void audit_requests_ref(const RequestAuditInput& in,
                        std::vector<std::string>& out) {
  check_audit_shape(in);
  const std::size_t n = in.requests.size();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) {
        continue;
      }
      const bool r = in.requests.get(u, v);
      const bool wants = in.wants.get(u, v);
      const bool established = in.established.get(u, v);
      const bool granted = !in.grant_line || in.granted.get(u, v);
      const bool inflight = in.inflight.get(u, v);
      const bool armed = in.armed.get(u, v);
      // Leak: the scheduler serves a request the NIC abandoned, no release
      // is in flight, and no lease will ever reap it.
      const bool leak = r && !wants && !inflight && !in.lease_active;
      // With a grant line an established connection still moves data, so
      // a lost request bit does not wedge it. Without one, skip-unrequested
      // rotation passes the pair's configuration by forever.
      const bool intent = wants && !r && !(in.grant_line && established) &&
                          !inflight && !armed;
      // The connection is live but the grant reply was lost and nothing
      // will ever re-deliver it -- the slot burns idle grants.
      const bool grant =
          wants && established && !granted && !inflight && !armed;
      report_pair(u, v, leak, intent, grant, in.grant_line, out);
    }
  }
}

// pmx-hot
void audit_requests_fast(const RequestAuditInput& in,
                         std::vector<std::string>& out) {
  check_audit_shape(in);
  const std::size_t n = in.requests.size();
  const std::uint64_t no_lease = in.lease_active ? 0 : ~std::uint64_t{0};
  const std::uint64_t line = in.grant_line ? ~std::uint64_t{0} : 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto r = in.requests.row(u).words();
    const auto b = in.established.row(u).words();
    const auto w = in.wants.row(u).words();
    const auto g = in.granted.row(u).words();
    const auto i = in.inflight.row(u).words();
    const auto a = in.armed.row(u).words();
    for (std::size_t wi = 0; wi < r.size(); ++wi) {
      // Every term starts from a row's own word, whose bits past N are
      // zero, so the complements never reach past the matrix.
      const std::uint64_t quiet = ~i[wi] & ~a[wi];
      const std::uint64_t leak = r[wi] & ~w[wi] & ~i[wi] & no_lease;
      const std::uint64_t intent = w[wi] & ~r[wi] & quiet & ~(b[wi] & line);
      const std::uint64_t grant = w[wi] & b[wi] & ~g[wi] & quiet & line;
      std::uint64_t hits = leak | intent | grant;
      if ((u >> 6) == wi) {
        hits &= ~(std::uint64_t{1} << (u & 63));  // the diagonal never reports
      }
      for (; hits != 0; hits &= hits - 1) {
        const int bit = std::countr_zero(hits);
        report_pair(u, (wi << 6) + static_cast<std::size_t>(bit),
                    ((leak >> bit) & 1U) != 0, ((intent >> bit) & 1U) != 0,
                    ((grant >> bit) & 1U) != 0, in.grant_line, out);
      }
    }
  }
}

ControlPlane::ControlPlane(Simulator& sim, ControlFaultModel& ctrl,
                           const Options& options, CounterSet& counters,
                           ApplyRequestFn apply)
    : sim_(sim),
      ctrl_(ctrl),
      n_(options.num_nodes),
      latency_(options.wire_latency),
      grant_line_(options.grant_line),
      counters_(counters),
      wire_(sim, &ctrl, counters),
      apply_(std::move(apply)),
      pairs_(options.num_nodes * options.num_nodes),
      wants_(options.num_nodes),
      granted_(options.num_nodes),
      inflight_(options.num_nodes),
      armed_(options.num_nodes) {
  PMX_CHECK(n_ >= 2, "control plane needs at least two nodes");
  PMX_CHECK(latency_ >= TimeNs::zero(), "negative control wire latency");
  PMX_CHECK(apply_ != nullptr, "control plane needs an apply hook");
}

void ControlPlane::want(NodeId u, NodeId v) {
  PairState& p = pair(u, v);
  if (wants_.get(u, v)) {
    return;
  }
  wants_.set(u, v);
  p.attempts = 1;
  p.progressed = false;
  send_request(u, v, true);
  if (wire_.healing()) {
    arm_watchdog(u, v);
  }
}

void ControlPlane::unwant(NodeId u, NodeId v) {
  PairState& p = pair(u, v);
  if (!wants_.get(u, v)) {
    return;
  }
  wants_.set(u, v, false);
  p.attempts = 1;
  if (p.watchdog != 0) {
    sim_.cancel(p.watchdog);
    p.watchdog = 0;
    armed_.set(u, v, false);
  }
  send_request(u, v, false);
}

void ControlPlane::note_progress(NodeId u, NodeId v) {
  pair(u, v).progressed = true;
}

void ControlPlane::send_request(NodeId u, NodeId v, bool value) {
  const CtrlMsg kind = value ? CtrlMsg::kRequest : CtrlMsg::kRelease;
  if (wire_.send(kind, latency_, &pair(u, v).pending_request,
                 [this, u, v, value] {
                   sync_inflight(u, v);
                   apply_(u, v, value);
                 })) {
    sync_inflight(u, v);
  }
}

void ControlPlane::sync_inflight(NodeId u, NodeId v) {
  const PairState& p = pair(u, v);
  inflight_.set(u, v, p.pending_request + p.pending_grant > 0);
}

void ControlPlane::arm_watchdog(NodeId u, NodeId v) {
  PairState& p = pair(u, v);
  p.watchdog = wire_.arm(ctrl_.watchdog_delay(p.attempts),
                         [this, u, v] { on_watchdog(u, v); });
  armed_.set(u, v);
}

void ControlPlane::on_watchdog(NodeId u, NodeId v) {
  PairState& p = pair(u, v);
  p.watchdog = 0;
  armed_.set(u, v, false);
  if (!wants_.get(u, v)) {
    return;
  }
  if (p.progressed) {
    // The pair made progress (grant arrived or data flowed) since the last
    // check: the request evidently got through. Reset the backoff.
    p.progressed = false;
    p.attempts = 1;
    arm_watchdog(u, v);
    return;
  }
  // No evidence the scheduler ever heard us: reissue with backoff. Safe
  // when the original was merely delayed -- a duplicate request on an
  // established pair just refreshes its lease.
  ++p.attempts;
  counters_.counter("ctrl_rerequests") += 1;
  send_request(u, v, true);
  arm_watchdog(u, v);
}

void ControlPlane::send_grant(NodeId u, NodeId v, bool value) {
  if (!grant_line_) {
    return;
  }
  if (wire_.send(CtrlMsg::kGrant, latency_, &pair(u, v).pending_grant,
                 [this, u, v, value] {
                   sync_inflight(u, v);
                   granted_.set(u, v, value);
                   if (value) {
                     pair(u, v).progressed = true;
                     return;
                   }
                   if (wants_.get(u, v)) {
                     // Revoked while traffic is still queued (lease expiry
                     // racing new demand, or a predictor release):
                     // re-request immediately.
                     counters_.counter("ctrl_rerequests") += 1;
                     send_request(u, v, true);
                   }
                 })) {
    sync_inflight(u, v);
  }
}

void ControlPlane::refresh_lease(NodeId u, NodeId v) {
  pair(u, v).lease_stamp = sim_.now();
}

RequestAuditInput ControlPlane::audit_input(
    const BitMatrix& requests, const BitMatrix& established) const {
  return RequestAuditInput{.requests = requests,
                           .established = established,
                           .wants = wants_,
                           .granted = granted_,
                           .inflight = inflight_,
                           .armed = armed_,
                           .grant_line = grant_line_,
                           .lease_active = lease_active()};
}

bool ControlPlane::lease_expired(NodeId u, NodeId v) const {
  if (!lease_active()) {
    return false;
  }
  return sim_.now() - pair(u, v).lease_stamp >= ctrl_.params().lease;
}

std::size_t ControlPlane::begin_resync() {
  wire_.bump_epoch();
  std::size_t invalidated = 0;
  for (PairState& p : pairs_) {
    if (p.watchdog != 0) {
      sim_.cancel(p.watchdog);
      p.watchdog = 0;
    }
    invalidated += p.pending_request + p.pending_grant;
    p.pending_request = 0;
    p.pending_grant = 0;
    p.attempts = 1;
    p.progressed = false;
  }
  inflight_.reset();
  armed_.reset();
  return invalidated;
}

void ControlPlane::force_state(NodeId u, NodeId v, bool wants, bool granted) {
  PairState& p = pair(u, v);
  wants_.set(u, v, wants);
  granted_.set(u, v, granted);
  p.lease_stamp = sim_.now();
  if (wants && wire_.healing()) {
    arm_watchdog(u, v);
  }
}

}  // namespace pmx
