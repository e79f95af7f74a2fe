#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/message.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "fault/control_fault.hpp"
#include "sim/simulator.hpp"

namespace pmx {

/// Inputs of the request-vs-intent audit, all N x N: the scheduler's request
/// matrix R and established aggregate B*, and the control plane's bit rows
/// W (NIC wants), G (NIC believes granted), I (a request or grant in
/// flight) and A (grant watchdog armed).
struct RequestAuditInput {
  const BitMatrix& requests;     ///< R
  const BitMatrix& established;  ///< B*
  const BitMatrix& wants;        ///< W
  const BitMatrix& granted;      ///< G
  const BitMatrix& inflight;     ///< I
  const BitMatrix& armed;        ///< A
  bool grant_line = true;
  bool lease_active = false;
};

/// The request-vs-intent audit. For every pair u != v, in u then v order,
/// it appends at most three lines, in this order:
///   * leak -- R & ~W & ~I, only when no lease is active: the scheduler
///     serves a request the NIC abandoned and nothing will reap it;
///   * intent wedge -- W & ~R & ~I & ~A, masked by ~B* with a grant line:
///     the NIC waits on a request the scheduler never heard of;
///   * grant wedge -- W & B* & ~G & ~I & ~A, only with a grant line: the
///     connection is live but the grant reply was lost for good.
/// The word-parallel kernel evaluates the three predicates 64 pairs at a
/// time and builds a string only for a set bit.
void audit_requests_fast(const RequestAuditInput& in,
                         std::vector<std::string>& out);
/// Reference oracle: the same audit one pair at a time, kept for the
/// differential tests.
void audit_requests_ref(const RequestAuditInput& in,
                        std::vector<std::string>& out);

/// The NIC <-> TdmScheduler control endpoints under a lossy control channel.
///
/// With the control-fault layer off, a NIC's request bit R[u][v] is a wire
/// the scheduler reads instantly and losslessly (the seed model). With it
/// on, request/release updates and grant/revoke replies become messages on
/// a ControlWire through the ControlFaultModel, and the two ends keep
/// *views* that can diverge:
///   * NIC side  -- wants (the true intent, mirrors the VOQ), granted (the
///     NIC's belief about its connection), a per-pair grant watchdog that
///     reissues unacknowledged requests with exponential backoff;
///   * scheduler side -- the R matrix itself (owned by TdmScheduler) plus a
///     per-pair activity stamp backing the lease that auto-expires holds
///     whose release was lost.
///
/// The per-pair booleans the audit reads (wants, granted, in flight,
/// watchdog armed) are kept as bit rows beside the scheduler's R and B*, so
/// the audit is word-parallel; PairState keeps the counters, watchdog id and
/// lease stamp behind them.
///
/// One instance serves a whole network (state is per source-destination
/// pair); TdmNetwork models the grant line (data gated on `granted`),
/// PreloadTdmNetwork runs request/release only (grant_line = false --
/// preloaded configuration registers are written directly, so there is no
/// grant reply to lose).
class ControlPlane {
 public:
  struct Options {
    std::size_t num_nodes = 0;
    /// One-way NIC <-> scheduler control latency.
    TimeNs wire_latency{};
    /// Model scheduler -> NIC grant/revoke replies and track the NIC's
    /// granted-belief (dynamic TDM). Off, send_grant() is a no-op.
    bool grant_line = true;
  };

  /// Runs at the scheduler when a request (value=true) or release
  /// (value=false) message arrives.
  using ApplyRequestFn = std::function<void(NodeId, NodeId, bool)>;

  ControlPlane(Simulator& sim, ControlFaultModel& ctrl, const Options& options,
               CounterSet& counters, ApplyRequestFn apply);

  // --- NIC side ------------------------------------------------------------
  /// Raise intent for (u, v): sends a request message and arms the grant
  /// watchdog. Idempotent while intent is already raised.
  void want(NodeId u, NodeId v);
  /// Drop intent: sends a release message, disarms the watchdog. A lost
  /// release is healed scheduler-side by the lease.
  void unwant(NodeId u, NodeId v);
  [[nodiscard]] bool wants(NodeId u, NodeId v) const {
    return wants_.get(u, v);
  }
  /// The NIC's belief that the scheduler holds its connection. Always true
  /// when the grant line is not modeled.
  [[nodiscard]] bool granted(NodeId u, NodeId v) const {
    return !grant_line_ || granted_.get(u, v);
  }
  /// Data moved for (u, v): feeds the watchdog's progress detector so an
  /// active pair is never spuriously reissued.
  void note_progress(NodeId u, NodeId v);

  // --- Scheduler side ------------------------------------------------------
  /// Send a grant (value=true) or revoke (value=false) reply to the NIC.
  /// On revoke arrival the NIC re-requests immediately if it still wants
  /// the pair. No-op when the grant line is not modeled.
  void send_grant(NodeId u, NodeId v, bool value);
  /// Stamp scheduler-side activity for (u, v): request arrival,
  /// establishment, or data observed in a slot.
  void refresh_lease(NodeId u, NodeId v);
  /// True when healing leases are armed (heal && lease > 0).
  [[nodiscard]] bool lease_active() const { return wire_.lease_active(); }
  /// True when (u, v)'s activity stamp is older than the lease.
  [[nodiscard]] bool lease_expired(NodeId u, NodeId v) const;

  // --- Audit hooks ---------------------------------------------------------
  /// Control messages for (u, v) still in flight (scheduled deliveries).
  /// Reads the counters, not the I bit row, so tests can check one against
  /// the other.
  [[nodiscard]] bool inflight(NodeId u, NodeId v) const {
    const PairState& p = pair(u, v);
    return p.pending_request > 0 || p.pending_grant > 0;
  }
  /// Reads the watchdog's event id, not the A bit row.
  [[nodiscard]] bool watchdog_armed(NodeId u, NodeId v) const {
    return pair(u, v).watchdog != 0;
  }
  /// The request audit's inputs: the scheduler's R and B* beside this
  /// plane's bit rows and flags.
  [[nodiscard]] RequestAuditInput audit_input(
      const BitMatrix& requests, const BitMatrix& established) const;

  // --- Resync (auditor recovery mode) --------------------------------------
  /// Invalidate every in-flight control message and watchdog (epoch bump);
  /// callers then rebuild both views pair by pair via force_state(). Returns
  /// how many in-flight messages were invalidated (disruption accounting for
  /// the re-optimization service).
  std::size_t begin_resync();
  /// Current resync epoch of the control wire (wraparound-safe).
  [[nodiscard]] std::uint64_t epoch() const { return wire_.epoch(); }
  /// Test hook: jump the wire's epoch to an arbitrary value (e.g. near 2^64
  /// for wraparound soak tests). In-flight messages from the old epoch go
  /// stale, exactly as under begin_resync().
  void jump_epoch(std::uint64_t epoch) { wire_.jump_epoch(epoch); }
  /// Overwrite (u, v)'s state with ground truth: NIC intent and the
  /// scheduler's established bit. Re-arms the watchdog for wanted pairs and
  /// refreshes the lease.
  void force_state(NodeId u, NodeId v, bool wants, bool granted);

 private:
  struct PairState {
    /// Progress (data or a grant) observed since the watchdog last fired.
    bool progressed = false;
    std::uint32_t attempts = 1;
    std::uint32_t pending_request = 0;  ///< requests/releases in flight
    std::uint32_t pending_grant = 0;    ///< grants/revokes in flight
    EventId watchdog = 0;               ///< 0 = unarmed
    TimeNs lease_stamp{};
  };

  [[nodiscard]] PairState& pair(NodeId u, NodeId v) {
    return pairs_[u * n_ + v];
  }
  [[nodiscard]] const PairState& pair(NodeId u, NodeId v) const {
    return pairs_[u * n_ + v];
  }

  void send_request(NodeId u, NodeId v, bool value);
  /// Recompute (u, v)'s I bit after its pending counters changed.
  void sync_inflight(NodeId u, NodeId v);
  void arm_watchdog(NodeId u, NodeId v);
  void on_watchdog(NodeId u, NodeId v);

  Simulator& sim_;
  ControlFaultModel& ctrl_;
  std::size_t n_;
  TimeNs latency_;
  bool grant_line_;
  CounterSet& counters_;
  /// Carries every request, release, grant and revoke and the watchdogs;
  /// owns the resync epoch.
  ControlWire wire_;
  ApplyRequestFn apply_;
  std::vector<PairState> pairs_;
  BitMatrix wants_;     ///< W: the NIC's intent, mirrors its VOQ
  BitMatrix granted_;   ///< G: the NIC's granted-belief
  BitMatrix inflight_;  ///< I: pending_request + pending_grant > 0
  BitMatrix armed_;     ///< A: watchdog != 0
};

}  // namespace pmx
