#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "switching/network.hpp"

namespace pmx {

/// Circuit-switched baseline (Section 5): TDM with a multiplexing degree of
/// one, re-establishing a dedicated pipe per message.
///
/// Timing model, straight from the paper:
///  * establishment: 80 ns cable delay to send the request + 80 ns to
///    schedule it + 80 ns to send the grant back;
///  * data then flows at full line rate over the LVDS fabric with a
///    30+20+20+30 ns point-to-point head latency;
///  * contended requests queue FIFO at the scheduler per output port and are
///    granted when the holder's circuit is torn down (teardown notice costs
///    one more 80 ns control-wire delay).
///
/// The request, grant and teardown messages cross one ControlWire, lossy
/// channel or not; only the watchdog, the lease, the audit and the resync
/// belong to the lossy layer.
///
/// `hold_circuits` keeps a circuit up after its message completes and reuses
/// it if the very next message from that source has the same destination --
/// the "established connections are repeatedly used" regime of Section 1.
class CircuitNetwork final : public Network {
 public:
  struct Options {
    bool hold_circuits = false;
  };

  CircuitNetwork(Simulator& sim, const SystemParams& params);
  CircuitNetwork(Simulator& sim, const SystemParams& params,
                 const Options& options);

  [[nodiscard]] std::string name() const override { return "circuit"; }

 protected:
  void do_submit(const Message& msg) override;
  void audit_control(std::vector<std::string>& out) override;
  void resync_control() override;
  [[nodiscard]] std::uint64_t source_queue_bytes(NodeId src) const override {
    return sources_[src].fifo_bytes;
  }
  [[nodiscard]] std::size_t source_queue_msgs(NodeId src) const override {
    return sources_[src].fifo.size();
  }
  /// Per-source FIFO order is submit order, so the oldest victim is the
  /// front and the youngest the back; the active (in-service) message has
  /// a circuit established or establishing for it and is never shed.
  std::optional<Message> remove_shed_victim(NodeId src, bool oldest,
                                            TimeNs cutoff) override;

 private:
  struct SourceState {
    std::deque<Message> fifo;
    std::uint64_t fifo_bytes = 0;  ///< queued payload (excludes active)
    bool busy = false;
    Message active;
    /// Destination of a circuit this source still holds (hold_circuits).
    std::optional<NodeId> held_circuit;
    /// Head message waits for this NIC's own dead cable to be repaired.
    bool waiting_repair = false;
    // --- Handshake (both modes) -------------------------------------------
    /// Request sent, grant not yet received (the NIC is blocked on it).
    bool waiting_grant = false;
    std::uint32_t pending_request = 0;   ///< request messages in flight
    std::uint32_t pending_grant = 0;     ///< grant messages in flight
    // --- Healing only (read by the watchdog) -------------------------------
    std::size_t attempts = 1;            ///< watchdog backoff level
    EventId watchdog = 0;                ///< 0 = unarmed
  };

  struct OutputState {
    bool busy = false;
    std::deque<NodeId> waiters;
    // --- Handshake (both modes) -------------------------------------------
    /// Source the scheduler granted this output to.
    std::optional<NodeId> holder;
    std::uint32_t pending_release = 0;   ///< release messages in flight
    // --- Healing only (read by the lease) ---------------------------------
    TimeNs last_activity{};              ///< backs the idle-hold lease
    std::uint64_t lease_seq = 0;         ///< invalidates stale lease checks
  };

  void start_next_message(NodeId src);
  /// A request for `dst` reaches the scheduler. `dst` is the destination
  /// the request was sent for, so a delayed duplicate cannot grab an output
  /// the source no longer wants.
  void request_arrived(NodeId src, NodeId dst);
  /// Allocate output `out` to `src` and send the grant.
  void grant_to(NodeId out, NodeId src);
  /// The grant for `dst` reached the NIC; transmit the message.
  void grant_arrived(NodeId src, NodeId dst);
  /// Transmit the active message over the dedicated pipe.
  void transmit(NodeId src);
  /// Source finished transmitting; tear down or hold the circuit.
  void send_complete(NodeId src);
  /// Teardown notice reached the scheduler: free the port, serve waiters.
  void release_output(NodeId out);
  /// Free the output and serve the next waiter (shared tail of release and
  /// lease expiry).
  void free_output(NodeId out);
  /// Park `src` in `out`'s FIFO waiter queue. Idempotent: a source that is
  /// already parked (a retransmitted or resync-replayed request) keeps its
  /// original slot and the call returns false. Capacity is enforced: every
  /// source occupies at most one slot across the whole scheduler, so no
  /// waiter list can exceed `num_nodes`; the check turns a future protocol
  /// change that breaks that bound into a loud failure instead of silent
  /// queue growth.
  bool enqueue_waiter(NodeId out, NodeId src);
  /// Fault reaction: poison in-flight transfers, drop held circuits on the
  /// dead link, resume stalled sources/waiters on repair.
  void on_link_change(NodeId node, bool up);

  // --- Control messages, all through wire_ --------------------------------
  void send_request(NodeId src, NodeId dst, TimeNs latency);
  void send_grant(NodeId src, NodeId dst);
  /// Send a teardown notice for output `out`.
  void send_release(NodeId out);

  // --- Healing (lossy channel only) ---------------------------------------
  void arm_watchdog(NodeId src);
  void on_watchdog(NodeId src);
  /// Arm (or re-arm) the idle-hold lease on output `out`.
  void arm_lease(NodeId out);
  void lease_check(NodeId out, std::uint64_t seq);

  Options options_;
  std::vector<SourceState> sources_;
  std::vector<OutputState> outputs_;
  /// Carries every request, grant, revoke and teardown notice and the
  /// watchdogs; resync_control() bumps its epoch.
  ControlWire wire_;
  // Per-request counters bump through slots, with no name lookup.
  CounterSet::Slot circuits_established_slot_{"circuits_established"};
  CounterSet::Slot circuit_waits_slot_{"circuit_waits"};
};

}  // namespace pmx
