#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nic/control_plane.hpp"
#include "nic/voq.hpp"
#include "sched/tdm_scheduler.hpp"
#include "switching/network.hpp"

namespace pmx {

class DemandEstimator;

/// The NIC and request path shared by reactive TDM (Section 4) and compiled
/// preloading (Section 3.1, Section 4 extension 5): one VOQ set per source,
/// whose non-empty bitmap is the request matrix R of one TdmScheduler. R is
/// a lossless wire, or -- with the control-fault layer on -- requests and
/// releases cross a lossy ControlPlane healed by watchdog, lease and the
/// auditor's resync. Paradigms differ only in how configurations reach the
/// K registers and in what each slot tick does.
class TdmNetworkBase : public Network {
 public:
  [[nodiscard]] const TdmScheduler& scheduler() const { return sched_; }
  /// NIC-side control-plane endpoints; non-null only with a lossy control
  /// channel. Mutable access is for the epoch wraparound soak tests.
  [[nodiscard]] ControlPlane* control_plane() { return plane_.get(); }
  /// Pending bytes still queued in the VOQs (for drain checks in tests).
  [[nodiscard]] std::uint64_t queued_bytes() const;

 protected:
  /// `multi_slot`: Section 4 extension 2. `grant_line`: model the
  /// scheduler's grant/revoke replies (dynamic TDM); preloaded registers are
  /// written out of band, so there is no grant to lose.
  TdmNetworkBase(Simulator& sim, const SystemParams& params, bool multi_slot,
                 bool grant_line);

  /// Queue the message and raise its request.
  void do_submit(const Message& msg) override;
  void audit_control(std::vector<std::string>& out) override;
  void resync_control() override;
  [[nodiscard]] std::uint64_t source_queue_bytes(NodeId src) const override {
    return voqs_[src].total_bytes();
  }
  [[nodiscard]] std::size_t source_queue_msgs(NodeId src) const override {
    return voqs_[src].total_depth();
  }
  std::optional<Message> remove_shed_victim(NodeId src, bool oldest,
                                            TimeNs cutoff) override;

  /// Move up to `budget` bytes of (u, v)'s VOQ through the active
  /// connection from `slot_start`, firing send-done and delivery for every
  /// message finished. With `phase` set, a head message of another phase
  /// stops the transfer. A drained VOQ drops its request. Returns the bytes
  /// moved.
  std::uint64_t transmit(NodeId u, NodeId v, std::uint64_t budget,
                         TimeNs slot_start,
                         std::optional<std::size_t> phase = std::nullopt);
  /// Lossy channel only: report requests the NIC abandoned that nothing
  /// will reap, and intents the scheduler never heard of that nothing will
  /// re-send (audit_requests_fast over R, B* and the plane's bit rows).
  void audit_requests(std::vector<std::string>& out) const;
  /// Lossy channel only: clear request bits whose NIC has been silent
  /// longer than the lease (the release was lost) and revoke their grants.
  void lease_scan();
  /// Rebuild the NIC and scheduler request views from ground truth (VOQ
  /// occupancy / B*). Returns the number of in-flight control messages the
  /// epoch bump invalidated (0 without a lossy control plane).
  std::size_t resync_views();
  /// Fold the VOQ backlog into the re-optimization demand window: observe
  /// every pending (u, v) VOQ's queued bytes into `estimator` (starved
  /// pairs are demand too). Returns the bytes folded.
  std::uint64_t fold_backlog(DemandEstimator& estimator) const;

  TdmScheduler sched_;
  std::vector<VoqSet> voqs_;
  /// nullptr when the control-fault layer is off.
  std::unique_ptr<ControlPlane> plane_;

 private:
  /// Scheduler-side arrival of a request (value) or release (!value).
  void apply_request(NodeId u, NodeId v, bool value);
  /// The NIC dropped its intent for (u, v).
  void drop_request(NodeId u, NodeId v);
};

}  // namespace pmx
