#pragma once

#include <memory>
#include <vector>

#include "predictor/predictor.hpp"
#include "sim/clock.hpp"
#include "switching/reopt_loop.hpp"
#include "switching/tdm_base.hpp"

namespace pmx {

/// Dynamic (reactive) multiplexed switching -- the system of Section 4.
///
/// The NICs' VOQs raise the request matrix R (TdmNetworkBase). Every
/// SL-clock period (one scheduler pass, 80 ns) the scheduler inserts newly
/// requested connections into one of the K slot configurations and releases
/// connections whose requests (and holds) have dropped. Every time-slot
/// clock period (100 ns) the TDM counter advances to the next non-empty
/// configuration, the crossbar is reconfigured, and every granted connection
/// moves up to slot_payload_bytes() of data (the rest of the slot is the
/// guard band). With a lossy control channel the scheduler's grant reply is
/// modeled too, and a NIC drives data only once it has seen its grant.
///
/// An eviction predictor (Section 3.2) may latch connections past the drop
/// of their request signal (Section 4, extension 3); preloading pinned
/// configurations before the run turns this into the hybrid
/// preload+dynamic network of Figure 5.
class TdmNetwork : public TdmNetworkBase {
 public:
  struct Options {
    /// Eviction predictor; nullptr means the "none" policy (pure reactive).
    std::unique_ptr<Predictor> predictor;
    /// Section 4 extension 2: replicate connections into idle slots.
    bool multi_slot_connections = false;
    /// Section 4 extension 1: number of scheduling-logic copies. Each SL
    /// clock edge runs this many passes against successive slots, modeling
    /// parallel SL units with the requests partitioned among them.
    std::size_t sl_units = 1;
    /// End-to-end flow control (Section 2: "only end-to-end flow control is
    /// required"): receive-buffer capacity per NIC in bytes; 0 = unlimited.
    /// Senders see the receiver's credit and never overrun it.
    std::uint64_t receiver_buffer_bytes = 0;
    /// Bytes the receiving processor consumes from its input buffer per
    /// TDM slot (only meaningful with a finite buffer).
    std::uint64_t receiver_drain_per_slot = 64;
    /// Starvation watchdog (graceful degradation under overload): if a
    /// source sits on queued traffic for this many consecutive slots
    /// without moving a byte, the learned schedule state is flushed so the
    /// reactive path can re-insert the starved requests. 0 = off.
    std::size_t starvation_slots = 0;
  };

  TdmNetwork(Simulator& sim, const SystemParams& params);
  TdmNetwork(Simulator& sim, const SystemParams& params, Options options);

  [[nodiscard]] std::string name() const override { return "dynamic-tdm"; }

  /// Preload a pinned configuration before (or during) the run -- the
  /// compiled-communication entry point that makes this the hybrid network.
  void preload(std::size_t slot, const BitMatrix& config, bool pinned = true);

  void flush_hint() override;

  [[nodiscard]] const Predictor& predictor() const { return *predictor_; }

  [[nodiscard]] const ReoptStats* reopt_stats() const override {
    return reopt_ ? &reopt_->stats() : nullptr;
  }

  /// Current input-buffer occupancy of node `v` (0 with unlimited buffers).
  [[nodiscard]] std::uint64_t receiver_occupancy(NodeId v) const {
    return rx_occupancy_.empty() ? 0 : rx_occupancy_[v];
  }

 protected:
  /// Scheduler invariants, the predictor's hold mirror, then the
  /// request-vs-intent audit.
  void audit_control(std::vector<std::string>& out) override;

 private:
  void on_slot_tick();
  void on_sl_tick();
  void on_link_change(NodeId node, bool up);
  /// The re-optimization loop's write path: install the proposed tables
  /// (pinned on apply, unpinned on rollback), flush learned state, and
  /// resync both control views through the A7 path. Returns the invalidated
  /// in-flight control-message count (disruption accounting).
  std::uint64_t apply_reopt(const std::vector<BitMatrix>& tables, bool pinned);

  friend class ReoptLoop;

  std::unique_ptr<Predictor> predictor_;
  /// Online slot-table re-optimization loop; nullptr when disabled.
  std::unique_ptr<ReoptLoop> reopt_;
  Clock slot_clock_;
  Clock sl_clock_;
  std::size_t sl_units_ = 1;
  std::uint64_t rx_buffer_ = 0;  ///< 0 = unlimited
  std::uint64_t rx_drain_ = 0;
  std::vector<std::uint64_t> rx_occupancy_;  ///< empty when unlimited
  std::size_t starvation_slots_ = 0;  ///< 0 = watchdog off
  std::vector<std::size_t> starve_;   ///< consecutive zero-progress slots
  std::vector<char> progress_;        ///< per-slot scratch: source moved data
};

}  // namespace pmx
