#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/bitvector.hpp"
#include "nic/voq.hpp"
#include "switching/network.hpp"

namespace pmx {

/// Round-robin pick, the wormhole arbiters' programmable priority encoder:
/// the first index in the rotated order start, start + 1, ..., n - 1, 0,
/// ..., start - 1 (n = requests.size(), start < n) that is set in
/// `requests`, clear in `busy` and accepted by `eligible`; n when there is
/// none. `eligible` sees only indices that pass both masks, in that order,
/// and the pick stops at the first it accepts. One word of
/// `requests & ~busy` is scanned at a time: the start word from bit
/// `start` up, the words after it, the words before it, and last the start
/// word again below bit `start`.
// pmx-hot
template <typename Eligible>
std::size_t rr_pick(const BitVector& requests, const BitVector& busy,
                    std::size_t start, Eligible&& eligible) {
  const std::span<const std::uint64_t> req = requests.words();
  const std::span<const std::uint64_t> held = busy.words();
  const std::size_t nw = req.size();
  const std::size_t first = start >> 6;
  const std::uint64_t below = (std::uint64_t{1} << (start & 63)) - 1;
  for (std::size_t k = 0; k <= nw; ++k) {
    const std::size_t wi = first + k < nw ? first + k : first + k - nw;
    std::uint64_t w = req[wi] & ~held[wi];
    if (k == 0) {
      w &= ~below;
    } else if (k == nw) {
      w &= below;
    }
    for (; w != 0; w &= w - 1) {
      const std::size_t i =
          (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
      if (eligible(i)) {
        return i;
      }
    }
  }
  return requests.size();
}

/// Scalar oracle of rr_pick: the modulo loop the arbiters ran before,
/// kept for the differential tests.
template <typename Eligible>
std::size_t rr_pick_ref(const BitVector& requests, const BitVector& busy,
                        std::size_t start, Eligible&& eligible) {
  const std::size_t n = requests.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t v = (start + i) % n;
    if (requests.get(v) && !busy.get(v) && eligible(v)) {
      return v;
    }
  }
  return n;
}

/// Wormhole-routed crossbar baseline (Section 5).
///
/// The NIC is the same one the TDM system uses (Section 4): N logical output
/// queues per node. Worm dispatch works like an input-queued switch with
/// per-worm matching:
///  * messages are cut into worms of at most `max_worm_bytes` (128 B) to
///    ensure fairness; flits are 8 B;
///  * every worm pays the 80 ns scheduling (arbitration) delay for its head
///    flit; subsequent flits stream at 10 ns each (= flit serialization at
///    6.4 Gb/s), so a worm holds its input and output port for
///    sched + bytes/rate;
///  * an input port transmits one worm at a time but picks any non-empty
///    VOQ whose output is free (round-robin), so a blocked destination does
///    not head-of-line-block the node -- which is also why the mesh
///    patterns' ordering regularity is *not* exploited by wormhole, as the
///    paper observes;
///  * the cable + digital-switch head latency (30+20+10+20+30 ns) is paid
///    once per message: later worms are buffered inside the switch.
class WormholeNetwork final : public Network {
 public:
  /// Per-input NIC state.
  struct SourceState {
    VoqSet voqs;
    std::size_t rr = 0;    ///< round-robin cursor over destinations
    NodeId active_dst = 0;      ///< destination of the in-flight worm
    MessageId active_msg = 0;   ///< message the in-flight worm belongs to
    // --- Lossy control channel only ---------------------------------------
    bool retry_armed = false;   ///< a dispatch retry event is pending
    std::size_t attempts = 1;   ///< arbitration-retry backoff level
    /// Audit debounce: was this source idle with dispatchable traffic at
    /// the previous audit already?
    bool audit_stall = false;
    explicit SourceState(std::size_t n) : voqs(n) {}
  };

  /// Read-only view of the arbiters' state. `waiting` is the VOQs' column
  /// view: row v holds the inputs with a message queued to v. A bit of
  /// `input_busy` marks an input with a worm in flight (to its source's
  /// active_dst), a bit of `output_busy` an output such a worm holds.
  struct ArbiterView {
    std::span<const SourceState> sources;
    const BitMatrix& waiting;
    const BitVector& input_busy;
    const BitVector& output_busy;
  };

  WormholeNetwork(Simulator& sim, const SystemParams& params);

  [[nodiscard]] std::string name() const override { return "wormhole"; }

  [[nodiscard]] std::uint64_t queued_bytes() const;

  [[nodiscard]] ArbiterView arbiter_view() const {
    return {sources_, waiting_, input_busy_, output_busy_};
  }

 protected:
  void do_submit(const Message& msg) override;
  void audit_control(std::vector<std::string>& out) override;
  void resync_control() override;
  [[nodiscard]] std::uint64_t source_queue_bytes(NodeId src) const override {
    return sources_[src].voqs.total_bytes();
  }
  [[nodiscard]] std::size_t source_queue_msgs(NodeId src) const override {
    return sources_[src].voqs.total_depth();
  }
  /// The in-flight worm's head (active_dst) is never a shed victim even
  /// when its remaining count still equals its size (bytes are consumed at
  /// worm completion, not dispatch) -- shedding it would strand the busy
  /// output port. This is also the deadlock-freedom argument under full
  /// buffers: a dispatched worm owns its input and output port outright,
  /// always completes after sched + serialization, and completion both
  /// consumes queued bytes and rematches waiting inputs, so some port
  /// always drains no matter how full every VOQ is.
  std::optional<Message> remove_shed_victim(NodeId src, bool oldest,
                                            TimeNs cutoff) override;

 private:
  /// The output that input `src` would send its next worm to: the first in
  /// round-robin order from its cursor with a queued message, a free port
  /// and a live link; num_nodes when there is none. The one definition of
  /// "dispatchable", shared by dispatch and the wedge audit.
  [[nodiscard]] std::size_t pick_output(NodeId src) const;
  /// Try to dispatch one worm from input `src` (if idle) to pick_output().
  /// Under the lossy control channel the head-flit arbitration request
  /// itself can be dropped or delayed; a lost request is retried with
  /// backoff when healing is on.
  void try_dispatch(NodeId src);
  /// End-of-worm bookkeeping: release ports, finish messages, rematch.
  void worm_done(NodeId src, NodeId dst, std::uint64_t worm_bytes);
  /// Fault reaction: poison in-flight worms on a dead link; rematch idle
  /// inputs when a link comes back.
  void on_link_change(NodeId node, bool up);
  /// Refresh waiting_'s bit for VOQ (src, dst) after it may have changed
  /// emptiness.
  void note_voq(NodeId src, NodeId dst) {
    waiting_.set(dst, src, !sources_[src].voqs.empty(dst));
  }

  std::vector<SourceState> sources_;
  BitMatrix waiting_;      ///< row v: inputs with a non-empty VOQ to v
  BitVector input_busy_;   ///< inputs with a worm in flight
  BitVector output_busy_;  ///< outputs held by a worm in flight
  // Per-worm counters bump through slots, with no name lookup.
  CounterSet::Slot worms_slot_{"worms"};
  CounterSet::Slot dispatch_misses_slot_{"dispatch_misses"};
};

}  // namespace pmx
