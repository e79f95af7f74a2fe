#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/message.hpp"
#include "common/stats.hpp"
#include "fault/control_fault.hpp"
#include "fault/fault_model.hpp"
#include "sim/simulator.hpp"
#include "switching/params.hpp"
#include "switching/slot_auditor.hpp"

namespace pmx {

struct ReoptStats;  // switching/reopt_loop.hpp

/// One hard-fault episode and how long delivery took to resume across the
/// failed link (metrics: "time to recover").
struct RecoveryRecord {
  NodeId node = 0;
  TimeNs down{};                     ///< when the link failed
  std::optional<TimeNs> repaired;    ///< when it came back (if it did)
  std::optional<TimeNs> recovered;   ///< first clean delivery touching the
                                     ///< node after the fault
};

/// Common interface of all switching paradigms (wormhole, circuit switching,
/// dynamic TDM, preloaded TDM). Each network model owns its control state
/// and shares the Simulator with the traffic driver; completed messages are
/// recorded uniformly so the benchmark harness can compute identical metrics
/// for every paradigm.
///
/// When `params.fault.enabled()`, the base class additionally owns the
/// FaultModel and a NIC reliability layer shared by every paradigm:
/// messages are sequence-numbered (their MessageId), the receiver models a
/// CRC check over the payload, corrupted arrivals are NACKed and
/// retransmitted with exponential backoff under a bounded retry budget,
/// lost ACKs trigger timeout retransmissions whose duplicates the receiver
/// suppresses. Derived classes only decide *how* a retransmitted copy
/// re-enters the NIC (do_retransmit) and may mark in-flight transfers as
/// poisoned when a hard fault cuts the link under them.
class Network {
 public:
  /// Invoked (as a simulation event) when the last byte of a message has
  /// left the source NIC; the traffic driver issues the node's next command
  /// on this edge. Fired once per message (the first attempt), never for
  /// retransmissions.
  using SendDoneFn = std::function<void(const Message&)>;
  /// Invoked when the last byte arrives at the destination NIC.
  using DeliveredFn = std::function<void(const MessageRecord&)>;
  /// Invoked when the NIC permanently drops a message after exhausting its
  /// retry budget (fault layer only). Progress accounting must treat the
  /// message as resolved or a dead link would hang the run forever.
  using DroppedFn = std::function<void(const Message&)>;
  /// Invoked synchronously when the admission controller sheds a message
  /// (overflow verdict at submit, or a queued victim pushed out to make
  /// room). Like drops, shed messages count as resolved for progress
  /// accounting -- overload can never wedge a run.
  using ShedFn = std::function<void(const Message&)>;

  /// Admission verdict of try_submit().
  enum class SubmitStatus : std::uint8_t {
    kAccepted,      ///< message entered the source NIC's queues
    kShed,          ///< message was counted as submitted, then shed
    kBackpressure,  ///< queue full, nothing submitted: retry later
  };
  struct SubmitOutcome {
    SubmitStatus status = SubmitStatus::kAccepted;
    Message msg{};  ///< valid unless status == kBackpressure
  };

  Network(Simulator& sim, const SystemParams& params);
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Hand a message to the source NIC. Submission is the only entry point;
  /// timestamping happens here. With admission control armed the message
  /// may be shed (the outcome says so); under the backpressure policy a
  /// full queue refuses the submission entirely and the caller must retry.
  SubmitOutcome try_submit(NodeId src, NodeId dst, std::uint64_t bytes,
                           std::size_t phase = 0);
  /// try_submit for callers that cannot handle backpressure (tests, closed
  /// workloads): aborts if the submission was refused.
  Message submit(NodeId src, NodeId dst, std::uint64_t bytes,
                 std::size_t phase = 0);

  /// Compiler hint (Section 3.3): a communication-locality boundary was
  /// crossed; dynamically learned state should be discarded.
  virtual void flush_hint() {}

  void set_send_done_handler(SendDoneFn fn) { send_done_ = std::move(fn); }
  void set_delivered_handler(DeliveredFn fn) { delivered_ = std::move(fn); }
  void set_dropped_handler(DroppedFn fn) { dropped_fn_ = std::move(fn); }
  void set_shed_handler(ShedFn fn) { shed_fn_ = std::move(fn); }

  [[nodiscard]] const std::vector<MessageRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t delivered_bytes() const {
    return delivered_bytes_;
  }
  [[nodiscard]] std::size_t delivered_count() const { return records_.size(); }
  [[nodiscard]] std::size_t submitted_count() const {
    return static_cast<std::size_t>(next_id_ - 1);
  }
  /// Time the last record was delivered (zero when nothing delivered).
  [[nodiscard]] TimeNs last_delivery() const { return last_delivery_; }

  // --- Admission control / overload ---------------------------------------
  /// True when the admission controller (bounded VOQs) is armed.
  [[nodiscard]] bool admission_enabled() const {
    return params_.admission.enabled();
  }
  /// Messages shed by the admission controller (counted as submitted).
  [[nodiscard]] std::size_t shed_messages() const { return shed_; }
  [[nodiscard]] std::uint64_t shed_bytes() const { return shed_bytes_; }
  /// Total payload bytes ever submitted (including shed messages).
  [[nodiscard]] std::uint64_t submitted_bytes() const {
    return submitted_bytes_;
  }
  /// Submission window, for offered-load accounting. Zero-valued when
  /// nothing was submitted.
  [[nodiscard]] TimeNs first_submit() const { return first_submit_; }
  [[nodiscard]] TimeNs last_submit() const { return last_submit_; }
  /// Source-queue depth (bytes) sampled at every admitted submission.
  /// Only collected while admission control is armed.
  [[nodiscard]] const std::vector<std::uint64_t>& depth_samples() const {
    return depth_samples_;
  }

  [[nodiscard]] const SystemParams& params() const { return params_; }
  [[nodiscard]] CounterSet& counters() { return counters_; }
  [[nodiscard]] const CounterSet& counters() const { return counters_; }

  // --- Fault tolerance ----------------------------------------------------
  /// True when the fault model and the NIC reliability layer are active.
  [[nodiscard]] bool fault_tolerant() const { return fault_ != nullptr; }
  [[nodiscard]] FaultModel* fault_model() { return fault_.get(); }
  [[nodiscard]] const FaultModel* fault_model() const { return fault_.get(); }
  /// Bytes that crossed the fabric, including retransmitted copies (equals
  /// delivered_bytes() when nothing ever failed; zero when the fault layer
  /// is disabled -- use delivered_bytes() then).
  [[nodiscard]] std::uint64_t wire_bytes() const { return wire_bytes_; }
  /// Messages submitted but not yet delivered clean nor dropped.
  [[nodiscard]] std::size_t outstanding_reliable() const {
    return outstanding_;
  }
  /// Messages permanently dropped after exhausting the retry budget.
  [[nodiscard]] std::size_t dropped_messages() const { return dropped_; }
  /// Hard-fault episodes observed by this network, with recovery times.
  [[nodiscard]] const std::vector<RecoveryRecord>& recoveries() const {
    return recoveries_;
  }

  // --- Control-plane fault tolerance --------------------------------------
  /// True when the lossy control channel is active.
  [[nodiscard]] bool control_faulty() const { return ctrl_ != nullptr; }
  [[nodiscard]] ControlFaultModel* control_fault() { return ctrl_.get(); }
  [[nodiscard]] const ControlFaultModel* control_fault() const {
    return ctrl_.get();
  }
  /// The periodic invariant auditor, when params.audit.enabled.
  [[nodiscard]] SlotAuditor* auditor() { return auditor_.get(); }
  [[nodiscard]] const SlotAuditor* auditor() const { return auditor_.get(); }

  // --- Re-optimization service ---------------------------------------------
  /// Disruption accounting of the online re-optimization service loop, or
  /// null for paradigms without one (or with the service disabled).
  [[nodiscard]] virtual const ReoptStats* reopt_stats() const {
    return nullptr;
  }

 protected:
  /// Paradigm-specific acceptance of a submitted message.
  virtual void do_submit(const Message& msg) = 0;
  /// Paradigm-specific acceptance of a retransmitted copy. The default
  /// re-enters through do_submit (same VOQ/FIFO path as a fresh message);
  /// paradigms with compiled traffic budgets override this to re-credit
  /// the retransmitted bytes.
  virtual void do_retransmit(const Message& msg) { do_submit(msg); }
  /// A message left the reliability state machine for good: acknowledged
  /// clean, dropped after the retry budget, or abandoned after repeated ACK
  /// loss. No further retransmitted copy of it will ever enter the network.
  /// Paradigms with phase-scoped budgets hook this to know when a phase can
  /// safely retire. Only fired when the fault layer is active.
  virtual void on_message_settled(const Message& msg) { (void)msg; }

  /// Record completion of the source side and fire the send-done handler.
  /// `when` must be >= now; the callback runs as an event at that time.
  void notify_send_done(const Message& msg, TimeNs when);
  /// Record delivery and fire the delivered handler at `when`. With the
  /// fault layer active this is the CRC/ACK decision point instead.
  void notify_delivered(const Message& msg, TimeNs send_done, TimeNs when);

  /// Mark an in-flight transfer as corrupted by a hard fault: its next
  /// arrival fails the CRC check regardless of the transient-error draw.
  /// Called by paradigms when a link dies under an active transfer.
  void mark_poisoned(MessageId id);

  /// Paradigm-specific control-plane audit: append one line per violated
  /// invariant (leaked crosspoints, wedged NICs, scheduler parity). Runs as
  /// an auditor check, i.e. at event time, never from the constructor.
  virtual void audit_control(std::vector<std::string>& out) { (void)out; }
  /// Paradigm-specific full NIC <-> scheduler state resync (auditor
  /// recovery mode): rebuild the scheduler's view from NIC ground truth.
  virtual void resync_control() {}

  // --- Admission hooks (overridden by paradigms with bounded queues) ------
  /// Bytes currently queued at the source NIC awaiting transmission.
  [[nodiscard]] virtual std::uint64_t source_queue_bytes(NodeId src) const {
    (void)src;
    return 0;
  }
  /// Messages currently queued at the source NIC.
  [[nodiscard]] virtual std::size_t source_queue_msgs(NodeId src) const {
    (void)src;
    return 0;
  }
  /// Remove and return one shed victim from the source queue: the oldest
  /// (`oldest`) or youngest fully-unsent message with submit_time <= cutoff.
  /// Returns nullopt when nothing qualifies (everything is in flight).
  virtual std::optional<Message> remove_shed_victim(NodeId src, bool oldest,
                                                    TimeNs cutoff) {
    (void)src;
    (void)oldest;
    (void)cutoff;
    return std::nullopt;
  }
  /// A message was shed -- either refused at submit or evicted from the
  /// source queue. Paradigms with compiled traffic budgets re-credit the
  /// bytes here so the schedule does not hold slots for dead traffic.
  virtual void on_message_shed(const Message& msg) { (void)msg; }

  Simulator& sim_;
  SystemParams params_;
  LinkModel link_;

 private:
  /// Per-message ARQ state (stop-and-wait per message id).
  struct ArqState {
    std::size_t attempts = 1;
    bool send_done_fired = false;
    bool recorded = false;  ///< a clean copy reached the receiver
  };

  void record_delivery(const Message& msg, TimeNs send_done);
  void handle_arrival(const Message& msg, TimeNs send_done, bool corrupt);
  void schedule_retransmit(const Message& msg, TimeNs extra_delay);
  void on_link_event(NodeId node, bool up);
  void note_recovery(const Message& msg);
  /// Message conservation: injected == delivered + dropped + shed +
  /// in-flight.
  void audit_conservation(std::vector<std::string>& out) const;
  /// Stamp a fresh message: allocates the id and updates the submission
  /// ledgers (counter, byte totals, submission window).
  Message make_message(NodeId src, NodeId dst, std::uint64_t bytes,
                       std::size_t phase);
  /// Retire a shed message: counters, ARQ/settlement bookkeeping when the
  /// victim was already queued, the paradigm hook, and the shed handler
  /// (synchronously -- the driver must see the resolution before it decides
  /// whether a barrier can release).
  void settle_shed(const Message& msg, bool was_queued, const char* tag);

  SendDoneFn send_done_;
  DeliveredFn delivered_;
  DroppedFn dropped_fn_;
  ShedFn shed_fn_;
  std::vector<MessageRecord> records_;
  std::uint64_t delivered_bytes_ = 0;
  TimeNs last_delivery_{};
  MessageId next_id_ = 1;
  CounterSet counters_;
  // Per-message counters bump through slots, with no name lookup.
  CounterSet::Slot submitted_slot_{"submitted"};
  CounterSet::Slot delivered_slot_{"delivered"};

  std::uint64_t submitted_bytes_ = 0;
  TimeNs first_submit_{};
  TimeNs last_submit_{};
  std::size_t shed_ = 0;
  std::uint64_t shed_bytes_ = 0;
  std::vector<std::uint64_t> depth_samples_;

  std::unique_ptr<FaultModel> fault_;
  std::unique_ptr<ControlFaultModel> ctrl_;
  std::unique_ptr<SlotAuditor> auditor_;
  std::unordered_map<MessageId, ArqState> arq_;
  std::unordered_set<MessageId> poisoned_;
  std::vector<RecoveryRecord> recoveries_;
  std::size_t unrecovered_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace pmx
