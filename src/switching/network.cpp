#include "switching/network.hpp"

#include "common/assert.hpp"

namespace pmx {

namespace {

/// How long a sender waits for an ACK before assuming it was lost.
constexpr TimeNs kRetransmitTimeout{500};

/// ShedPolicy::kDeadline: a queued message older than this has missed its
/// deadline and may be shed to make room.
constexpr TimeNs kShedDeadline{5'000};

}  // namespace

Network::Network(Simulator& sim, const SystemParams& params)
    : sim_(sim), params_(params), link_(params.link) {
  params_.validate();
  if (params_.fault.enabled()) {
    fault_ = std::make_unique<FaultModel>(sim_, params_.fault,
                                          params_.num_nodes);
    // The base class observes link edges first (fault accounting and
    // recovery tracking); paradigm-specific reactions subscribe after.
    fault_->subscribe(
        [this](NodeId node, bool up) { on_link_event(node, up); });
  }
  if (params_.ctrl.enabled()) {
    ctrl_ = std::make_unique<ControlFaultModel>(sim_, params_.ctrl,
                                                params_.slot_length);
  }
  if (params_.audit.enabled) {
    auditor_ = std::make_unique<SlotAuditor>(sim_, params_.audit,
                                             params_.slot_length);
    // The checks run at audit-tick time (as simulation events), long after
    // the derived class finished constructing, so the virtual dispatch
    // below resolves to the paradigm's overrides.
    auditor_->add_check("conservation", [this](std::vector<std::string>& out) {
      audit_conservation(out);
    });
    auditor_->add_check("control", [this](std::vector<std::string>& out) {
      audit_control(out);
    });
    auditor_->set_resync([this] { resync_control(); });
    auditor_->start();
  }
}

void Network::audit_conservation(std::vector<std::string>& out) const {
  const std::size_t delivered = records_.size();
  const std::size_t submitted = submitted_count();
  if (fault_ == nullptr) {
    // Without the reliability layer in-flight messages are not tracked;
    // delivered + shed <= submitted is all that can be asserted.
    if (delivered + shed_ > submitted) {
      out.push_back("delivered " + std::to_string(delivered) + " + shed " +
                    std::to_string(shed_) + " messages but only " +
                    std::to_string(submitted) + " were submitted");
    }
    return;
  }
  if (delivered + dropped_ + shed_ + outstanding_ != submitted) {
    out.push_back("message conservation broken: delivered " +
                  std::to_string(delivered) + " + dropped " +
                  std::to_string(dropped_) + " + shed " +
                  std::to_string(shed_) + " + in-flight " +
                  std::to_string(outstanding_) + " != submitted " +
                  std::to_string(submitted));
  }
}

Message Network::make_message(NodeId src, NodeId dst, std::uint64_t bytes,
                              std::size_t phase) {
  Message msg;
  msg.id = next_id_++;
  msg.src = src;
  msg.dst = dst;
  msg.bytes = bytes;
  msg.submit_time = sim_.now();
  msg.phase = phase;
  counters_.counter(submitted_slot_) += 1;
  submitted_bytes_ += bytes;
  if (submitted_count() == 1) {
    first_submit_ = msg.submit_time;
  }
  last_submit_ = msg.submit_time;
  return msg;
}

void Network::settle_shed(const Message& msg, bool was_queued,
                          const char* tag) {
  counters_.counter("shed_messages") += 1;
  counters_.counter(tag) += 1;
  ++shed_;
  shed_bytes_ += msg.bytes;
  if (fault_ && was_queued) {
    // The victim had ARQ state from its own admission; it leaves the
    // reliability machine without ever touching the wire.
    arq_.erase(msg.id);
    --outstanding_;
  }
  on_message_shed(msg);
  if (fault_ && was_queued) {
    on_message_settled(msg);
  }
  if (shed_fn_) {
    // Synchronous on purpose: the driver must observe the resolution
    // before deciding whether a pending barrier can release.
    shed_fn_(msg);
  }
}

Network::SubmitOutcome Network::try_submit(NodeId src, NodeId dst,
                                           std::uint64_t bytes,
                                           std::size_t phase) {
  PMX_CHECK(src < params_.num_nodes && dst < params_.num_nodes,
            "node id out of range");
  PMX_CHECK(src != dst, "self-send is not routed through the fabric");
  PMX_CHECK(bytes > 0, "empty message");
  const AdmissionParams& adm = params_.admission;
  if (adm.enabled()) {
    // A message larger than the whole byte budget can never be admitted;
    // evicting the entire queue for it would be pointless, so it is shed
    // outright under every policy.
    const bool oversize = adm.capacity_bytes > 0 && bytes > adm.capacity_bytes;
    const auto overflowing = [&] {
      if (adm.capacity_bytes > 0 &&
          source_queue_bytes(src) + bytes > adm.capacity_bytes) {
        return true;
      }
      return adm.capacity_msgs > 0 &&
             source_queue_msgs(src) + 1 > adm.capacity_msgs;
    };
    if (oversize) {
      const Message msg = make_message(src, dst, bytes, phase);
      settle_shed(msg, false, "shed_oversize");
      return {SubmitStatus::kShed, msg};
    }
    if (overflowing()) {
      switch (adm.policy) {
        case ShedPolicy::kBackpressure:
          // Closed-loop: nothing enters, no id is consumed; the caller
          // stalls and retries. The stall time is accounted driver-side.
          counters_.counter("backpressure_rejects") += 1;
          return {SubmitStatus::kBackpressure, Message{}};
        case ShedPolicy::kDropOldest:
          while (overflowing()) {
            auto victim = remove_shed_victim(src, true, TimeNs::never());
            if (!victim.has_value()) {
              break;  // everything queued is in flight: shed the newcomer
            }
            settle_shed(*victim, true, "shed_oldest");
          }
          break;
        case ShedPolicy::kDropNewest:
          while (overflowing()) {
            auto victim = remove_shed_victim(src, false, TimeNs::never());
            if (!victim.has_value()) {
              break;
            }
            settle_shed(*victim, true, "shed_newest");
          }
          break;
        case ShedPolicy::kDeadline: {
          // Only messages whose deadline rank has expired may be evicted
          // (rank = submit_time + deadline, expired when rank <= now --
          // the same integer-rank encoding the PolicyEngine uses).
          const TimeNs cutoff = sim_.now() - kShedDeadline;
          while (overflowing()) {
            auto victim = remove_shed_victim(src, true, cutoff);
            if (!victim.has_value()) {
              break;  // nothing expired: the newcomer is shed instead
            }
            settle_shed(*victim, true, "shed_deadline");
          }
          break;
        }
        case ShedPolicy::kTailDrop:
          break;  // the newcomer is the victim
      }
      if (overflowing()) {
        const Message msg = make_message(src, dst, bytes, phase);
        settle_shed(msg, false, "shed_newest");
        return {SubmitStatus::kShed, msg};
      }
    }
  }
  const Message msg = make_message(src, dst, bytes, phase);
  if (fault_) {
    arq_.emplace(msg.id, ArqState{});
    ++outstanding_;
  }
  do_submit(msg);
  if (adm.enabled()) {
    depth_samples_.push_back(source_queue_bytes(src));
  }
  return {SubmitStatus::kAccepted, msg};
}

Message Network::submit(NodeId src, NodeId dst, std::uint64_t bytes,
                        std::size_t phase) {
  const SubmitOutcome out = try_submit(src, dst, bytes, phase);
  PMX_CHECK(out.status != SubmitStatus::kBackpressure,
            "submit() refused by backpressure admission; use try_submit()");
  return out.msg;
}

void Network::notify_send_done(const Message& msg, TimeNs when) {
  PMX_CHECK(when >= sim_.now(), "send-done in the past");
  if (fault_) {
    // The processor-visible send completes once; retransmissions are
    // autonomous NIC activity.
    const auto it = arq_.find(msg.id);
    if (it != arq_.end()) {
      if (it->second.send_done_fired) {
        return;
      }
      it->second.send_done_fired = true;
    }
  }
  if (send_done_) {
    sim_.schedule_at(when, [this, msg] { send_done_(msg); });
  }
}

void Network::notify_delivered(const Message& msg, TimeNs send_done,
                               TimeNs when) {
  PMX_CHECK(when >= sim_.now(), "delivery in the past");
  if (!fault_) {
    sim_.schedule_at(when,
                     [this, msg, send_done] { record_delivery(msg, send_done); });
    return;
  }
  // CRC decision point: the copy that just finished its transfer is either
  // intact or corrupted -- by a transient bit error (seeded draw) or by a
  // hard fault that cut the link mid-transfer (poisoned).
  wire_bytes_ += msg.bytes;
  const bool poisoned = poisoned_.erase(msg.id) > 0;
  const bool corrupt = fault_->corrupts_payload(msg.bytes) || poisoned;
  sim_.schedule_at(when, [this, msg, send_done, corrupt] {
    handle_arrival(msg, send_done, corrupt);
  });
}

void Network::record_delivery(const Message& msg, TimeNs send_done) {
  MessageRecord rec;
  rec.msg = msg;
  rec.send_done = send_done;
  rec.delivered = sim_.now();
  records_.push_back(rec);
  delivered_bytes_ += msg.bytes;
  if (rec.delivered > last_delivery_) {
    last_delivery_ = rec.delivered;
  }
  counters_.counter(delivered_slot_) += 1;
  if (delivered_) {
    delivered_(rec);
  }
}

void Network::handle_arrival(const Message& msg, TimeNs send_done,
                             bool corrupt) {
  const auto it = arq_.find(msg.id);
  PMX_CHECK(it != arq_.end(), "arrival for unknown message id");
  ArqState& st = it->second;

  if (corrupt) {
    // Receiver's CRC check failed: the payload is discarded and a NACK
    // crosses the control wire back to the sender.
    counters_.counter("crc_corruptions") += 1;
    if (st.attempts >= fault_->params().retry_budget) {
      if (st.recorded) {
        // A clean copy already reached the receiver on an earlier attempt
        // and only the sender's confirmation is missing (this corrupted
        // arrival is a timeout duplicate). Settle as complete, mirroring
        // the lost-ACK exhaustion path below: the drop path would count a
        // delivered message as dropped too, and the driver's progress
        // accounting (delivered + dropped == submitted) could never
        // balance again.
        counters_.counter("ack_retries_exhausted") += 1;
        arq_.erase(it);
        on_message_settled(msg);
        return;
      }
      counters_.counter("messages_dropped") += 1;
      ++dropped_;
      --outstanding_;
      arq_.erase(it);
      on_message_settled(msg);
      if (dropped_fn_) {
        dropped_fn_(msg);
      }
      return;
    }
    ++st.attempts;
    schedule_retransmit(msg, params_.control_wire_latency());
    return;
  }

  if (!st.recorded) {
    st.recorded = true;
    --outstanding_;
    record_delivery(msg, send_done);
    note_recovery(msg);
  } else {
    // A timeout retransmission raced a successfully delivered (but
    // unacknowledged) copy: same sequence number, receiver drops it.
    counters_.counter("duplicates_suppressed") += 1;
  }

  // ACK return path. A corrupted/lost ACK leaves the sender waiting; it
  // retransmits after the ACK timeout and the receiver re-acknowledges the
  // duplicate.
  if (fault_->corrupts_ack()) {
    counters_.counter("acks_lost") += 1;
    if (st.attempts >= fault_->params().retry_budget) {
      // The sender gives up re-sending; the data did arrive, so the
      // message is complete from the network's point of view.
      counters_.counter("ack_retries_exhausted") += 1;
      arq_.erase(it);
      on_message_settled(msg);
      return;
    }
    ++st.attempts;
    schedule_retransmit(msg, kRetransmitTimeout);
    return;
  }
  arq_.erase(it);
  on_message_settled(msg);
}

void Network::schedule_retransmit(const Message& msg, TimeNs extra_delay) {
  counters_.counter("retransmits") += 1;
  const std::size_t attempt = arq_.at(msg.id).attempts;
  const TimeNs delay = extra_delay + fault_->backoff(attempt);
  sim_.schedule_after(delay, [this, msg] { do_retransmit(msg); });
}

void Network::mark_poisoned(MessageId id) {
  if (fault_) {
    poisoned_.insert(id);
  }
}

void Network::on_link_event(NodeId node, bool up) {
  if (!up) {
    counters_.counter("link_faults") += 1;
    RecoveryRecord rec;
    rec.node = node;
    rec.down = sim_.now();
    recoveries_.push_back(rec);
    ++unrecovered_;
    return;
  }
  counters_.counter("link_repairs") += 1;
  for (auto it = recoveries_.rbegin(); it != recoveries_.rend(); ++it) {
    if (it->node == node && !it->repaired.has_value()) {
      it->repaired = sim_.now();
      break;
    }
  }
}

void Network::note_recovery(const Message& msg) {
  if (unrecovered_ == 0) {
    return;
  }
  for (auto& rec : recoveries_) {
    if (rec.recovered.has_value()) {
      continue;
    }
    if (rec.node != msg.src && rec.node != msg.dst) {
      continue;
    }
    if (!fault_->link_up(rec.node)) {
      // A transfer that finished before the fault can still have its
      // delivery event fire during the outage; that is not a recovery.
      continue;
    }
    rec.recovered = sim_.now();
    --unrecovered_;
  }
}

}  // namespace pmx
