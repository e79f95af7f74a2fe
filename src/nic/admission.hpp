#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pmx {

/// What the NIC-side admission controller does with an arriving message when
/// the source's virtual output queues are at capacity.
enum class ShedPolicy : std::uint8_t {
  /// Reject the arriving message (classic tail drop at the NIC queue).
  kTailDrop,
  /// Push out the youngest fully-unsent queued message to admit the
  /// newcomer (LIFO push-out: preserves the oldest queued work).
  kDropNewest,
  /// Push out the oldest fully-unsent queued message to admit the newcomer
  /// (FIFO push-out: bounds queueing delay of what stays).
  kDropOldest,
  /// Shed only queued messages older than the 5 us shed deadline
  /// (`kShedDeadline` in switching/network.cpp; their delivery would be
  /// useless anyway); if nothing has expired the newcomer is rejected
  /// instead. The expiry is encoded as an integer Rank exactly like the
  /// policy engine's deadline rank function (make_deadline_rank):
  /// rank = submit_time + deadline, expired when rank <= now, evicted
  /// lowest-rank-first with (rank, src, dst) tie-breaking.
  kDeadline,
  /// Do not shed at all: refuse the submission and make the source retry
  /// later (closed-loop backpressure; the driver accounts the stall time).
  kBackpressure,
};

[[nodiscard]] std::string to_string(ShedPolicy policy);

/// NIC-side admission control: bounds on the per-source output queues and
/// the policy applied when an arrival would overflow them. Both capacities
/// default to zero (= unbounded), in which case no admission machinery runs
/// at all and the system behaves bit-identically to the unbounded design.
struct AdmissionParams {
  /// Per-source queued-byte budget across all destinations (0 = unbounded).
  std::uint64_t capacity_bytes = 0;
  /// Per-source queued-message budget across all destinations (0 = none).
  std::size_t capacity_msgs = 0;
  ShedPolicy policy = ShedPolicy::kTailDrop;

  [[nodiscard]] bool enabled() const {
    return capacity_bytes > 0 || capacity_msgs > 0;
  }
};

}  // namespace pmx
