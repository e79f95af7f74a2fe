#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/bitvector.hpp"
#include "common/message.hpp"

namespace pmx {

/// The N logical output queues of one NIC (Section 4): one FIFO per
/// destination, plus per-head "remaining bytes" tracking so a message can be
/// fragmented across TDM slots.
///
/// The request signal R_u that the NIC sends to the scheduler is exactly the
/// non-empty bitmap of these queues, exposed as the maintained `pending()`
/// BitVector (no per-pass allocation).
///
/// All N queues share one slab of 64-byte entries reused through a free
/// list; each queue is an intrusive singly linked list over it. Building a
/// VoqSet allocates the same for any N, and once the slab has grown to the
/// peak number of queued messages, push/consume/evict allocate nothing.
/// The VoqSet never sheds on its own: `Network::try_submit` is the
/// admission verdict, and removes a victim through `evict`.
class VoqSet {
 public:
  explicit VoqSet(std::size_t num_dests);

  [[nodiscard]] std::size_t num_dests() const { return lists_.size(); }

  /// Enqueue a message for its destination.
  void push(const Message& msg);

  [[nodiscard]] bool empty(NodeId dst) const { return lists_[dst].count == 0; }
  [[nodiscard]] std::size_t depth(NodeId dst) const {
    return lists_[dst].count;
  }
  /// Total queued messages across all destinations.
  [[nodiscard]] std::size_t total_depth() const { return total_msgs_; }
  /// Total queued bytes (remaining, across all destinations).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  /// Queued bytes (remaining) awaiting destination `dst` -- the demand
  /// estimator's occupancy fold. O(depth of that queue).
  [[nodiscard]] std::uint64_t bytes(NodeId dst) const {
    std::uint64_t total = 0;
    for (std::uint32_t i = lists_[dst].head; i != kNil; i = slab_[i].next) {
      total += slab_[i].remaining;
    }
    return total;
  }

  /// Message at the head of queue `dst`. Precondition: !empty(dst). The
  /// reference is valid until the next push, which may grow the slab.
  [[nodiscard]] const Message& head(NodeId dst) const {
    return head_entry(dst).msg;
  }
  /// Unsent bytes of the head message.
  [[nodiscard]] std::uint64_t head_remaining(NodeId dst) const {
    return head_entry(dst).remaining;
  }

  /// Consume up to `budget` bytes from the head of queue `dst`.
  /// Returns the number of bytes actually consumed; if this completes the
  /// head message it is popped and `*completed` receives it.
  std::uint64_t consume(NodeId dst, std::uint64_t budget, Message* completed);

  /// Destinations with pending traffic: the request vector R_u, maintained
  /// incrementally (bit d set iff !empty(d)). Scheduler passes iterate this
  /// view directly instead of materializing a vector per pass.
  [[nodiscard]] const BitVector& pending() const { return pending_; }

  /// Remove and return the oldest (`oldest == true`) or youngest queued
  /// message with submit_time <= cutoff, by (submit_time, id) order.
  /// Only fully-unsent messages qualify: a partially-consumed head has
  /// already moved bytes through the fabric and cannot be shed without
  /// corrupting delivery accounting, and the head of `protect_dst` (an
  /// in-flight worm's message) is never touched. Returns nullopt when no
  /// queued message qualifies.
  std::optional<Message> evict(bool oldest, TimeNs cutoff,
                               std::optional<NodeId> protect_dst);

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One queued message. Live entries chain their queue head to tail; free
  /// ones chain the free list.
  struct Entry {
    Message msg;
    std::uint64_t remaining;
    std::uint32_t next;
  };
  static_assert(sizeof(Entry) == 64, "one VOQ entry per cache line");

  /// One destination's FIFO over the slab.
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
  };

  [[nodiscard]] const Entry& head_entry(NodeId dst) const {
    PMX_CHECK(lists_[dst].count != 0, "head of empty VOQ");
    return slab_[lists_[dst].head];
  }
  /// Return entry `i` to the free list.
  void release(std::uint32_t i) {
    slab_[i].next = free_;
    free_ = i;
  }

  std::vector<Entry> slab_;
  std::vector<List> lists_;
  std::uint32_t free_ = kNil;  ///< first free slab entry
  BitVector pending_;
  std::uint64_t total_bytes_ = 0;
  std::size_t total_msgs_ = 0;
};

}  // namespace pmx
