#include "nic/voq.hpp"

#include <algorithm>

namespace pmx {

VoqSet::VoqSet(std::size_t num_dests)
    : lists_(num_dests), pending_(num_dests) {}

void VoqSet::push(const Message& msg) {
  PMX_CHECK(msg.dst < lists_.size(), "VOQ destination out of range");
  PMX_CHECK(msg.bytes > 0, "zero-byte message");
  std::uint32_t i = free_;
  if (i != kNil) {
    free_ = slab_[i].next;
    slab_[i] = Entry{msg, msg.bytes, kNil};
  } else {
    PMX_CHECK(slab_.size() < kNil, "VOQ slab full");
    i = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(Entry{msg, msg.bytes, kNil});
  }
  List& q = lists_[msg.dst];
  if (q.tail == kNil) {
    q.head = i;
  } else {
    slab_[q.tail].next = i;
  }
  q.tail = i;
  ++q.count;
  pending_.set(msg.dst);
  total_bytes_ += msg.bytes;
  ++total_msgs_;
}

// pmx-hot
std::uint64_t VoqSet::consume(NodeId dst, std::uint64_t budget,
                              Message* completed) {
  List& q = lists_[dst];
  PMX_CHECK(q.count != 0, "consume from empty VOQ");
  const std::uint32_t i = q.head;
  Entry& e = slab_[i];
  const std::uint64_t taken = std::min(budget, e.remaining);
  e.remaining -= taken;
  total_bytes_ -= taken;
  if (e.remaining == 0) {
    if (completed != nullptr) {
      *completed = e.msg;
    }
    q.head = e.next;
    if (--q.count == 0) {
      q.tail = kNil;
      pending_.clear(dst);
    }
    release(i);
    --total_msgs_;
  } else if (completed != nullptr) {
    *completed = Message{};  // sentinel: id 0, bytes 0
  }
  return taken;
}

std::optional<Message> VoqSet::evict(bool oldest, TimeNs cutoff,
                                     std::optional<NodeId> protect_dst) {
  NodeId best_dst = 0;
  std::uint32_t best = kNil;
  std::uint32_t best_prev = kNil;  ///< entry before `best` in its queue
  const auto better = [&](const Message& m) {
    if (best == kNil) {
      return true;
    }
    const Message& b = slab_[best].msg;
    if (m.submit_time != b.submit_time) {
      return oldest ? m.submit_time < b.submit_time
                    : m.submit_time > b.submit_time;
    }
    return oldest ? m.id < b.id : m.id > b.id;
  };
  pending_.for_each_set([&](std::size_t d) {
    std::uint32_t prev = kNil;
    for (std::uint32_t i = lists_[d].head; i != kNil;
         prev = i, i = slab_[i].next) {
      const Entry& e = slab_[i];
      if (prev == kNil) {
        // A partially-drained head (or the protected in-flight head) has
        // bytes on the wire already; it must complete normally.
        if (e.remaining != e.msg.bytes ||
            (protect_dst.has_value() && *protect_dst == d)) {
          continue;
        }
      }
      if (e.msg.submit_time > cutoff) {
        continue;
      }
      if (better(e.msg)) {
        best = i;
        best_prev = prev;
        best_dst = static_cast<NodeId>(d);
      }
    }
  });
  if (best == kNil) {
    return std::nullopt;
  }
  const Message victim = slab_[best].msg;
  List& q = lists_[best_dst];
  if (best_prev == kNil) {
    q.head = slab_[best].next;
  } else {
    slab_[best_prev].next = slab_[best].next;
  }
  if (q.tail == best) {
    q.tail = best_prev;
  }
  if (--q.count == 0) {
    pending_.clear(best_dst);
  }
  release(best);
  total_bytes_ -= victim.bytes;
  --total_msgs_;
  return victim;
}

}  // namespace pmx
