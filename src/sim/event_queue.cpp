#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace pmx {

// pmx-hot
EventId EventQueue::push(TimeNs t, EventFn fn) {
  PMX_CHECK(next_seq_ < kSeqLimit, "EventQueue push sequence exhausted");
  std::uint64_t cell = cells_.size();
  if (free_.empty()) {
    PMX_CHECK(cell <= kCellMask, "EventQueue is out of cells (2^24 pending)");
    cells_.push_back(Cell{0, fn});
  } else {
    cell = free_.back();
    free_.pop_back();
    cells_[cell].fn = fn;
  }
  const EventId id = (next_seq_++ << kCellBits) | cell;
  cells_[cell].id = id;
  ++live_;
  heap_.push_back(Key{t, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

void EventQueue::cancel(EventId id) {
  const std::uint64_t cell = id & kCellMask;
  if (id == 0 || cell >= cells_.size() || cells_[cell].id != id) {
    return;  // fired, cancelled or never issued: nothing is pending
  }
  cells_[cell].id = 0;
  free_.push_back(static_cast<std::uint32_t>(cell));
  --live_;
  compact();
}

void EventQueue::compact() {
  // A cancelled event's key stays in the heap, dead weight on every sift,
  // until it surfaces. Once dead keys outnumber half the heap, erase them
  // in one pass and rebuild the heap.
  const std::size_t dead = tombstones();
  if (dead <= 64 || dead * 2 <= heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const Key& k) { return !live(k); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

// pmx-hot
void EventQueue::drop_dead() {
  if (heap_.size() == live_) {
    return;  // no dead key anywhere: the top is live
  }
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

// pmx-hot
EventQueue::Fired EventQueue::take_top() {
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Copy the callback out before it runs: it may push, and a push can grow
  // the slab under a reference into it.
  const std::uint64_t cell = top.id & kCellMask;
  Fired fired{top.time, cells_[cell].fn};
  cells_[cell].id = 0;
  free_.push_back(static_cast<std::uint32_t>(cell));
  --live_;
  return fired;
}

bool EventQueue::empty() {
  drop_dead();
  return heap_.empty();
}

TimeNs EventQueue::next_time() {
  drop_dead();
  PMX_CHECK(!heap_.empty(), "next_time on empty EventQueue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_dead();
  PMX_CHECK(!heap_.empty(), "pop on empty EventQueue");
  return take_top();
}

// pmx-hot
std::optional<EventQueue::Fired> EventQueue::pop_until(TimeNs limit) {
  drop_dead();
  if (heap_.empty() || heap_.front().time > limit) {
    return std::nullopt;
  }
  return take_top();
}

}  // namespace pmx
