#include "predictor/policy_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmx {

namespace {

/// Min-heap comparator for std::push_heap/pop_heap (which build max-heaps):
/// "greater" entries sink, so the front is the smallest (rank, src, dst).
/// The order is total -- (src, dst) is unique per connection -- so the pop
/// sequence never depends on the heap's internal array layout.
bool later(const Rank& a_key, const Conn& a_conn, const Rank& b_key,
           const Conn& b_conn) {
  if (a_key != b_key) {
    return a_key > b_key;
  }
  if (a_conn.src != b_conn.src) {
    return a_conn.src > b_conn.src;
  }
  return a_conn.dst > b_conn.dst;
}

// Eviction order feeds scheduler unhold calls and the eviction counter, so
// it is normalized to (src, dst) order like the pre-engine predictors.
void sort_evictions(std::vector<Conn>& evict) {
  std::sort(evict.begin(), evict.end(), [](const Conn& a, const Conn& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
}

}  // namespace

PolicyEngine::PolicyEngine(std::string name, std::unique_ptr<RankFn> rank,
                           std::unique_ptr<WorkingSetTracker> tracker,
                           TimeNs idle_ttl)
    : name_(std::move(name)),
      rank_(std::move(rank)),
      tracker_(std::move(tracker)),
      idle_ttl_(idle_ttl) {
  PMX_CHECK(rank_ != nullptr, "policy engine needs a rank function");
}

void PolicyEngine::push_key(const Conn& c, const FlowState& s,
                            const EngineView& v) {
  heap_.push_back(HeapEntry{rank_->rank(s, v), c});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return later(a.key, a.conn, b.key, b.conn);
                 });
}

void PolicyEngine::grow_index(NodeId port) {
  ports_ = (port / 64 + 1) * 64;
  index_.assign(ports_ * ports_, kAbsent);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_slot(entries_[i].state.conn) = static_cast<std::uint32_t>(i);
  }
}

std::uint32_t PolicyEngine::insert(const FlowState& s) {
  const NodeId port = std::max(s.conn.src, s.conn.dst);
  if (port >= ports_) {
    grow_index(port);
  }
  PMX_CHECK(entries_.size() < kAbsent, "policy engine tracks too many pairs");
  const auto i = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(Entry{s});
  index_slot(s.conn) = i;
  return i;
}

void PolicyEngine::erase_at(std::uint32_t i) {
  Entry& hole = entries_[i];
  if (hole.held) {
    --held_;
  }
  index_slot(hole.state.conn) = kAbsent;
  if (i + 1 != entries_.size()) {
    hole = entries_.back();
    index_slot(hole.state.conn) = i;
  }
  entries_.pop_back();
}

void PolicyEngine::erase(const Conn& c) {
  const std::uint32_t i = find(c);
  if (i != kAbsent) {
    erase_at(i);
  }
}

// pmx-hot
std::uint32_t PolicyEngine::upsert(const Conn& c, TimeNs now, Event event) {
  const EngineView v = view(now);
  std::uint32_t i = find(c);
  if (i == kAbsent) {
    FlowState fresh;
    fresh.conn = c;
    fresh.established = now;
    fresh.last_use = now;
    fresh.last_use_epoch = use_epoch_;
    i = insert(fresh);
  } else if (event == Event::kHold) {
    // Hold latches only guarantee the entry exists; an already-tracked
    // entry is left untouched so latching is rank-neutral.
    return i;
  }
  FlowState& s = entries_[i].state;
  rank_->touch(s, v, event == Event::kUse);
  if (event == Event::kEstablish) {
    s.established = now;  // re-establish restarts deadline leases
  }
  s.last_use = now;
  s.last_use_epoch = use_epoch_;
  if (event == Event::kUse) {
    ++s.uses;
  }
  push_key(c, s, v);
  compact_if_oversized(v);
  return i;
}

void PolicyEngine::on_establish(const Conn& c, TimeNs now) {
  upsert(c, now, Event::kEstablish);
}

void PolicyEngine::on_use(const Conn& c, TimeNs now) {
  // Using a connection ages every other one (the counter policy's global
  // epoch); the epoch advances before the entry is marked, matching the
  // pre-engine CounterPredictor exactly.
  ++use_epoch_;
  upsert(c, now, Event::kUse);
  if (tracker_) {
    tracker_->observe(c, now);
  }
}

void PolicyEngine::on_release(const Conn& c, TimeNs) {
  erase(c);  // heap copies go stale; reaped at pop/compaction
}

void PolicyEngine::on_hold(const Conn& c, TimeNs now) {
  Entry& e = entries_[upsert(c, now, Event::kHold)];
  if (!e.held) {
    e.held = true;
    ++held_;
  }
}

// pmx-hot
bool PolicyEngine::settle_front(const EngineView& v) {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const std::uint32_t i = find(top.conn);
    if (i != kAbsent && rank_->rank(entries_[i].state, v) == top.key) {
      return true;  // live: this key is the entry's current rank
    }
    // Stale: the connection was released, or was re-ranked by a later
    // touch (its current key sits elsewhere in the heap).
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const HeapEntry& a, const HeapEntry& b) {
                    return later(a.key, a.conn, b.key, b.conn);
                  });
    heap_.pop_back();
  }
  return false;
}

std::vector<Conn> PolicyEngine::collect_evictions(TimeNs now) {
  evict_.clear();
  const EngineView v = view(now);
  const auto pop_front = [&] {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const HeapEntry& a, const HeapEntry& b) {
                    return later(a.key, a.conn, b.key, b.conn);
                  });
    heap_.pop_back();
  };

  // Idle-TTL safety valve (capacity policies only): expire by last_use so
  // a drained network cannot wedge on held slots that nothing overflows.
  // The batch is sorted below, so the packed order cannot leak out.
  if (idle_ttl_ > TimeNs{0}) {
    std::uint32_t i = 0;
    while (i < entries_.size()) {
      const FlowState& s = entries_[i].state;
      if (s.last_use.ns() + idle_ttl_.ns() <= now.ns()) {
        evict_.push_back(s.conn);
        erase_at(i);  // the last entry moves into i: look at i again
      } else {
        ++i;
      }
    }
  }

  // Deadline expiry: everything ranked at or below the policy's horizon.
  const Rank horizon = rank_->horizon(v);
  if (horizon != kNoHorizon) {
    while (settle_front(v) && heap_.front().key <= horizon) {
      evict_.push_back(heap_.front().conn);
      erase(heap_.front().conn);
      pop_front();
    }
  }

  // Capacity overflow: shed lowest-ranked entries until the set fits.
  const std::size_t cap = rank_->capacity();
  if (cap > 0) {
    while (entries_.size() > cap && settle_front(v)) {
      evict_.push_back(heap_.front().conn);
      erase(heap_.front().conn);
      pop_front();
    }
  }

  compact_if_oversized(v);
  sort_evictions(evict_);
  // The batch is built in reused scratch; the caller gets one exact copy.
  return std::vector<Conn>(evict_.begin(), evict_.end());
}

void PolicyEngine::compact_if_oversized(const EngineView& v) {
  if (heap_.size() <= 64 || heap_.size() <= 4 * entries_.size()) {
    return;
  }
  // Rebuild with exactly one live key per tracked entry. Visit order is
  // irrelevant: the comparator's total order makes the pop sequence of a
  // heap independent of its construction order.
  heap_.clear();
  for (const Entry& e : entries_) {
    heap_.push_back(HeapEntry{rank_->rank(e.state, v), e.state.conn});
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return later(a.key, a.conn, b.key, b.conn);
                 });
}

void PolicyEngine::on_flush() {
  // A flush forgets every learned entry (and the scheduler resets its hold
  // matrix in the same breath) but keeps the global use epoch: the
  // pre-engine CounterPredictor's counters survived flushes the same way.
  for (const Entry& e : entries_) {
    index_slot(e.state.conn) = kAbsent;
  }
  entries_.clear();
  held_ = 0;
  heap_.clear();
}

bool PolicyEngine::recommend_flush(TimeNs now) {
  return tracker_ && tracker_->phase_shifted(now);
}

/// Safety valve for the pure-capacity policies (lru/lfu-decay/hybrid):
/// entries idle this long are expired regardless of rank. Without it a
/// capacity policy wedges dynamic TDM at drain time -- the last blocked
/// senders wait on held slots that only an overflow could free, and
/// nothing overflows once traffic stalls.
constexpr TimeNs kIdleTtl{2000};

std::unique_ptr<Predictor> make_policy(const PolicySpec& spec) {
  spec.validate();
  std::unique_ptr<WorkingSetTracker> tracker;
  if (spec.policy == "phase") {
    tracker = std::make_unique<WorkingSetTracker>(TimeNs{spec.phase_epoch_ns},
                                                  spec.phase_shift_threshold);
  }
  // Only the pure-capacity policies get the idle-TTL valve; the horizon
  // policies already expire on their own and must stay byte-identical to
  // the pre-engine predictors (conformance goldens).
  const bool capacity_policy = spec.policy == "lru" ||
                               spec.policy == "lfu-decay" ||
                               spec.policy == "hybrid";
  const TimeNs idle_ttl = capacity_policy ? kIdleTtl : TimeNs{0};
  return std::make_unique<PolicyEngine>(spec.policy, make_rank_fn(spec),
                                        std::move(tracker), idle_ttl);
}

}  // namespace pmx
