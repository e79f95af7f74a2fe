// Differential test of the event queue against an ordered (time, seq)
// reference model. The queue reuses the slab cell of a fired or cancelled
// event, and an id is `(push sequence << 24) | cell` (event_queue.hpp), so
// besides pushes with many time ties and cancels of pending, fired and
// never-issued ids, every round replays the case a cell-reuse design can get
// wrong and a tombstone set could not: cancelling a stale id whose cell now
// holds another event must leave that event alone. Callbacks push and cancel
// while they run, bursts grow the slab past its initial reserve, and cancel
// storms trigger compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace pmx {
namespace {

constexpr unsigned kCellBits = 24;
constexpr std::uint64_t kCellMask = (std::uint64_t{1} << kCellBits) - 1;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The queue under test and its reference model, driven by one Rng.
class Harness {
 public:
  explicit Harness(std::uint64_t seed) : rng_(seed) {}

  /// Push at now + [0, spread): a small spread makes many time ties.
  std::uint64_t push(std::uint64_t spread) {
    const std::int64_t t =
        now_ + static_cast<std::int64_t>(rng_.below(spread));
    const std::uint64_t seq = ids_.size();
    const EventId id = q_.push(TimeNs{t}, [h = this, seq] { h->fire(seq); });
    EXPECT_NE(id, 0u);
    ids_.push_back(id);
    times_.push_back(t);
    pos_.push_back(pending_.size());
    pending_.push_back(seq);
    model_.emplace(t, seq);
    max_live_ = std::max(max_live_, model_.size());
    return seq;
  }

  /// Cancel a random pending event; kNone when nothing is pending.
  std::size_t cancel_pending() {
    if (pending_.empty()) {
      return kNone;
    }
    const std::uint64_t seq = pending_[rng_.below(pending_.size())];
    model_.erase({times_[seq], seq});
    unlist(seq);
    cancel(ids_[seq]);
    return seq;
  }

  /// Cancel an id that is no longer pending (fired or cancelled): a no-op.
  void cancel_settled() {
    if (ids_.empty()) {
      return;
    }
    const std::uint64_t seq = rng_.below(ids_.size());
    if (pos_[seq] == kNone) {
      cancel(ids_[seq]);
    }
  }

  /// Cancel ids the queue never issued: 0, a cell past the slab, and a live
  /// event's cell under a sequence not yet reached. All are no-ops.
  void cancel_never_issued() {
    cancel(0);
    cancel((std::uint64_t{1} << kCellBits) | kCellMask);
    if (!pending_.empty()) {
      const EventId live = ids_[pending_[rng_.below(pending_.size())]];
      const std::uint64_t future_seq = (ids_.back() >> kCellBits) + 1000;
      cancel((future_seq << kCellBits) | (live & kCellMask));
    }
  }

  /// Free a cell, push so the free list hands it out again, then cancel the
  /// id of the event that used to live there.
  void cancel_stale_after_reuse() {
    const std::size_t old = cancel_pending();
    if (old == kNone) {
      return;
    }
    const std::uint64_t fresh = push(4);
    if ((ids_[fresh] & kCellMask) == (ids_[old] & kCellMask)) {
      ++reused_;
    }
    cancel(ids_[old]);  // must not touch `fresh`
  }

  /// Pop one event through pop() or pop_until() and check it against the
  /// model's earliest pending (time, seq).
  void pop() {
    ASSERT_EQ(q_.empty(), model_.empty());
    if (model_.empty()) {
      return;
    }
    const auto [t, seq] = *model_.begin();
    ASSERT_EQ(q_.next_time(), TimeNs{t});
    std::optional<EventQueue::Fired> fired;
    if (rng_.chance(0.5)) {
      // A limit before the earliest event pops nothing.
      ASSERT_FALSE(q_.pop_until(TimeNs{t - 1}).has_value());
      fired = q_.pop_until(TimeNs{t});
      ASSERT_TRUE(fired.has_value());
    } else {
      fired = q_.pop();
    }
    ASSERT_EQ(fired->time, TimeNs{t});
    model_.erase(model_.begin());
    unlist(seq);
    now_ = t;
    const std::size_t at = fired_.size();
    fired->fn();
    ASSERT_GT(fired_.size(), at);
    EXPECT_EQ(fired_[at], seq);
    expected_.push_back(seq);
  }

  /// A burst of pushes from outside any callback.
  void burst(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      push(64);
    }
  }

  /// Cancel most pending events at once.
  void cancel_storm() {
    const std::size_t n = pending_.size() * 7 / 10;
    for (std::size_t i = 0; i < n; ++i) {
      cancel_pending();
    }
  }

  /// The live count the queue reports must be the model's.
  void check_counts() const {
    EXPECT_EQ(q_.size_including_cancelled() - q_.tombstones(), model_.size());
  }

  void drain() {
    while (!model_.empty()) {
      pop();
    }
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.tombstones(), 0u);
    EXPECT_EQ(q_.size_including_cancelled(), 0u);
    EXPECT_EQ(fired_, expected_);
  }

  void set_nesting(bool on) { nesting_ = on; }
  [[nodiscard]] std::size_t max_live() const { return max_live_; }
  [[nodiscard]] std::size_t reused() const { return reused_; }
  [[nodiscard]] std::size_t compactions() const { return compactions_; }
  [[nodiscard]] std::size_t callback_bursts() const {
    return callback_bursts_;
  }
  Rng& rng() { return rng_; }

 private:
  /// A callback: record the firing, and sometimes push and cancel.
  void fire(std::uint64_t seq) {
    fired_.push_back(seq);
    if (!nesting_) {
      return;
    }
    if (rng_.chance(0.3)) {
      push(4);
    }
    if (rng_.chance(0.2)) {
      cancel_pending();
    }
    if (rng_.chance(0.1)) {
      cancel_stale_after_reuse();
    }
    if (!burst_in_callback_done_ && rng_.chance(0.01)) {
      // Enough pushes from inside a callback to grow the slab under it.
      burst_in_callback_done_ = true;
      burst(1200);
      callback_bursts_ += model_.size() > 1024 ? 1u : 0u;
    }
  }

  void cancel(EventId id) {
    const std::size_t before = q_.size_including_cancelled();
    q_.cancel(id);
    // Only compaction shrinks the heap inside cancel().
    if (q_.size_including_cancelled() < before) {
      ++compactions_;
    }
  }

  /// Take a seq that stopped pending off the pending list.
  void unlist(std::uint64_t seq) {
    const std::size_t at = pos_[seq];
    const std::uint64_t last = pending_.back();
    pending_[at] = last;
    pos_[last] = at;
    pending_.pop_back();
    pos_[seq] = kNone;
  }

  EventQueue q_;
  Rng rng_;
  std::int64_t now_ = 0;
  bool nesting_ = true;
  std::set<std::pair<std::int64_t, std::uint64_t>> model_;  ///< pending
  std::vector<EventId> ids_;           ///< by seq
  std::vector<std::int64_t> times_;    ///< by seq
  std::vector<std::size_t> pos_;       ///< seq -> index in pending_, or kNone
  std::vector<std::uint64_t> pending_;  ///< seqs of pending events
  std::vector<std::uint64_t> fired_;    ///< seqs in the order they ran
  std::vector<std::uint64_t> expected_;  ///< the model's order
  std::size_t max_live_ = 0;
  std::size_t reused_ = 0;
  std::size_t compactions_ = 0;
  std::size_t callback_bursts_ = 0;
  bool burst_in_callback_done_ = false;
};

TEST(EventQueueDiff, MatchesOrderedReferenceModel) {
  constexpr int kRounds = 24;
  std::size_t max_live = 0;
  std::size_t reused = 0;
  std::size_t compactions = 0;
  std::size_t callback_bursts = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    Harness h(0xE0E0 + static_cast<std::uint64_t>(round));
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t pick = h.rng().below(1000);
      if (pick < 380) {
        h.push(pick < 190 ? 4u : 200u);
      } else if (pick < 700) {
        h.pop();
      } else if (pick < 800) {
        h.cancel_pending();
      } else if (pick < 880) {
        h.cancel_settled();
      } else if (pick < 940) {
        h.cancel_stale_after_reuse();
      } else if (pick < 990) {
        h.cancel_never_issued();
      } else if (pick < 993) {
        h.burst(400);
      } else {
        h.cancel_storm();
      }
      h.check_counts();
      if (HasFatalFailure()) {
        return;
      }
    }
    // Half the rounds drain with callbacks quiet, half with them nesting.
    h.set_nesting(round % 2 == 0);
    h.drain();
    max_live = std::max(max_live, h.max_live());
    reused += h.reused();
    compactions += h.compactions();
    callback_bursts += h.callback_bursts();
  }
  // The rounds reached every case the header promises.
  EXPECT_GT(max_live, 1024u);  // past the slab's initial reserve
  EXPECT_GT(reused, 0u);       // a stale id met its cell's new occupant
  EXPECT_GT(compactions, 0u);  // dead keys were swept wholesale
  EXPECT_GT(callback_bursts, 0u);  // a callback grew the live set past it
}

// The stale-id case on its own: an event fires, its cell is handed to the
// next push, and the fired event's id must not cancel the newcomer.
TEST(EventQueueDiff, StaleIdDoesNotCancelTheCellsNewOccupant) {
  EventQueue q;
  std::vector<int> ran;
  const EventId first = q.push(TimeNs{1}, [&ran] { ran.push_back(1); });
  q.pop().fn();
  const EventId second = q.push(TimeNs{2}, [&ran] { ran.push_back(2); });
  ASSERT_EQ(first & kCellMask, second & kCellMask);  // the cell was reused
  ASSERT_NE(first, second);
  q.cancel(first);
  const EventId third = q.push(TimeNs{3}, [&ran] { ran.push_back(3); });
  q.cancel(third);
  const EventId fourth = q.push(TimeNs{4}, [&ran] { ran.push_back(4); });
  ASSERT_EQ(third & kCellMask, fourth & kCellMask);
  q.cancel(third);
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(q.tombstones(), 0u);
}

}  // namespace
}  // namespace pmx
