// Churn regression for the event queue: heavy interleavings of push, cancel
// (before and after firing), and pop must preserve time order, FIFO order of
// ties, and cancel semantics -- and cancelling ids after their events
// already fired (the NIC retransmit-timer pattern) must leave nothing
// behind in the queue.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pmx {
namespace {

TEST(EventQueueChurn, RandomizedPushCancelPopMatchesModel) {
  Rng rng(1234);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    struct Model {
      std::int64_t time;
      std::uint64_t seq;
      bool cancelled = false;
    };
    std::vector<Model> model;
    std::vector<EventId> ids;
    std::vector<std::uint64_t> fired;

    std::uint64_t seq = 0;
    for (int op = 0; op < 500; ++op) {
      if (rng.chance(0.5) || ids.empty()) {
        const auto t = static_cast<std::int64_t>(rng.below(1000));
        const std::uint64_t my_seq = seq++;
        ids.push_back(q.push(TimeNs{t}, [&fired, my_seq] {
          fired.push_back(my_seq);
        }));
        model.push_back({t, my_seq});
      } else if (rng.chance(0.3)) {
        // Cancel a random id -- possibly one that already fired (no-op).
        const std::size_t pick = rng.below(ids.size());
        q.cancel(ids[pick]);
        model[pick].cancelled = true;
      } else if (!q.empty()) {
        auto ev = q.pop();
        ev.fn();
      }
    }
    while (!q.empty()) {
      q.pop().fn();
    }

    // Expected: every never-cancelled-while-pending event fires exactly
    // once, in (time, insertion) order among the not-yet-fired set. Build
    // the expectation from the model: events cancelled before they fired
    // are missing from `fired`.
    for (const auto& m : model) {
      const bool did_fire =
          std::find(fired.begin(), fired.end(), m.seq) != fired.end();
      if (m.cancelled) {
        // May or may not have fired (cancel could have come after the pop),
        // but never twice.
        EXPECT_LE(std::count(fired.begin(), fired.end(), m.seq), 1);
      } else {
        EXPECT_TRUE(did_fire) << "seq " << m.seq;
        EXPECT_EQ(std::count(fired.begin(), fired.end(), m.seq), 1);
      }
    }
  }
}

TEST(EventQueueChurn, DrainOrderIsTimeThenFifo) {
  EventQueue q;
  std::vector<int> order;
  Rng rng(99);
  struct Pushed {
    std::int64_t time;
    int tag;
  };
  std::vector<Pushed> pushed;
  for (int i = 0; i < 300; ++i) {
    const auto t = static_cast<std::int64_t>(rng.below(20));  // many ties
    q.push(TimeNs{t}, [&order, i] { order.push_back(i); });
    pushed.push_back({t, i});
  }
  std::int64_t last_time = -1;
  while (!q.empty()) {
    const TimeNs t = q.next_time();
    EXPECT_GE(t.ns(), last_time);
    last_time = t.ns();
    q.pop().fn();
  }
  ASSERT_EQ(order.size(), pushed.size());
  // Stable sort of the input by time is exactly the drain order.
  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const Pushed& a, const Pushed& b) {
                     return a.time < b.time;
                   });
  for (std::size_t i = 0; i < pushed.size(); ++i) {
    EXPECT_EQ(order[i], pushed[i].tag) << i;
  }
}

TEST(EventQueueChurn, CancelAfterFireDoesNotAccumulateTombstones) {
  EventQueue q;
  // The retransmit pattern: push a timer, pop+run it, then cancel the stale
  // id. Thousands of such cancels must not leave the queue holding
  // thousands of tombstones (they can never match a future entry).
  for (int i = 0; i < 5000; ++i) {
    const EventId id = q.push(TimeNs{i}, [] {});
    q.pop();
    q.cancel(id);  // stale: already fired
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size_including_cancelled(), 0u);
  // A fresh event still behaves normally afterwards.
  bool ran = false;
  q.push(TimeNs{1}, [&ran] { ran = true; });
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueueChurn, EmptyReflectsOnlyLiveEvents) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.push(TimeNs{i}, [] {}));
  }
  for (const EventId id : ids) {
    q.cancel(id);
  }
  EXPECT_TRUE(q.empty());  // all cancelled, none should surface via pop
}

TEST(EventQueueChurn, PendingCancelChurnCompactsTheHeap) {
  // The watchdog re-arm pattern: a long-lived far-future timer is pushed
  // and cancelled over and over while still pending. Lazy cancellation
  // alone would let the dead entries and their tombstones grow without
  // bound; the compaction sweep must keep both proportional to the live
  // set.
  EventQueue q;
  std::vector<EventId> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(q.push(TimeNs{1'000'000 + i}, [] {}));
  }
  for (int round = 0; round < 10'000; ++round) {
    const EventId id = q.push(TimeNs{2'000'000 + round}, [] {});
    q.cancel(id);  // cancelled while pending: a real tombstone
  }
  // 10k dead pushes against 100 live events: without compaction the heap
  // would hold ~10100 entries. With it, dead entries are swept every time
  // tombstones outnumber half the heap.
  EXPECT_LT(q.size_including_cancelled(), 500u);
  EXPECT_LT(q.tombstones(), 500u);
  // Every live event is still there and drains in order.
  std::size_t drained = 0;
  while (!q.empty()) {
    q.pop();
    ++drained;
  }
  EXPECT_EQ(drained, live.size());
}

TEST(EventQueueChurn, CompactionPreservesOrderAndCancelSemantics) {
  Rng rng(4321);
  EventQueue q;
  struct Model {
    std::int64_t time;
    std::uint64_t seq;
    bool cancelled = false;
  };
  std::vector<Model> model;
  std::vector<EventId> ids;
  std::vector<std::uint64_t> fired;
  std::uint64_t seq = 0;
  // Heavy pending-cancel churn (70% cancel rate) to force many compaction
  // sweeps, then drain and compare against the model.
  for (int op = 0; op < 20'000; ++op) {
    const auto t = static_cast<std::int64_t>(rng.below(100'000));
    const std::uint64_t my_seq = seq++;
    ids.push_back(q.push(TimeNs{t}, [&fired, my_seq] {
      fired.push_back(my_seq);
    }));
    model.push_back({t, my_seq});
    if (rng.chance(0.7)) {
      const std::size_t pick = rng.below(ids.size());
      q.cancel(ids[pick]);
      model[pick].cancelled = true;
    }
  }
  while (!q.empty()) {
    q.pop().fn();
  }
  std::vector<std::uint64_t> expected;
  for (const auto& m : model) {
    if (!m.cancelled) {
      expected.push_back(m.seq);
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&model](std::uint64_t a, std::uint64_t b) {
                     return model[a].time < model[b].time;
                   });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(q.tombstones(), 0u);
}

}  // namespace
}  // namespace pmx
