// Differential test of VoqSet against VoqSetRef, the std::deque VOQs it
// replaced. VoqSet keeps every queue as an intrusive list over one slab
// whose entries a free list reuses, so besides random pushes, partial and
// full consumes and oldest/youngest evictions (finite cutoffs, protected
// heads), every round drives the cases a slab can get wrong and a deque
// could not: a push into an entry freed by a full drain, an eviction from
// the middle or the tail of a list followed by pushes to the same list, and
// re-pushes of messages already queued (an ARQ retransmit re-enters
// do_submit with its original id and submit_time), which make
// (submit_time, id) ties that evict must break by queue order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "common/message.hpp"
#include "common/rng.hpp"
#include "nic/voq.hpp"

namespace pmx {
namespace {

/// The std::deque VoqSet, kept as the oracle. `evict` also reports where
/// in its queue the victim sat, so the rounds can require the tail cases.
class VoqSetRef {
 public:
  explicit VoqSetRef(std::size_t num_dests)
      : queues_(num_dests), pending_(num_dests) {}

  void push(const Message& msg) {
    queues_[msg.dst].push_back(Entry{msg, msg.bytes});
    pending_.set(msg.dst);
    total_bytes_ += msg.bytes;
    ++total_msgs_;
  }

  [[nodiscard]] bool empty(NodeId dst) const { return queues_[dst].empty(); }
  [[nodiscard]] std::size_t depth(NodeId dst) const {
    return queues_[dst].size();
  }
  [[nodiscard]] std::size_t total_depth() const { return total_msgs_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t bytes(NodeId dst) const {
    std::uint64_t total = 0;
    for (const Entry& e : queues_[dst]) {
      total += e.remaining;
    }
    return total;
  }
  [[nodiscard]] const Message& head(NodeId dst) const {
    return queues_[dst].front().msg;
  }
  [[nodiscard]] std::uint64_t head_remaining(NodeId dst) const {
    return queues_[dst].front().remaining;
  }
  [[nodiscard]] const BitVector& pending() const { return pending_; }

  std::uint64_t consume(NodeId dst, std::uint64_t budget, Message* completed) {
    Entry& e = queues_[dst].front();
    const std::uint64_t taken = std::min(budget, e.remaining);
    e.remaining -= taken;
    total_bytes_ -= taken;
    if (e.remaining == 0) {
      if (completed != nullptr) {
        *completed = e.msg;
      }
      queues_[dst].pop_front();
      --total_msgs_;
      if (queues_[dst].empty()) {
        pending_.clear(dst);
      }
    } else if (completed != nullptr) {
      *completed = Message{};
    }
    return taken;
  }

  /// Where evict found its victim: its position and its queue's depth.
  struct EvictSpot {
    std::size_t pos = 0;
    std::size_t depth = 0;
  };

  std::optional<Message> evict(bool oldest, TimeNs cutoff,
                               std::optional<NodeId> protect_dst,
                               EvictSpot* spot) {
    NodeId best_dst = 0;
    std::size_t best_pos = 0;
    const Message* best = nullptr;
    const auto better = [&](const Message& m) {
      if (best == nullptr) {
        return true;
      }
      if (m.submit_time != best->submit_time) {
        return oldest ? m.submit_time < best->submit_time
                      : m.submit_time > best->submit_time;
      }
      return oldest ? m.id < best->id : m.id > best->id;
    };
    pending_.for_each_set([&](std::size_t d) {
      const auto& q = queues_[d];
      for (std::size_t pos = 0; pos < q.size(); ++pos) {
        const Entry& e = q[pos];
        if (pos == 0 && (e.remaining != e.msg.bytes ||
                         (protect_dst.has_value() && *protect_dst == d))) {
          continue;
        }
        if (e.msg.submit_time > cutoff) {
          continue;
        }
        if (better(e.msg)) {
          best = &e.msg;
          best_dst = static_cast<NodeId>(d);
          best_pos = pos;
        }
      }
    });
    if (best == nullptr) {
      return std::nullopt;
    }
    const Message victim = *best;
    auto& q = queues_[best_dst];
    *spot = EvictSpot{best_pos, q.size()};
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(best_pos));
    total_bytes_ -= victim.bytes;
    --total_msgs_;
    if (q.empty()) {
      pending_.clear(best_dst);
    }
    return victim;
  }

 private:
  struct Entry {
    Message msg;
    std::uint64_t remaining;
  };
  std::vector<std::deque<Entry>> queues_;
  BitVector pending_;
  std::uint64_t total_bytes_ = 0;
  std::size_t total_msgs_ = 0;
};

void expect_same(const Message& got, const Message& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.submit_time, want.submit_time);
  EXPECT_EQ(got.phase, want.phase);
}

/// How often a round reached each case the slab must get right.
struct Coverage {
  std::size_t pushes_after_drain = 0;  ///< first push after a full drain
  std::size_t repushes = 0;
  std::size_t partial_consumes = 0;
  std::size_t full_consumes = 0;
  std::size_t tail_evictions = 0;  ///< last of two or more in its queue
  std::size_t sole_evictions = 0;  ///< the only one in its queue
  std::size_t inner_evictions = 0;  ///< neither head nor tail
  std::size_t protected_evictions = 0;
  std::size_t empty_evictions = 0;  ///< nothing qualified
};

/// VoqSet and VoqSetRef driven by one Rng, compared after every step.
class Harness {
 public:
  Harness(std::size_t n, std::uint64_t seed, Coverage& cov)
      : n_(n), rng_(seed), voqs_(n), ref_(n), cov_(cov) {
    // A few destinations take half the traffic, so some lists grow long
    // enough for inner and tail evictions; for n = 130 they sit at word
    // edges of pending().
    hot_ = {0, std::min<NodeId>(64, n - 1), n - 1};
  }

  [[nodiscard]] std::size_t total_depth() const { return ref_.total_depth(); }

  void push() {
    Message m;
    const bool repush = !sent_.empty() && rng_.chance(0.15);
    if (repush) {
      m = sent_[rng_.below(sent_.size())];
      ++cov_.repushes;
    } else {
      m.id = next_id_++;
      m.dst = rng_.chance(0.5) ? hot_[rng_.below(hot_.size())]
                               : static_cast<NodeId>(rng_.below(n_));
      m.bytes = 1 + rng_.below(rng_.chance(0.2) ? 8 : 600);
      m.submit_time = TimeNs{now_};
      m.phase = rng_.below(4);
      sent_.push_back(m);
    }
    if (drained_) {
      ++cov_.pushes_after_drain;
      drained_ = false;
    }
    voqs_.push(m);
    ref_.push(m);
    now_ += static_cast<std::int64_t>(rng_.below(3));  // many time ties
    check();
  }

  void consume() {
    const std::optional<NodeId> dst = random_pending();
    if (!dst.has_value()) {
      return;
    }
    const std::uint64_t left = ref_.head_remaining(*dst);
    std::uint64_t budget = 0;
    if (left > 1 && rng_.chance(0.4)) {
      budget = 1 + rng_.below(left - 1);
      ++cov_.partial_consumes;
    } else {
      budget = left + rng_.below(300);
      ++cov_.full_consumes;
    }
    if (rng_.chance(0.1)) {
      EXPECT_EQ(voqs_.consume(*dst, budget, nullptr),
                ref_.consume(*dst, budget, nullptr));
    } else {
      Message got;
      Message want;
      got.id = 12345;  // overwritten: the id-0 sentinel or the message
      EXPECT_EQ(voqs_.consume(*dst, budget, &got),
                ref_.consume(*dst, budget, &want));
      expect_same(got, want);
    }
    note_drain();
    check();
  }

  void evict() {
    const bool oldest = rng_.chance(0.5);
    const auto back = static_cast<std::int64_t>(rng_.below(40));
    const TimeNs cutoff =
        rng_.chance(0.3) ? TimeNs::never() : TimeNs{now_ - back};
    std::optional<NodeId> protect;
    if (rng_.chance(0.5)) {
      const std::optional<NodeId> d = random_pending();
      protect = d.has_value() ? *d : static_cast<NodeId>(rng_.below(n_));
    }
    VoqSetRef::EvictSpot spot;
    const std::optional<Message> got = voqs_.evict(oldest, cutoff, protect);
    const std::optional<Message> want =
        ref_.evict(oldest, cutoff, protect, &spot);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want.has_value()) {
      expect_same(*got, *want);
      if (spot.depth == 1) {
        ++cov_.sole_evictions;
      } else if (spot.pos + 1 == spot.depth) {
        ++cov_.tail_evictions;
      } else if (spot.pos > 0) {
        ++cov_.inner_evictions;
      }
      if (protect.has_value()) {
        ++cov_.protected_evictions;
      }
    } else {
      ++cov_.empty_evictions;
    }
    note_drain();
    check();
  }

  /// Every observable of the two sets, for every destination.
  void check() const {
    ASSERT_EQ(voqs_.num_dests(), n_);
    ASSERT_EQ(voqs_.total_depth(), ref_.total_depth());
    ASSERT_EQ(voqs_.total_bytes(), ref_.total_bytes());
    ASSERT_TRUE(voqs_.pending() == ref_.pending());
    for (NodeId d = 0; d < n_; ++d) {
      ASSERT_EQ(voqs_.empty(d), ref_.empty(d)) << "dst " << d;
      ASSERT_EQ(voqs_.depth(d), ref_.depth(d)) << "dst " << d;
      ASSERT_EQ(voqs_.bytes(d), ref_.bytes(d)) << "dst " << d;
      if (!ref_.empty(d)) {
        expect_same(voqs_.head(d), ref_.head(d));
        ASSERT_EQ(voqs_.head_remaining(d), ref_.head_remaining(d))
            << "dst " << d;
      }
    }
  }

 private:
  /// A random destination with queued traffic, or nullopt.
  std::optional<NodeId> random_pending() {
    const std::size_t d = ref_.pending().find_next_wrap(rng_.below(n_));
    if (d == n_) {
      return std::nullopt;
    }
    return static_cast<NodeId>(d);
  }

  void note_drain() {
    if (ref_.total_depth() == 0) {
      drained_ = true;
    }
  }

  std::size_t n_;
  Rng rng_;
  VoqSet voqs_;
  VoqSetRef ref_;
  std::vector<NodeId> hot_;
  std::vector<Message> sent_;
  MessageId next_id_ = 1;
  std::int64_t now_ = 0;
  bool drained_ = false;
  Coverage& cov_;
};

/// Seeded rounds at `n` destinations: each alternates a fill phase (mostly
/// pushes) and a drain phase (mostly consumes and evictions) that runs to a
/// full drain, so the next fill reuses freed entries.
void run_rounds(std::size_t n) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Harness h(n, 0x766f71 + seed * 977 + n, total);
    Rng coin(seed);
    for (int cycle = 0; cycle < 6; ++cycle) {
      const std::size_t fill = 20 + coin.below(2 * n);
      while (h.total_depth() < fill) {
        const std::uint64_t r = coin.below(10);
        if (r < 7) {
          h.push();
        } else if (r < 9) {
          h.consume();
        } else {
          h.evict();
        }
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
      while (h.total_depth() > 0) {
        const std::uint64_t r = coin.below(10);
        if (r < 1) {
          h.push();
        } else if (r < 6) {
          h.consume();
        } else {
          h.evict();
        }
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
  // The rounds reached every case, many times over: 5 drains per seed are
  // each followed by a fill.
  EXPECT_GE(total.pushes_after_drain, 12u * 5u);
  EXPECT_GT(total.repushes, 100u);
  EXPECT_GT(total.partial_consumes, 100u);
  EXPECT_GT(total.full_consumes, 100u);
  EXPECT_GT(total.tail_evictions, 20u);
  EXPECT_GT(total.sole_evictions, 20u);
  EXPECT_GT(total.inner_evictions, 20u);
  EXPECT_GT(total.protected_evictions, 100u);
  EXPECT_GT(total.empty_evictions, 0u);
}

TEST(VoqSetDiff, MatchesDequeOracleAt8Destinations) { run_rounds(8); }

TEST(VoqSetDiff, MatchesDequeOracleAt130Destinations) { run_rounds(130); }

}  // namespace
}  // namespace pmx
