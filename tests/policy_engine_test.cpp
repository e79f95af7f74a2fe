// Randomized differential test for the PolicyEngine's lazy-heap core: every
// policy is driven through long random event histories and checked, after
// every step, against a naive O(n^2) reference evictor that shares nothing
// with the engine but the RankFn contract (linear scans over a sorted map
// instead of a heap over packed entries and a pair index). Any divergence in
// eviction batches, in the tracked and held state of any pair the history
// touched, or in the counts fails with the offending seed in the message.
//
// The op mix includes the hostile schedules the control-plane layers
// produce: port-fault release storms (every connection on a port force-
// released at once), resync-style repeated collections at one timestamp,
// hold latches on already-evicted connections (the "held forever" quirk),
// and flushes. Histories run at 8 and at 130 ports; at 130 the port range
// widens as the history goes on, so the engine's pair index grows past 64
// and past 128 ports while entries are live.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "predictor/policy_engine.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

/// Connections compared by (src, dst): the reference keeps its state in a
/// sorted std::map, so its scans are deterministic by construction.
struct ConnLess {
  bool operator()(const Conn& a, const Conn& b) const {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
};

/// Naive reference evictor: same RankFn contract, O(n^2) collection by
/// repeated linear minimum scans. Mirrors the engine's documented upsert
/// semantics (touch before the generic field refresh, epoch-before-mark,
/// rank-neutral hold latches) without sharing any code with the heap.
class ReferenceEvictor {
 public:
  ReferenceEvictor(std::unique_ptr<RankFn> rank, TimeNs idle_ttl)
      : rank_(std::move(rank)), idle_ttl_(idle_ttl) {}

  void on_establish(const Conn& c, TimeNs now) { upsert(c, now, Op::kEst); }
  void on_use(const Conn& c, TimeNs now) {
    ++use_epoch_;
    upsert(c, now, Op::kUse);
  }
  void on_release(const Conn& c) {
    entries_.erase(c);
    held_.erase(c);
  }
  void on_hold(const Conn& c, TimeNs now) {
    held_[c] = true;
    upsert(c, now, Op::kHold);
  }
  void on_flush() {
    entries_.clear();
    held_.clear();
  }

  std::vector<Conn> collect_evictions(TimeNs now) {
    const EngineView v{now, use_epoch_, entries_.size()};
    std::vector<Conn> evict;
    if (idle_ttl_ > 0_ns) {
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.last_use.ns() + idle_ttl_.ns() <= now.ns()) {
          evict.push_back(it->first);
          held_.erase(it->first);
          it = entries_.erase(it);
        } else {
          ++it;
        }
      }
    }
    const Rank horizon = rank_->horizon(v);
    if (horizon != kNoHorizon) {
      // Repeated full scans for the minimum, evicting while expired.
      while (!entries_.empty()) {
        const auto min = min_entry(v);
        if (rank_->rank(min->second, v) > horizon) {
          break;
        }
        evict.push_back(min->first);
        held_.erase(min->first);
        entries_.erase(min);
      }
    }
    const std::size_t cap = rank_->capacity();
    if (cap > 0) {
      while (entries_.size() > cap) {
        const auto min = min_entry(v);
        evict.push_back(min->first);
        held_.erase(min->first);
        entries_.erase(min);
      }
    }
    std::sort(evict.begin(), evict.end(), [](const Conn& a, const Conn& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    return evict;
  }

  [[nodiscard]] std::size_t tracked() const { return entries_.size(); }
  [[nodiscard]] bool is_tracked(const Conn& c) const {
    return entries_.contains(c);
  }
  [[nodiscard]] std::size_t held_count() const { return held_.size(); }
  [[nodiscard]] bool believes_held(const Conn& c) const {
    return held_.contains(c);
  }
  [[nodiscard]] std::vector<Conn> tracked_conns() const {
    std::vector<Conn> out;
    for (const auto& [c, s] : entries_) {
      out.push_back(c);
    }
    return out;
  }

 private:
  enum class Op { kEst, kUse, kHold };
  using Map = std::map<Conn, FlowState, ConnLess>;

  void upsert(const Conn& c, TimeNs now, Op op) {
    const EngineView v{now, use_epoch_, entries_.size()};
    auto it = entries_.find(c);
    if (it == entries_.end()) {
      FlowState fresh;
      fresh.conn = c;
      fresh.established = now;
      fresh.last_use = now;
      fresh.last_use_epoch = use_epoch_;
      it = entries_.emplace(c, fresh).first;
    } else if (op == Op::kHold) {
      return;  // latching an already-tracked entry is rank-neutral
    }
    FlowState& s = it->second;
    rank_->touch(s, v, op == Op::kUse);
    if (op == Op::kEst) {
      s.established = now;
    }
    s.last_use = now;
    s.last_use_epoch = use_epoch_;
    if (op == Op::kUse) {
      ++s.uses;
    }
  }

  /// Lowest (rank, src, dst) by linear scan; the map's key order breaks
  /// rank ties in (src, dst) order for free.
  Map::iterator min_entry(const EngineView& v) {
    auto best = entries_.begin();
    Rank best_rank = rank_->rank(best->second, v);
    for (auto it = std::next(best); it != entries_.end(); ++it) {
      const Rank r = rank_->rank(it->second, v);
      if (r < best_rank) {
        best = it;
        best_rank = r;
      }
    }
    return best;
  }

  std::unique_ptr<RankFn> rank_;
  TimeNs idle_ttl_;
  Map entries_;
  std::map<Conn, bool, ConnLess> held_;
  std::uint64_t use_epoch_ = 0;
};

struct DifferentialCase {
  std::string policy_token;
  std::int64_t idle_ttl_ns = 0;  ///< engine valve (capacity policies)
};

std::unique_ptr<RankFn> case_rank(const DifferentialCase& c) {
  return make_rank_fn(PolicySpec::parse(c.policy_token));
}

/// Every pair in `touched` is tracked and held alike on both sides, and the
/// counts agree.
void expect_same_state(const PolicyEngine& engine,
                       const ReferenceEvictor& reference,
                       const std::set<Conn, ConnLess>& touched,
                       const std::string& where) {
  ASSERT_EQ(engine.tracked(), reference.tracked()) << where;
  ASSERT_EQ(engine.held_count(), reference.held_count()) << where;
  for (const Conn& c : touched) {
    if (engine.is_tracked(c) != reference.is_tracked(c) ||
        engine.believes_held(c) != reference.believes_held(c)) {
      FAIL() << where << ": pair (" << c.src << ", " << c.dst
             << ") tracked " << engine.is_tracked(c) << "/"
             << reference.is_tracked(c) << ", held "
             << engine.believes_held(c) << "/" << reference.believes_held(c)
             << " (engine/reference)";
    }
  }
}

/// One random history over `nodes` ports: engine and reference receive
/// identical event streams and must agree on every eviction batch and on the
/// state of every pair the history touched.
void run_history(const DifferentialCase& case_, std::size_t nodes,
                 std::uint64_t seed) {
  PolicyEngine engine("diff", case_rank(case_), nullptr,
                      TimeNs{case_.idle_ttl_ns});
  ReferenceEvictor reference(case_rank(case_), TimeNs{case_.idle_ttl_ns});
  const std::string where = case_.policy_token + " nodes " +
                            std::to_string(nodes) + " seed " +
                            std::to_string(seed);

  Rng rng(seed);
  TimeNs now{0};
  std::size_t op = 0;
  // Past 8 ports, half the draws come from the first 8 (so pairs recur)
  // and half from a window that widens by one port per step.
  const auto random_port = [&] {
    if (nodes <= 8 || rng.below(2) == 0) {
      return static_cast<NodeId>(rng.below(std::min<std::size_t>(nodes, 8)));
    }
    return static_cast<NodeId>(rng.below(std::min(nodes, 8 + op)));
  };
  std::set<Conn, ConnLess> touched;
  const auto random_conn = [&] {
    const NodeId src = random_port();
    const Conn c{src, random_port()};
    touched.insert(c);
    return c;
  };

  const std::size_t ops = 120 + rng.below(120);
  for (; op < ops; ++op) {
    now = now + TimeNs{rng.range(0, 80)};  // bursts share timestamps
    const std::uint64_t pick = rng.below(100);
    if (pick < 30) {
      const Conn c = random_conn();
      engine.on_establish(c, now);
      reference.on_establish(c, now);
    } else if (pick < 60) {
      const Conn c = random_conn();
      engine.on_use(c, now);
      reference.on_use(c, now);
    } else if (pick < 68) {
      const Conn c = random_conn();
      engine.on_release(c, now);
      reference.on_release(c);
    } else if (pick < 76) {
      // Hold latch -- sometimes for a connection long since evicted (the
      // "held forever" quirk the scheduler can produce under lossy
      // control); the predictor must start tracking it again.
      const Conn c = random_conn();
      engine.on_hold(c, now);
      reference.on_hold(c, now);
    } else if (pick < 82) {
      // Port-fault release storm: every connection touching one node is
      // force-released in one burst, like set_port_fault does.
      const NodeId port = random_port();
      for (const Conn& c : reference.tracked_conns()) {
        if (c.src == port || c.dst == port) {
          engine.on_release(c, now);
          reference.on_release(c);
        }
      }
    } else if (pick < 86) {
      engine.on_flush();
      reference.on_flush();
    } else {
      // Collection; with probability ~1/3 collect twice at the same
      // timestamp (resync interleaving) -- the second batch must be empty
      // on both sides.
      const auto got = engine.collect_evictions(now);
      const auto want = reference.collect_evictions(now);
      ASSERT_EQ(got, want) << where;
      if (rng.below(3) == 0) {
        const auto again = engine.collect_evictions(now);
        const auto ref_again = reference.collect_evictions(now);
        ASSERT_EQ(again, ref_again) << where;
      }
    }
    expect_same_state(engine, reference, touched, where);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // Final drain: advance far enough that every horizon policy expires
  // everything it ever will, and compare the terminal batches.
  now = now + TimeNs{100000};
  ASSERT_EQ(engine.collect_evictions(now), reference.collect_evictions(now))
      << where;
  expect_same_state(engine, reference, touched, where);
}

class PolicyDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(PolicyDifferential, MatchesNaiveReferenceAcrossSeeds) {
  // 1000+ random histories per policy and port count; each history is a
  // couple of hundred events, so the sweep stays around a second per policy.
  for (const std::size_t nodes : {8u, 130u}) {
    for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
      run_history(GetParam(), nodes, seed);
      if (::testing::Test::HasFatalFailure()) {
        return;  // the seed is in the assertion message; stop at the first
      }
    }
  }
}

// A flush forgets every entry at once; touching the same pairs afterwards
// must start them afresh, held or not, at low and high ports alike.
TEST_P(PolicyDifferential, FlushThenRetouchMatchesReference) {
  const DifferentialCase& case_ = GetParam();
  PolicyEngine engine("diff", case_rank(case_), nullptr,
                      TimeNs{case_.idle_ttl_ns});
  ReferenceEvictor reference(case_rank(case_), TimeNs{case_.idle_ttl_ns});
  const std::vector<Conn> pairs{{0, 1},   {1, 0},   {3, 63},  {63, 64},
                                {64, 3},  {127, 0}, {128, 129}, {129, 64}};
  const std::set<Conn, ConnLess> touched(pairs.begin(), pairs.end());
  TimeNs now{0};
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      now = now + TimeNs{10};
      engine.on_establish(pairs[i], now);
      reference.on_establish(pairs[i], now);
      engine.on_use(pairs[i], now);
      reference.on_use(pairs[i], now);
      if ((i + static_cast<std::size_t>(round)) % 2 == 0) {
        engine.on_hold(pairs[i], now);
        reference.on_hold(pairs[i], now);
      }
    }
    const std::string where =
        case_.policy_token + " round " + std::to_string(round);
    expect_same_state(engine, reference, touched, where + " before flush");
    ASSERT_EQ(engine.collect_evictions(now), reference.collect_evictions(now))
        << where;
    engine.on_flush();
    reference.on_flush();
    expect_same_state(engine, reference, touched, where + " after flush");
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  now = now + TimeNs{100000};
  ASSERT_EQ(engine.collect_evictions(now), reference.collect_evictions(now));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDifferential,
    ::testing::Values(DifferentialCase{"none"},
                      DifferentialCase{"never-evict"},
                      DifferentialCase{"timeout:100"},
                      DifferentialCase{"counter:6"},
                      DifferentialCase{"lru:5"},
                      DifferentialCase{"lru:5", 900},
                      DifferentialCase{"lfu-decay:5"},
                      DifferentialCase{"lfu-decay:5", 900},
                      DifferentialCase{"deadline:500"},
                      DifferentialCase{"hybrid:5"},
                      DifferentialCase{"hybrid:5", 900}),
    [](const ::testing::TestParamInfo<DifferentialCase>& param) {
      std::string name = param.param.policy_token;
      for (char& c : name) {
        if (c == ':' || c == '-') {
          c = '_';
        }
      }
      return name + (param.param.idle_ttl_ns > 0 ? "_ttl" : "");
    });

}  // namespace
}  // namespace pmx
