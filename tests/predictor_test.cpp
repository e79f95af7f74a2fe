#include <gtest/gtest.h>

#include <algorithm>

#include "predictor/policy_engine.hpp"
#include "predictor/predictor.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

TEST(NoPolicy, NeverHoldsNeverEvicts) {
  PolicyEngine p("none", make_none_rank());
  EXPECT_FALSE(p.should_hold(Conn{0, 1}));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{0, 1}, 10_ns);
  EXPECT_TRUE(p.collect_evictions(1000000_ns).empty());
}

TEST(NeverEvictPolicy, AlwaysHoldsNeverEvicts) {
  PolicyEngine p("never-evict", make_never_evict_rank());
  EXPECT_TRUE(p.should_hold(Conn{0, 1}));
  p.on_establish(Conn{0, 1}, 0_ns);
  EXPECT_TRUE(p.collect_evictions(1000000_ns).empty());
}

TEST(TimeoutPolicy, EvictsAfterIdlePeriod) {
  PolicyEngine p("timeout", make_timeout_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  EXPECT_TRUE(p.collect_evictions(50_ns).empty());
  const auto evicted = p.collect_evictions(100_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{0, 1}));
  // Evicted connections are forgotten.
  EXPECT_TRUE(p.collect_evictions(1000_ns).empty());
}

TEST(TimeoutPolicy, UseResetsTheClock) {
  PolicyEngine p("timeout", make_timeout_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{0, 1}, 80_ns);
  EXPECT_TRUE(p.collect_evictions(150_ns).empty());  // 70 ns since use
  EXPECT_EQ(p.collect_evictions(180_ns).size(), 1u);
}

TEST(TimeoutPolicy, ReleaseStopsTracking) {
  PolicyEngine p("timeout", make_timeout_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_release(Conn{0, 1}, 50_ns);
  EXPECT_TRUE(p.collect_evictions(500_ns).empty());
  EXPECT_EQ(p.tracked(), 0u);
}

TEST(TimeoutPolicy, EvictionsAreSortedBySrcDst) {
  // Eviction order must not depend on hash or heap layout: the collector
  // normalizes to (src, dst) so scheduler unholds replay identically on
  // every platform.
  PolicyEngine p("timeout", make_timeout_rank(10_ns));
  const std::vector<Conn> conns{{7, 2}, {1, 9}, {7, 0}, {3, 3}, {0, 5}};
  for (const auto& c : conns) {
    p.on_establish(c, 0_ns);
  }
  const auto evicted = p.collect_evictions(100_ns);
  ASSERT_EQ(evicted.size(), conns.size());
  const std::vector<Conn> expect{{0, 5}, {1, 9}, {3, 3}, {7, 0}, {7, 2}};
  EXPECT_EQ(evicted, expect);
}

TEST(CounterPolicy, EvictionsAreSortedBySrcDst) {
  PolicyEngine p("counter", make_counter_rank(1));
  p.on_establish(Conn{9, 1}, 0_ns);
  p.on_establish(Conn{2, 4}, 0_ns);
  p.on_establish(Conn{5, 0}, 0_ns);
  p.on_use(Conn{0, 0}, 1_ns);
  p.on_use(Conn{0, 0}, 2_ns);
  auto evicted = p.collect_evictions(3_ns);
  // Conn{0,0} stays fresh; the three established conns age out in order.
  const std::vector<Conn> expect{{2, 4}, {5, 0}, {9, 1}};
  EXPECT_EQ(evicted, expect);
}

TEST(TimeoutPolicy, TracksConnectionsIndependently) {
  PolicyEngine p("timeout", make_timeout_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_establish(Conn{2, 3}, 60_ns);
  const auto evicted = p.collect_evictions(110_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{0, 1}));
  EXPECT_EQ(p.tracked(), 1u);
}

TEST(TimeoutPolicy, FlushForgetsEverything) {
  PolicyEngine p("timeout", make_timeout_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_establish(Conn{1, 2}, 0_ns);
  p.on_flush();
  EXPECT_EQ(p.tracked(), 0u);
  EXPECT_TRUE(p.collect_evictions(1000_ns).empty());
}

TEST(TimeoutPolicyDeathTest, RejectsNonPositiveTimeout) {
  EXPECT_DEATH(make_timeout_rank(0_ns), "positive");
}

TEST(CounterPolicy, EvictsAfterOtherUses) {
  PolicyEngine p("counter", make_counter_rank(3));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{0, 1}, 1_ns);
  // Three uses of other connections ripen (0,1).
  p.on_use(Conn{2, 3}, 2_ns);
  p.on_use(Conn{4, 5}, 3_ns);
  EXPECT_TRUE(p.collect_evictions(4_ns).empty());  // only 2 other uses
  p.on_use(Conn{2, 3}, 5_ns);
  const auto evicted = p.collect_evictions(6_ns);
  ASSERT_GE(evicted.size(), 1u);
  EXPECT_TRUE(std::find(evicted.begin(), evicted.end(), Conn{0, 1}) !=
              evicted.end());
}

TEST(CounterPolicy, OwnUseResetsCounter) {
  PolicyEngine p("counter", make_counter_rank(3));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{2, 3}, 1_ns);
  p.on_use(Conn{2, 3}, 2_ns);
  p.on_use(Conn{0, 1}, 3_ns);  // reset
  p.on_use(Conn{2, 3}, 4_ns);
  p.on_use(Conn{2, 3}, 5_ns);
  EXPECT_TRUE(p.collect_evictions(6_ns).empty());  // only 2 since reset
}

TEST(CounterPolicy, NoCommunicationMeansNoEviction) {
  // The paper's motivation for the counter scheme: a compute phase with no
  // communication must not age connections.
  PolicyEngine p("counter", make_counter_rank(3));
  p.on_establish(Conn{0, 1}, 0_ns);
  // Arbitrarily long "time" passes with no uses at all.
  EXPECT_TRUE(p.collect_evictions(TimeNs{1000000000}).empty());
}

TEST(CounterPolicy, ReleaseStopsTracking) {
  PolicyEngine p("counter", make_counter_rank(2));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_release(Conn{0, 1}, 1_ns);
  p.on_use(Conn{2, 3}, 2_ns);
  p.on_use(Conn{4, 5}, 3_ns);
  EXPECT_TRUE(p.collect_evictions(4_ns).empty());
}

TEST(CounterPolicy, FlushForgetsEverything) {
  PolicyEngine p("counter", make_counter_rank(2));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_flush();
  p.on_use(Conn{2, 3}, 1_ns);
  p.on_use(Conn{4, 5}, 2_ns);
  EXPECT_TRUE(p.collect_evictions(3_ns).empty());
  EXPECT_EQ(p.tracked(), 2u);  // only the connections used after the flush
}

TEST(CounterPolicyDeathTest, RejectsZeroThreshold) {
  EXPECT_DEATH(make_counter_rank(0), "positive");
}

TEST(LruPolicy, EvictsLeastRecentlyUsedBeyondCapacity) {
  PolicyEngine p("lru", make_lru_rank(2));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_establish(Conn{2, 3}, 10_ns);
  EXPECT_TRUE(p.collect_evictions(20_ns).empty());  // at capacity, no evict
  p.on_establish(Conn{4, 5}, 30_ns);
  const auto evicted = p.collect_evictions(40_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{0, 1}));  // coldest entry goes
  EXPECT_EQ(p.tracked(), 2u);
}

TEST(LruPolicy, UseRefreshesRecency) {
  PolicyEngine p("lru", make_lru_rank(2));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_establish(Conn{2, 3}, 10_ns);
  p.on_use(Conn{0, 1}, 20_ns);  // (2,3) is now the LRU entry
  p.on_establish(Conn{4, 5}, 30_ns);
  const auto evicted = p.collect_evictions(40_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{2, 3}));
}

TEST(LfuDecayPolicy, KeepsFrequentlyUsedEntries) {
  PolicyEngine p("lfu-decay", make_lfu_decay_rank(2, 1000_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{0, 1}, 1_ns);
  p.on_use(Conn{0, 1}, 2_ns);
  p.on_use(Conn{0, 1}, 3_ns);
  p.on_establish(Conn{2, 3}, 4_ns);
  p.on_use(Conn{2, 3}, 5_ns);
  p.on_establish(Conn{4, 5}, 6_ns);  // over capacity; (2,3) has lowest freq
  const auto evicted = p.collect_evictions(7_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{4, 5}));  // unused newcomer has freq 0
  EXPECT_TRUE(p.is_tracked(Conn{0, 1}));
}

TEST(LfuDecayPolicy, FrequencyDecaysOverTime) {
  PolicyEngine p("lfu-decay", make_lfu_decay_rank(2, 100_ns));
  // (0,1) is hot early, then goes idle for many half-lives.
  p.on_establish(Conn{0, 1}, 0_ns);
  for (int i = 1; i <= 8; ++i) {
    p.on_use(Conn{0, 1}, TimeNs{i});
  }
  // (2,3) stays warm with recent uses.
  p.on_establish(Conn{2, 3}, 10_ns);
  p.on_use(Conn{2, 3}, 2000_ns);
  p.on_use(Conn{2, 3}, 2001_ns);
  // Touch (0,1) once after the long idle gap: its old score has decayed.
  p.on_use(Conn{0, 1}, 2002_ns);
  p.on_establish(Conn{4, 5}, 2003_ns);
  p.on_use(Conn{4, 5}, 2004_ns);
  p.on_use(Conn{4, 5}, 2005_ns);
  const auto evicted = p.collect_evictions(2006_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{0, 1}));  // decayed below both warm entries
}

TEST(DeadlinePolicy, EvictsAtLifetimeRegardlessOfUse) {
  PolicyEngine p("deadline", make_deadline_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{0, 1}, 90_ns);  // use does not extend the lease
  const auto evicted = p.collect_evictions(100_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{0, 1}));
}

TEST(DeadlinePolicy, ReEstablishRestartsTheLease) {
  PolicyEngine p("deadline", make_deadline_rank(100_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_establish(Conn{0, 1}, 80_ns);  // re-establish restarts the clock
  EXPECT_TRUE(p.collect_evictions(100_ns).empty());
  EXPECT_EQ(p.collect_evictions(180_ns).size(), 1u);
}

TEST(HybridPolicy, FrequencyBreaksRecencyTies) {
  // w_recency=1 with a coarse quantum: entries used in the same quantum
  // tie on recency, and the frequency term decides who is evicted.
  PolicyEngine p("hybrid", make_hybrid_rank(2, 1, 4, 1000_ns, 10000_ns));
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_use(Conn{0, 1}, 1_ns);
  p.on_use(Conn{0, 1}, 2_ns);
  p.on_establish(Conn{2, 3}, 3_ns);
  p.on_use(Conn{2, 3}, 4_ns);
  p.on_establish(Conn{4, 5}, 5_ns);
  p.on_use(Conn{4, 5}, 6_ns);
  p.on_use(Conn{4, 5}, 7_ns);
  p.on_use(Conn{4, 5}, 8_ns);
  const auto evicted = p.collect_evictions(9_ns);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], (Conn{2, 3}));  // least frequently used of the tie
}

TEST(PolicyEngine, HeapCompactsUnderChurn) {
  // Heavy re-touching of a small tracked set must not grow the lazy heap
  // without bound: stale keys are reaped once the heap passes 4x tracked.
  PolicyEngine p("timeout", make_timeout_rank(1000000_ns));
  for (int i = 0; i < 10000; ++i) {
    p.on_use(Conn{static_cast<NodeId>(i % 4), 9}, TimeNs{i});
  }
  EXPECT_EQ(p.tracked(), 4u);
  EXPECT_LE(p.heap_size(), 64u + 4u);
}

TEST(PolicyEngine, MirrorsHoldLatches) {
  PolicyEngine p("timeout", make_timeout_rank(100_ns));
  EXPECT_TRUE(p.mirrors_holds());
  p.on_establish(Conn{0, 1}, 0_ns);
  p.on_hold(Conn{0, 1}, 0_ns);
  EXPECT_TRUE(p.believes_held(Conn{0, 1}));
  EXPECT_EQ(p.held_count(), 1u);
  // Eviction drops the mirror entry with the tracked entry.
  EXPECT_EQ(p.collect_evictions(100_ns).size(), 1u);
  EXPECT_FALSE(p.believes_held(Conn{0, 1}));
  EXPECT_EQ(p.held_count(), 0u);
  // Release and flush do too.
  p.on_establish(Conn{2, 3}, 200_ns);
  p.on_hold(Conn{2, 3}, 200_ns);
  p.on_release(Conn{2, 3}, 201_ns);
  EXPECT_EQ(p.held_count(), 0u);
  p.on_hold(Conn{4, 5}, 300_ns);
  p.on_flush();
  EXPECT_EQ(p.held_count(), 0u);
}

TEST(PolicySpec, ParseAndLabelRoundTrip) {
  EXPECT_EQ(PolicySpec::parse("timeout:400").timeout_ns, 400);
  EXPECT_EQ(PolicySpec::parse("timeout:400").label(), "timeout-400");
  EXPECT_EQ(PolicySpec::parse("counter:64").threshold, 64u);
  EXPECT_EQ(PolicySpec::parse("lru:12").capacity, 12u);
  EXPECT_EQ(PolicySpec::parse("lfu-decay:8").label(), "lfu-decay-8");
  EXPECT_EQ(PolicySpec::parse("deadline:5000").lifetime_ns, 5000);
  EXPECT_EQ(PolicySpec::parse("phase:300").label(), "phase-300");
  EXPECT_EQ(PolicySpec::parse("hybrid:6").label(), "hybrid-6");
  EXPECT_EQ(PolicySpec::parse("none").label(), "none");
  EXPECT_EQ(PolicySpec::parse("never-evict").label(), "never-evict");
}

TEST(PolicySpecDeathTest, RejectsBadSpecs) {
  EXPECT_DEATH(PolicySpec::parse("frobnicate"), "unknown policy");
  EXPECT_DEATH(PolicySpec::parse("timeout:0"), "positive");
  EXPECT_DEATH(PolicySpec::parse("lru:0"), "positive");
  EXPECT_DEATH(PolicySpec::parse("none:3"), "no parameter");
  EXPECT_DEATH(PolicySpec::parse("timeout:abc"), "integer");
}

TEST(PolicyFactories, ProduceExpectedNames) {
  EXPECT_EQ(make_policy(PolicySpec::parse("lru:4"))->name(), "lru");
  EXPECT_EQ(make_policy(PolicySpec::parse("lfu-decay:4"))->name(),
            "lfu-decay");
  EXPECT_EQ(make_policy(PolicySpec::parse("deadline:100"))->name(),
            "deadline");
  EXPECT_EQ(make_policy(PolicySpec::parse("hybrid:4"))->name(), "hybrid");
  EXPECT_EQ(make_policy(PolicySpec::parse("phase:100"))->name(), "phase");
}

}  // namespace
}  // namespace pmx
