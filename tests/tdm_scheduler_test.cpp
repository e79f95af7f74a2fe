#include "sched/tdm_scheduler.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pmx {
namespace {

TdmScheduler::Options opts(std::size_t n, std::size_t k) {
  TdmScheduler::Options o;
  o.num_ports = n;
  o.num_slots = k;
  return o;
}

TEST(TdmScheduler, StartsEmpty) {
  TdmScheduler sched(opts(8, 4));
  EXPECT_TRUE(sched.established().none());
  EXPECT_EQ(sched.live_mux_degree(), 0u);
  EXPECT_EQ(sched.current_slot(), std::nullopt);
  EXPECT_EQ(sched.advance_slot(), std::nullopt);  // all configs empty
}

TEST(TdmScheduler, EstablishesRequestedConnection) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(1, 5, true);
  const auto pass = sched.run_pass();
  ASSERT_TRUE(pass.slot.has_value());
  EXPECT_EQ(pass.establishes, 1u);
  EXPECT_TRUE(sched.is_established(1, 5));
  EXPECT_EQ(sched.live_mux_degree(), 1u);
}

TEST(TdmScheduler, ReleasesWhenRequestDrops) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(1, 5, true);
  sched.run_pass();
  sched.set_request(1, 5, false);
  // The connection lives in slot 0; passes cycle 1,2,3,0 so run up to K
  // passes to revisit it.
  for (std::size_t i = 0; i < sched.num_slots(); ++i) {
    sched.run_pass();
  }
  EXPECT_FALSE(sched.is_established(1, 5));
  EXPECT_EQ(sched.live_mux_degree(), 0u);
}

TEST(TdmScheduler, HoldKeepsConnectionAfterRequestDrops) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(1, 5, true);
  sched.run_pass();
  sched.hold(1, 5);
  sched.set_request(1, 5, false);
  for (std::size_t i = 0; i < sched.num_slots(); ++i) {
    sched.run_pass();
  }
  EXPECT_TRUE(sched.is_established(1, 5));
  sched.unhold(1, 5);
  for (std::size_t i = 0; i < sched.num_slots(); ++i) {
    sched.run_pass();
  }
  EXPECT_FALSE(sched.is_established(1, 5));
}

TEST(TdmScheduler, ConflictSpillsToAnotherSlot) {
  // Two connections competing for output 3 end up in different slots.
  TdmScheduler sched(opts(8, 4));
  sched.set_request(0, 3, true);
  sched.set_request(1, 3, true);
  sched.run_pass();  // slot 0: one of them gets in
  sched.run_pass();  // slot 1: the other
  EXPECT_TRUE(sched.is_established(0, 3));
  EXPECT_TRUE(sched.is_established(1, 3));
  EXPECT_EQ(sched.live_mux_degree(), 2u);
  EXPECT_NE(sched.slots_of(0, 3), sched.slots_of(1, 3));
}

TEST(TdmScheduler, NoDuplicateEstablishmentAcrossSlots) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(2, 6, true);
  for (int i = 0; i < 10; ++i) {
    sched.run_pass();
  }
  EXPECT_EQ(sched.slots_of(2, 6).size(), 1u);
}

TEST(TdmScheduler, MultiSlotExtensionDuplicatesIdleCapacity) {
  auto o = opts(8, 4);
  o.multi_slot_connections = true;
  TdmScheduler sched(o);
  sched.set_request(2, 6, true);
  for (int i = 0; i < 8; ++i) {
    sched.run_pass();
  }
  // With idle slots available, the connection is replicated into all of
  // them for added bandwidth (Section 4, extension 2).
  EXPECT_EQ(sched.slots_of(2, 6).size(), 4u);
}

TEST(TdmScheduler, AdvanceSkipsEmptySlots) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(0, 1, true);
  sched.run_pass();  // connection lands in slot 0
  EXPECT_EQ(sched.advance_slot(), 0u);
  // Slots 1..3 are empty; the TDM counter skips them and wraps to 0.
  EXPECT_EQ(sched.advance_slot(), 0u);
  EXPECT_GE(sched.stats().slots_skipped, 3u);
}

TEST(TdmScheduler, RotatesAmongNonEmptySlots) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(0, 3, true);
  sched.set_request(1, 3, true);  // conflict forces two slots
  sched.run_pass();
  sched.run_pass();
  const auto s1 = sched.advance_slot();
  const auto s2 = sched.advance_slot();
  const auto s3 = sched.advance_slot();
  ASSERT_TRUE(s1 && s2 && s3);
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ(*s1, *s3);  // alternates between the two non-empty slots
}

TEST(TdmScheduler, GrantsFollowActiveSlot) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(0, 3, true);
  sched.set_request(1, 3, true);
  sched.run_pass();
  sched.run_pass();
  sched.advance_slot();
  // Exactly one of the two conflicting connections is granted per slot.
  const bool g0 = sched.grant(0, 3);
  const bool g1 = sched.grant(1, 3);
  EXPECT_NE(g0, g1);
  sched.advance_slot();
  EXPECT_NE(sched.grant(0, 3), g0);
}

TEST(TdmScheduler, GrantedOutputReportsConnection) {
  TdmScheduler sched(opts(8, 2));
  sched.set_request(4, 2, true);
  sched.run_pass();
  sched.advance_slot();
  EXPECT_EQ(sched.granted_output(4), 2u);
  EXPECT_EQ(sched.granted_output(5), std::nullopt);
}

TEST(TdmScheduler, PreloadPinnedSlotServesGrants) {
  TdmScheduler sched(opts(8, 4));
  BitMatrix cfg(8);
  cfg.set(0, 1);
  cfg.set(1, 2);
  sched.preload(0, cfg, /*pinned=*/true);
  EXPECT_TRUE(sched.is_established(0, 1));
  EXPECT_EQ(sched.advance_slot(), 0u);
  EXPECT_TRUE(sched.grant(0, 1));
  EXPECT_TRUE(sched.grant(1, 2));
}

TEST(TdmScheduler, PinnedSlotNotTouchedByDynamicPasses) {
  TdmScheduler sched(opts(8, 4));
  BitMatrix cfg(8);
  cfg.set(0, 1);
  sched.preload(0, cfg, true);
  // No request for (0,1): a dynamic pass over slot 0 would release it, but
  // the slot is pinned so passes must skip it.
  for (int i = 0; i < 10; ++i) {
    const auto pass = sched.run_pass();
    if (pass.slot) {
      EXPECT_NE(*pass.slot, 0u);
    }
  }
  EXPECT_TRUE(sched.is_established(0, 1));
}

TEST(TdmScheduler, RequestCoveredByPreloadIsNotDuplicated) {
  TdmScheduler sched(opts(8, 4));
  BitMatrix cfg(8);
  cfg.set(0, 1);
  sched.preload(0, cfg, true);
  sched.set_request(0, 1, true);
  for (int i = 0; i < 8; ++i) {
    sched.run_pass();
  }
  // B* already covers the request; dynamic slots stay empty.
  EXPECT_EQ(sched.slots_of(0, 1).size(), 1u);
  EXPECT_EQ(sched.live_mux_degree(), 1u);
}

TEST(TdmScheduler, AllSlotsPinnedMeansNoDynamicScheduling) {
  TdmScheduler sched(opts(4, 2));
  BitMatrix cfg(4);
  cfg.set(0, 1);
  sched.preload(0, cfg, true);
  sched.preload(1, BitMatrix(4), true);
  sched.set_request(2, 3, true);
  const auto pass = sched.run_pass();
  EXPECT_EQ(pass.slot, std::nullopt);
  EXPECT_FALSE(sched.is_established(2, 3));
}

TEST(TdmSchedulerDeathTest, PreloadRejectsConflictedConfiguration) {
  // A configuration register cannot hold a conflicted state: two inputs on
  // one output is refused where the register is written.
  TdmScheduler sched(opts(4, 2));
  BitMatrix bad(4);
  bad.set(0, 1);
  bad.set(2, 1);
  EXPECT_DEATH(sched.preload(0, bad), "partial permutation");
}

TEST(TdmScheduler, UnloadFreesSlot) {
  TdmScheduler sched(opts(4, 2));
  BitMatrix cfg(4);
  cfg.set(0, 1);
  sched.preload(0, cfg, true);
  sched.unload(0);
  EXPECT_FALSE(sched.is_established(0, 1));
  EXPECT_FALSE(sched.pinned(0));
}

TEST(TdmScheduler, FlushDynamicKeepsPinnedSlots) {
  TdmScheduler sched(opts(8, 4));
  BitMatrix cfg(8);
  cfg.set(0, 1);
  sched.preload(0, cfg, true);
  sched.set_request(3, 4, true);
  sched.run_pass();
  EXPECT_TRUE(sched.is_established(3, 4));
  sched.flush_dynamic();
  EXPECT_FALSE(sched.is_established(3, 4));
  EXPECT_TRUE(sched.is_established(0, 1));  // pinned survives
  EXPECT_EQ(sched.stats().flushes, 1u);
}

TEST(TdmScheduler, FlushClearsHolds) {
  TdmScheduler sched(opts(8, 4));
  sched.set_request(1, 2, true);
  sched.run_pass();
  sched.hold(1, 2);
  sched.set_request(1, 2, false);
  sched.flush_dynamic();
  for (std::size_t i = 0; i < sched.num_slots(); ++i) {
    sched.run_pass();
  }
  EXPECT_FALSE(sched.is_established(1, 2));
}

TEST(TdmScheduler, StatsAccumulate) {
  TdmScheduler sched(opts(8, 2));
  sched.set_request(0, 1, true);
  sched.set_request(1, 1, true);
  sched.run_pass();
  EXPECT_EQ(sched.stats().passes, 1u);
  EXPECT_EQ(sched.stats().establishes, 1u);
  EXPECT_EQ(sched.stats().blocked, 1u);
}

// Property: under a random request churn the scheduler never produces a
// conflicted slot, B* always equals the OR of the slots, and every request
// is eventually established when capacity allows.
class TdmSchedulerChurnTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TdmSchedulerChurnTest, InvariantsUnderChurn) {
  const auto [n, k] = GetParam();
  TdmScheduler sched(opts(n, k));
  Rng rng(n * 1000 + k);
  for (int step = 0; step < 200; ++step) {
    const auto u = static_cast<std::size_t>(rng.below(n));
    const auto v = static_cast<std::size_t>(rng.below(n));
    sched.set_request(u, v, rng.chance(0.6));
    sched.run_pass();
    if (step % 3 == 0) {
      sched.advance_slot();
    }
    BitMatrix expected_b_star(n);
    for (std::size_t s = 0; s < k; ++s) {
      EXPECT_TRUE(sched.config(s).is_partial_permutation());
      expected_b_star |= sched.config(s);
    }
    EXPECT_EQ(sched.established(), expected_b_star);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TdmSchedulerChurnTest,
    ::testing::Combine(::testing::Values<std::size_t>(4, 8, 16),
                       ::testing::Values<std::size_t>(1, 2, 4, 8)));

TEST(TdmScheduler, SaturatedRequestsFillAllSlots) {
  // All-to-all requests from 4 nodes with K=4: after enough passes every
  // slot holds a permutation and all 16 connections are established.
  const std::size_t n = 4;
  TdmScheduler sched(opts(n, n));
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      sched.set_request(u, v, true);
    }
  }
  for (int i = 0; i < 64; ++i) {
    sched.run_pass();
  }
  EXPECT_EQ(sched.established().count(), n * n);
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(sched.config(s).count(), n);  // each slot a full permutation
  }
}

}  // namespace
}  // namespace pmx
