#include "sched/tdm_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/presched.hpp"
#include "sched/sl_array.hpp"

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

// Differential churn: every pass is rebuilt from the scheduler's public state
// with the cell-by-cell oracles only, across random steps that change every
// input of a pass (requests, holds, dead ports, stuck cells, pinned slots,
// flushes) at sizes on both sides of the 64-bit word edges. A word a pass
// fails to rewrite in one of the scheduler's reused buffers shows up here as
// a wrong slot, B*, count or pair list.

using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

/// (R | holds) with dead ports and stuck cells masked out, cell by cell.
BitMatrix effective_requests_ref(const TdmScheduler& sched) {
  const std::size_t n = sched.num_ports();
  BitMatrix r(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if ((sched.request(u, v) || sched.held(u, v)) && !sched.port_failed(u) &&
          !sched.port_failed(v) && !sched.cell_stuck(u, v)) {
        r.set(u, v);
      }
    }
  }
  return r;
}

BitMatrix flipped(const BitMatrix& config, const BitMatrix& toggles) {
  BitMatrix out = config;
  for (std::size_t u = 0; u < out.size(); ++u) {
    out.row_xor(u, toggles.row(u));
  }
  return out;
}

/// What the oracles say one pass over a slot does.
struct OraclePass {
  BitMatrix config;  ///< the slot after the pass
  std::size_t establishes = 0;
  std::size_t releases = 0;
  std::size_t blocked = 0;  ///< of the first pass only, as run_pass reports
  std::size_t duplicates = 0;
  bool changes = false;
};

OraclePass oracle_pass(const BitMatrix& r_eff, const BitMatrix& b_star,
                       const BitMatrix& config, std::size_t origin,
                       bool multi_slot) {
  const std::size_t n = config.size();
  const SlPassResult first = sl_array_pass_ref(
      preschedule_ref(r_eff, b_star, config), config, origin, origin);
  OraclePass out{flipped(config, first.toggles), first.establishes,
                 first.releases, first.blocked, 0, first.toggles.any()};
  if (multi_slot) {
    // Extension 2: requested, established elsewhere, not in this slot.
    BitMatrix l2(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (r_eff.get(u, v) && b_star.get(u, v) && !out.config.get(u, v)) {
          l2.set(u, v);
        }
      }
    }
    const SlPassResult dup =
        sl_array_pass_ref(l2, out.config, origin, origin);
    EXPECT_EQ(dup.releases, 0u);
    out.config = flipped(out.config, dup.toggles);
    out.establishes += dup.establishes;
    out.duplicates = dup.establishes;
    out.changes = out.changes || dup.toggles.any();
  }
  return out;
}

/// Entries of `after` that `before` lacks (`appeared`) or the reverse, in
/// row-major order.
Pairs b_star_changes(const BitMatrix& before, const BitMatrix& after,
                     bool appeared) {
  Pairs out;
  for (std::size_t u = 0; u < before.size(); ++u) {
    for (std::size_t v = 0; v < before.size(); ++v) {
      if (before.get(u, v) != after.get(u, v) && after.get(u, v) == appeared) {
        out.emplace_back(u, v);
      }
    }
  }
  return out;
}

void expect_clean_audit(const TdmScheduler& sched, int step) {
  std::vector<std::string> lines;
  audit_invariants_ref(sched.audit_input(), lines);
  EXPECT_EQ(lines, std::vector<std::string>{}) << "step " << step;
}

/// One random change to the scheduler's inputs.
void random_step(TdmScheduler& sched, Rng& rng) {
  const std::size_t n = sched.num_ports();
  const auto pick_u = [&] { return static_cast<std::size_t>(rng.below(n)); };
  const auto other = [&](std::size_t u) {
    return (u + 1 + static_cast<std::size_t>(rng.below(n - 1))) % n;
  };
  const std::uint64_t kind = rng.below(20);
  if (kind < 9) {
    const std::uint64_t count = rng.chance(0.5) ? 1 : 1 + rng.below(n);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::size_t u = pick_u();
      sched.set_request(u, other(u), rng.chance(0.5));
    }
    return;
  }
  if (kind < 12) {
    for (int i = 0; i < 3; ++i) {
      const std::size_t u = pick_u();
      const std::size_t v = other(u);
      if (sched.held(u, v)) {
        sched.unhold(u, v);
      } else {
        sched.hold(u, v);
      }
    }
    return;
  }
  switch (kind) {
    case 12: {
      const std::size_t p = pick_u();
      (void)sched.set_port_fault(p, !sched.port_failed(p));
      break;
    }
    case 13: {
      // Stuck cells never recover: keep most of the array usable.
      std::size_t stuck = 0;
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = 0; v < n; ++v) {
          stuck += sched.cell_stuck(u, v) ? 1U : 0U;
        }
      }
      if (stuck <= n / 16) {
        const std::size_t u = pick_u();
        (void)sched.set_stuck_cell(u, other(u));
      }
      break;
    }
    case 14: {
      BitMatrix config(n);
      const auto perm = rng.permutation(n);
      for (std::size_t u = 0; u < n; ++u) {
        if (rng.chance(0.5)) {
          config.set(u, perm[u]);
        }
      }
      sched.preload(static_cast<std::size_t>(rng.below(sched.num_slots())),
                    config, /*pinned=*/true);
      break;
    }
    case 15: {
      const auto start = static_cast<std::size_t>(rng.below(sched.num_slots()));
      for (std::size_t i = 0; i < sched.num_slots(); ++i) {
        const std::size_t s = (start + i) % sched.num_slots();
        if (sched.pinned(s)) {
          sched.unload(s);
          break;
        }
      }
      break;
    }
    case 16:
      sched.flush_dynamic();
      break;
    default:
      (void)sched.advance_slot();
      break;
  }
}

class TdmSchedulerDiffTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(TdmSchedulerDiffTest, PassesMatchOraclesUnderChurn) {
  const auto [n, multi_slot] = GetParam();
  const std::size_t k = 4;
  auto o = opts(n, k);
  o.multi_slot_connections = multi_slot;
  TdmScheduler sched(o);
  Rng rng(n * 4099 + (multi_slot ? 1 : 0));
  std::uint64_t duplicates = 0;
  std::uint64_t pinned_steps = 0;
  for (int step = 0; step < 400; ++step) {
    random_step(sched, rng);
    expect_clean_audit(sched, step);
    pinned_steps += sched.num_pinned() > 0 ? 1U : 0U;

    std::vector<BitMatrix> want_slots;
    for (std::size_t s = 0; s < k; ++s) {
      want_slots.push_back(sched.config(s));
    }
    const BitMatrix b_star = sched.established();
    const BitMatrix r_eff = effective_requests_ref(sched);
    const SchedulerStats stats = sched.stats();
    const TdmScheduler::PassResult& pass = sched.run_pass();

    OraclePass want;
    if (!pass.slot) {
      EXPECT_EQ(sched.num_pinned(), k);
    } else {
      const std::size_t s = *pass.slot;
      ASSERT_FALSE(sched.pinned(s));
      want = oracle_pass(r_eff, b_star, want_slots[s], stats.passes % n,
                         multi_slot);
      if (sched.stats().passes_elided > stats.passes_elided) {
        // The quiescence memo may skip a pass only when it would change
        // nothing.
        ASSERT_FALSE(want.changes) << "step " << step;
        want = OraclePass{};
      } else {
        ASSERT_EQ(sched.stats().passes, stats.passes + 1);
        want_slots[s] = want.config;
      }
    }
    for (std::size_t s = 0; s < k; ++s) {
      ASSERT_EQ(sched.config(s), want_slots[s]) << "step " << step;
    }
    BitMatrix want_b_star(n);
    for (const BitMatrix& config : want_slots) {
      want_b_star |= config;
    }
    ASSERT_EQ(sched.established(), want_b_star) << "step " << step;
    EXPECT_EQ(pass.establishes, want.establishes) << "step " << step;
    EXPECT_EQ(pass.releases, want.releases) << "step " << step;
    EXPECT_EQ(pass.blocked, want.blocked) << "step " << step;
    EXPECT_EQ(pass.established_pairs, b_star_changes(b_star, want_b_star, true))
        << "step " << step;
    EXPECT_EQ(pass.released_pairs, b_star_changes(b_star, want_b_star, false))
        << "step " << step;
    EXPECT_EQ(sched.stats().establishes, stats.establishes + want.establishes);
    EXPECT_EQ(sched.stats().releases, stats.releases + want.releases);
    EXPECT_EQ(sched.stats().blocked, stats.blocked + want.blocked);
    duplicates += want.duplicates;
    expect_clean_audit(sched, step);
  }
  // The walk reached every kind of pass.
  const SchedulerStats& stats = sched.stats();
  EXPECT_GT(stats.passes, 100u);
  EXPECT_GT(stats.passes_elided, 0u);
  EXPECT_GT(stats.establishes, 0u);
  EXPECT_GT(stats.releases, 0u);
  EXPECT_GT(stats.forced_releases, 0u);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(pinned_steps, 0u);
  EXPECT_EQ(duplicates > 0, multi_slot);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TdmSchedulerDiffTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 64, 65, 130),
                       ::testing::Bool()));

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
