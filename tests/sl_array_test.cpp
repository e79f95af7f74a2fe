#include "sched/sl_array.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sched/presched.hpp"

namespace pmx {
namespace {

// Table 2, row by row.
TEST(SlCell, NoChangePassesAvailabilityThrough) {
  for (const bool a : {false, true}) {
    for (const bool d : {false, true}) {
      const auto out = sl_cell(false, false, a, d);
      EXPECT_FALSE(out.toggle);
      EXPECT_EQ(out.a_out, a);
      EXPECT_EQ(out.d_out, d);
    }
  }
}

TEST(SlCell, ReleaseFreesBothPorts) {
  // L=1, connection present in slot: its own ports show occupied (1,1);
  // release toggles and propagates availability (0,0).
  const auto out = sl_cell(true, true, true, true);
  EXPECT_TRUE(out.toggle);
  EXPECT_FALSE(out.a_out);
  EXPECT_FALSE(out.d_out);
}

TEST(SlCell, EstablishOccupiesBothPorts) {
  const auto out = sl_cell(true, false, false, false);
  EXPECT_TRUE(out.toggle);
  EXPECT_TRUE(out.a_out);
  EXPECT_TRUE(out.d_out);
}

TEST(SlCell, BlockedWhenOutputBusy) {
  const auto out = sl_cell(true, false, true, false);
  EXPECT_FALSE(out.toggle);
  EXPECT_TRUE(out.a_out);
  EXPECT_FALSE(out.d_out);
}

TEST(SlCell, BlockedWhenInputBusy) {
  const auto out = sl_cell(true, false, false, true);
  EXPECT_FALSE(out.toggle);
  EXPECT_FALSE(out.a_out);
  EXPECT_TRUE(out.d_out);
}

TEST(SlCell, BlockedWhenBothBusy) {
  // This is the case Table 2 leaves implicit: without the b_s input the
  // cell would wrongly match the "release" row and toggle 0 -> 1.
  const auto out = sl_cell(true, false, true, true);
  EXPECT_FALSE(out.toggle);
  EXPECT_TRUE(out.a_out);
  EXPECT_TRUE(out.d_out);
}

namespace {

/// Apply a pass result to a config and return the updated matrix.
BitMatrix apply(const BitMatrix& config, const SlPassResult& pass) {
  BitMatrix next = config;
  for (std::size_t u = 0; u < config.size(); ++u) {
    for (std::size_t v = 0; v < config.size(); ++v) {
      if (pass.toggles.get(u, v)) {
        next.toggle(u, v);
      }
    }
  }
  return next;
}

}  // namespace

TEST(SlArray, EstablishesNonConflictingRequests) {
  const std::size_t n = 4;
  BitMatrix empty(n);
  BitMatrix l(n);
  l.set(0, 1);
  l.set(1, 0);
  l.set(2, 3);
  const auto pass = sl_array_pass(l, empty, 0, 0);
  EXPECT_EQ(pass.establishes, 3u);
  EXPECT_EQ(pass.releases, 0u);
  EXPECT_EQ(pass.blocked, 0u);
  const BitMatrix next = apply(empty, pass);
  EXPECT_TRUE(next.get(0, 1));
  EXPECT_TRUE(next.get(1, 0));
  EXPECT_TRUE(next.get(2, 3));
  EXPECT_TRUE(next.is_partial_permutation());
}

TEST(SlArray, ConflictingRequestsGrantOnePerPort) {
  const std::size_t n = 4;
  BitMatrix empty(n);
  BitMatrix l(n);
  l.set(0, 2);
  l.set(1, 2);
  l.set(3, 2);  // three inputs want output 2
  const auto pass = sl_array_pass(l, empty, 0, 0);
  EXPECT_EQ(pass.establishes, 1u);
  EXPECT_EQ(pass.blocked, 2u);
  const BitMatrix next = apply(empty, pass);
  EXPECT_TRUE(next.get(0, 2));  // lowest row index wins with origin 0
  EXPECT_TRUE(next.is_partial_permutation());
}

TEST(SlArray, PriorityRotationChangesWinner) {
  const std::size_t n = 4;
  BitMatrix empty(n);
  BitMatrix l(n);
  l.set(0, 2);
  l.set(1, 2);
  l.set(3, 2);
  // Wavefront origin at row 3: request from input 3 sees the ports first.
  const auto pass = sl_array_pass(l, empty, 3, 3);
  const BitMatrix next = apply(empty, pass);
  EXPECT_TRUE(next.get(3, 2));
  EXPECT_FALSE(next.get(0, 2));
}

TEST(SlArray, OneRequestPerInput) {
  const std::size_t n = 4;
  BitMatrix empty(n);
  BitMatrix l(n);
  l.set(1, 0);
  l.set(1, 2);
  l.set(1, 3);  // one input wants three outputs
  const auto pass = sl_array_pass(l, empty, 0, 0);
  EXPECT_EQ(pass.establishes, 1u);
  EXPECT_EQ(pass.blocked, 2u);
  const BitMatrix next = apply(empty, pass);
  EXPECT_TRUE(next.get(1, 0));  // lowest column wins with origin 0
}

TEST(SlArray, ReleaseMakesPortAvailableLaterInWavefront) {
  // Input 0 releases (0,1); input 2 requests (2,1) in the same pass.
  // Because availability propagates upward from row 0, the freed output is
  // visible to row 2.
  const std::size_t n = 4;
  BitMatrix config(n);
  config.set(0, 1);
  BitMatrix l(n);
  l.set(0, 1);  // release (R dropped)
  l.set(2, 1);  // establish request
  const auto pass = sl_array_pass(l, config, 0, 0);
  EXPECT_EQ(pass.releases, 1u);
  EXPECT_EQ(pass.establishes, 1u);
  const BitMatrix next = apply(config, pass);
  EXPECT_FALSE(next.get(0, 1));
  EXPECT_TRUE(next.get(2, 1));
}

TEST(SlArray, ReleaseAfterRequesterInWavefrontDoesNotHelp) {
  // Same as above but the releasing row comes later in the wavefront: the
  // combinational array cannot look ahead, so the request stays blocked
  // this pass (it will succeed next pass). This mirrors real hardware.
  const std::size_t n = 4;
  BitMatrix config(n);
  config.set(3, 1);
  BitMatrix l(n);
  l.set(3, 1);  // release, but row 3 is last in wavefront order from 0
  l.set(2, 1);  // establish request at row 2
  const auto pass = sl_array_pass(l, config, 0, 0);
  EXPECT_EQ(pass.releases, 1u);
  EXPECT_EQ(pass.establishes, 0u);
  EXPECT_EQ(pass.blocked, 1u);
}

// Property suite: for random request/config states the pass must never
// produce a conflicted configuration, never release a connection that was
// requested, and never establish one that wasn't.
class SlArrayPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SlArrayPropertyTest, PassPreservesInvariants) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  // Random valid slot config.
  BitMatrix config(n);
  const auto perm = rng.permutation(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.chance(0.5)) {
      config.set(u, perm[u]);
    }
  }
  // Random requests; also request some of the existing connections so both
  // establish and release cases appear.
  BitMatrix requests(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.chance(0.15)) {
        requests.set(u, v);
      }
    }
  }
  const BitMatrix l = preschedule_ref(requests, config, config);
  const std::size_t origin = static_cast<std::size_t>(rng.below(n));
  const auto pass = sl_array_pass(l, config, origin, origin);
  const BitMatrix next = apply(config, pass);

  EXPECT_TRUE(next.is_partial_permutation());
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (next.get(u, v) && !config.get(u, v)) {
        // Newly established: must have been requested and not conflict.
        EXPECT_TRUE(requests.get(u, v));
      }
      if (!next.get(u, v) && config.get(u, v)) {
        // Released: must not have been requested.
        EXPECT_FALSE(requests.get(u, v));
      }
      if (config.get(u, v) && requests.get(u, v)) {
        // Requested existing connections stay.
        EXPECT_TRUE(next.get(u, v));
      }
    }
  }
  // Releases must be total: any connection with R=0 is removed this pass.
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (config.get(u, v) && !requests.get(u, v)) {
        EXPECT_FALSE(next.get(u, v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomStates, SlArrayPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 8, 16, 32, 128),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));

// Work conservation: after a pass on an empty slot with a dense request
// matrix, no input and output can both be idle while a request between them
// was blocked.
TEST(SlArray, WorkConservingOnEmptySlot) {
  const std::size_t n = 16;
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    BitMatrix empty(n);
    BitMatrix requests(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (rng.chance(0.3)) {
          requests.set(u, v);
        }
      }
    }
    const BitMatrix l = preschedule_ref(requests, empty, empty);
    const auto pass = sl_array_pass(l, empty, 0, 0);
    const BitMatrix next = apply(empty, pass);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (requests.get(u, v) && !next.get(u, v)) {
          // Blocked: at least one of its ports must be in use.
          EXPECT_TRUE(next.row_any(u) || next.col_any(v))
              << "request (" << u << "," << v
              << ") blocked with both ports idle";
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmx
