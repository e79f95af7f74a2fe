// Differential test: the word-parallel SL pass (sl_array_pass_fast) must be
// bit-identical to the gate-accurate cell-by-cell oracle (sl_array_pass_ref)
// -- same toggle matrix AND same establish/release/blocked counts -- for any
// partial-permutation slot configuration, any change-request matrix, and any
// rotated wavefront origin (a, b). Over 1000 randomized cases run here,
// including preschedule-derived requests and fault-masked ports.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/rng.hpp"
#include "sched/presched.hpp"
#include "sched/sl_array.hpp"

namespace pmx {
namespace {

BitMatrix random_requests(Rng& rng, std::size_t n, double density) {
  BitMatrix m(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.chance(density)) {
        m.set(u, v);
      }
    }
  }
  return m;
}

BitMatrix random_partial_permutation(Rng& rng, std::size_t n, double fill) {
  BitMatrix m(n);
  const auto perm = rng.permutation(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.chance(fill)) {
      m.set(u, perm[u]);
    }
  }
  return m;
}

/// Run both implementations and require bit-identical results. The fast
/// pass writes into `ws`, which callers reuse across cases so that state
/// left by an earlier pass would show.
void expect_identical(const BitMatrix& l, const BitMatrix& config,
                      std::size_t a, std::size_t b, SlPassWorkspace& ws) {
  const SlPassResult ref = sl_array_pass_ref(l, config, a, b);
  const SlPassResult& fast = sl_array_pass_fast(
      l, config, config.row_or(), config.col_or(), a, b, ws);
  ASSERT_EQ(fast.toggles, ref.toggles)
      << "n=" << config.size() << " a=" << a << " b=" << b;
  EXPECT_EQ(fast.establishes, ref.establishes);
  EXPECT_EQ(fast.releases, ref.releases);
  EXPECT_EQ(fast.blocked, ref.blocked);
}

class SlArrayDiffTest : public ::testing::TestWithParam<std::size_t> {};

// Raw random request matrices at swept densities and slot fills, with the
// wavefront origin rotated independently in both axes.
TEST_P(SlArrayDiffTest, RandomRequestsMatchReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 7919 + 101);
  SlPassWorkspace ws(n);
  const double densities[] = {0.02, 0.1, 0.5, 0.95};
  const double fills[] = {0.0, 0.3, 0.7, 1.0};
  for (const double density : densities) {
    for (const double fill : fills) {
      for (int rep = 0; rep < 6; ++rep) {
        const BitMatrix config = random_partial_permutation(rng, n, fill);
        const BitMatrix l = random_requests(rng, n, density);
        expect_identical(l, config, rng.below(n), rng.below(n), ws);
      }
    }
  }
}

// Requests produced by the pre-scheduling logic (the shape the scheduler
// actually feeds the array: releases for dropped requests, establishes
// filtered by B*).
TEST_P(SlArrayDiffTest, PrescheduledRequestsMatchReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 104729 + 7);
  SlPassWorkspace ws(n);
  for (int rep = 0; rep < 12; ++rep) {
    const BitMatrix config = random_partial_permutation(rng, n, 0.5);
    const BitMatrix requests = random_requests(rng, n, 0.15);
    const BitMatrix l = preschedule_ref(requests, config, config);
    expect_identical(l, config, rng.below(n), rng.below(n), ws);
  }
}

// Fault interaction: some ports are masked (their request rows/columns are
// forced to zero, exactly what the scheduler does for faulted links) while
// the slot may still hold connections on those ports ("stuck" cells awaiting
// forced release). The establish scan must still agree with the oracle.
TEST_P(SlArrayDiffTest, MaskedPortsMatchReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 31337 + 3);
  SlPassWorkspace ws(n);
  for (int rep = 0; rep < 12; ++rep) {
    const BitMatrix config = random_partial_permutation(rng, n, 0.6);
    BitMatrix l = random_requests(rng, n, 0.2);
    // Mask a few input and output ports.
    BitVector down_out(n);
    for (std::size_t p = 0; p < n; ++p) {
      if (rng.chance(0.2)) {  // down input port: no requests from row p
        l.set_row(p, BitVector(n));
      }
      if (rng.chance(0.2)) {
        down_out.set(p);
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      BitVector row = l.row(u);
      row.and_not(down_out);  // down output port: no requests to column
      l.set_row(u, row);
    }
    expect_identical(l, config, rng.below(n), rng.below(n), ws);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SlArrayDiffTest,
                         ::testing::Values(1, 2, 3, 8, 31, 63, 64, 65, 128));

// Exhaustive origin sweep at one small size: every (a, b) pair.
TEST(SlArrayDiff, AllOriginsSmall) {
  constexpr std::size_t n = 9;
  Rng rng(42);
  SlPassWorkspace ws(n);
  for (int rep = 0; rep < 4; ++rep) {
    const BitMatrix config = random_partial_permutation(rng, n, 0.5);
    const BitMatrix l = random_requests(rng, n, 0.3);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        expect_identical(l, config, a, b, ws);
      }
    }
  }
}

}  // namespace
}  // namespace pmx
