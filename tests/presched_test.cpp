#include "sched/presched.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pmx {
namespace {

// Table 1, row by row.
TEST(PrescheduleCell, NotRequestedNotRealized) {
  // R=0, B(s)=0 -> L=0 regardless of B*.
  EXPECT_FALSE(preschedule_cell(false, false, false));
  EXPECT_FALSE(preschedule_cell(false, true, false));
}

TEST(PrescheduleCell, NotRequestedButRealizedInSlot) {
  // R=0, B(s)=1 -> L=1 (should release).
  EXPECT_TRUE(preschedule_cell(false, false, true));
  EXPECT_TRUE(preschedule_cell(false, true, true));
}

TEST(PrescheduleCell, RequestedAndRealizedSomewhere) {
  // R=1, B*=1 -> L=0 (already established; X on B(s)).
  EXPECT_FALSE(preschedule_cell(true, true, false));
  EXPECT_FALSE(preschedule_cell(true, true, true));
}

TEST(PrescheduleCell, RequestedNotRealizedAnywhere) {
  // R=1, B*=0, B(s)=0 -> L=1 (should establish).
  EXPECT_TRUE(preschedule_cell(true, false, false));
}

BitMatrix random_matrix(Rng& rng, std::size_t n, double density) {
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

/// The word-parallel kernel into a fresh matrix.
BitMatrix preschedule_fresh(const BitMatrix& r, const BitMatrix& b_star,
                            const BitMatrix& b_s) {
  BitMatrix l(r.size());
  preschedule_into(r, b_star, b_s, l);
  return l;
}

// The word-parallel kernel against the cell-by-cell oracle, at sizes on
// both sides of the 64-bit word edges. The output is filled with random
// bits before every call, so a word the kernel skipped (the partial tail
// word included) would keep a stale bit and differ from the oracle.
class PrescheduleDiffTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrescheduleDiffTest, IntoOverwritesEveryWordAndMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 6007 + 11);
  constexpr double kRequestDensities[] = {0.0, 0.02, 0.2, 0.5, 0.95};
  constexpr double kFills[] = {0.0, 0.3, 0.7, 1.0};
  constexpr double kExtraDensities[] = {0.0, 0.05, 0.3};
  for (int trial = 0; trial < 600; ++trial) {
    const BitMatrix r = random_matrix(rng, n, kRequestDensities[rng.below(5)]);
    // B(s) is a partial permutation, and B* adds connections of other slots.
    BitMatrix b_s(n);
    const auto perm = rng.permutation(n);
    const double fill = kFills[rng.below(4)];
    for (std::size_t u = 0; u < n; ++u) {
      if (rng.chance(fill)) {
        b_s.set(u, perm[u]);
      }
    }
    const BitMatrix b_star =
        b_s | random_matrix(rng, n, kExtraDensities[rng.below(3)]);
    BitMatrix out = random_matrix(rng, n, 0.5);
    preschedule_into(r, b_star, b_s, out);
    ASSERT_EQ(out, preschedule_ref(r, b_star, b_s))
        << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrescheduleDiffTest,
                         ::testing::Values<std::size_t>(2, 63, 64, 65, 127,
                                                        128, 130));

TEST(Preschedule, NoRequestsReleasesWholeSlot) {
  BitMatrix r(4);
  BitMatrix b_s(4);
  b_s.set(0, 1);
  b_s.set(2, 3);
  const BitMatrix b_star = b_s;
  const BitMatrix l = preschedule_fresh(r, b_star, b_s);
  EXPECT_EQ(l, b_s);  // exactly the realized connections flagged for release
}

TEST(Preschedule, AllRequestedAllEstablishedIsQuiescent) {
  BitMatrix r(4);
  r.set(0, 1);
  r.set(2, 3);
  const BitMatrix b_s = r;
  const BitMatrix b_star = r;
  const BitMatrix l = preschedule_fresh(r, b_star, b_s);
  EXPECT_TRUE(l.none());
}

TEST(Preschedule, RequestRealizedInAnotherSlotIsNotReestablished) {
  BitMatrix r(4);
  r.set(1, 2);
  BitMatrix b_s(4);           // this slot is empty
  BitMatrix b_star(4);
  b_star.set(1, 2);           // realized in a different slot
  const BitMatrix l = preschedule_fresh(r, b_star, b_s);
  EXPECT_TRUE(l.none());
}

}  // namespace
}  // namespace pmx
