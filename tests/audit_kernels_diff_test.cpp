// Differential tests of the word-parallel per-slot audits: the request
// audit (audit_requests_fast) and the slot-invariant audit
// (audit_invariants_fast) must append exactly the strings of their scalar
// oracles (the *_ref twins), in the same order, on states the simulator
// never produces -- random bit rows with diagonal bits, every grant-line and
// lease flag combination, and hand-corrupted slot registers, caches and B*.
// Sizes straddle the 64-bit word boundaries. The advance_slot liveness test
// BitMatrix::intersects is checked against the (a & b).any() it replaced.
// Both audits' message texts are pinned exactly, case by case.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/rng.hpp"
#include "nic/control_plane.hpp"
#include "sched/tdm_scheduler.hpp"

namespace pmx {
namespace {

using Lines = std::vector<std::string>;

/// Random matrix, diagonal included, at a density drawn per matrix so that
/// all-zero, sparse, half and near-full rows all occur.
BitMatrix random_matrix(Rng& rng, std::size_t n) {
  constexpr double kDensities[] = {0.0, 0.03, 0.3, 0.7, 0.97};
  const double density = kDensities[rng.below(5)];
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

/// `base` with each entry flipped with probability p: views that mostly
/// agree, as a live control plane's do.
BitMatrix perturbed(Rng& rng, const BitMatrix& base, double p) {
  BitMatrix m = base;
  for (std::size_t u = 0; u < m.size(); ++u) {
    for (std::size_t v = 0; v < m.size(); ++v) {
      if (rng.chance(p)) {
        m.toggle(u, v);
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

class AuditDiffTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AuditDiffTest, RequestAuditMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 6151 + 17);
  std::size_t cases = 0;
  std::size_t lines = 0;
  for (int rep = 0; rep < 40; ++rep) {
    // Independent views on even reps; on odd reps B*, W and G track R with
    // a few disagreements, and I/A stay sparse.
    const bool correlated = rep % 2 == 1;
    const BitMatrix none(n);
    const auto view = [&](const BitMatrix& like) {
      return correlated ? perturbed(rng, like, 0.05) : random_matrix(rng, n);
    };
    const BitMatrix r = random_matrix(rng, n);
    const BitMatrix b = view(r);
    const BitMatrix w = view(r);
    const BitMatrix g = view(b);
    const BitMatrix i = view(none);
    const BitMatrix a = view(none);
    for (const bool grant_line : {false, true}) {
      for (const bool lease_active : {false, true}) {
        const RequestAuditInput in{.requests = r,
                                   .established = b,
                                   .wants = w,
                                   .granted = g,
                                   .inflight = i,
                                   .armed = a,
                                   .grant_line = grant_line,
                                   .lease_active = lease_active};
        Lines ref{"earlier line"};
        Lines fast{"earlier line"};
        audit_requests_ref(in, ref);
        audit_requests_fast(in, fast);
        // rep, then the grant-line and lease flags.
        ASSERT_EQ(fast, ref) << rep << ' ' << grant_line << lease_active;
        ++cases;
        lines += ref.size() - 1;
      }
    }
  }
  EXPECT_EQ(cases, 160u);
  EXPECT_GT(lines, 0u);  // the comparison saw findings, not just silence
}

TEST_P(AuditDiffTest, InvariantAuditMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 7717 + 5);
  std::size_t cases = 0;
  std::size_t lines = 0;
  for (int rep = 0; rep < 160; ++rep) {
    const std::size_t k = 1 + rng.below(4);
    std::vector<BitMatrix> slots;
    for (std::size_t s = 0; s < k; ++s) {
      const double fill = rng.chance(0.5) ? 0.3 : 0.9;
      slots.push_back(random_partial_permutation(rng, n, fill));
    }
    // Corrupt the registers: an extra crosspoint in some row or column,
    // with the caches recomputed (double allocation alone) or left stale.
    for (std::size_t s = 0; s < k; ++s) {
      if (rng.chance(0.25)) {
        slots[s].set(rng.below(n), rng.below(n));
      }
    }
    std::vector<BitVector> ai;
    std::vector<BitVector> ao;
    for (std::size_t s = 0; s < k; ++s) {
      ai.push_back(slots[s].row_or());
      ao.push_back(slots[s].col_or());
      if (rng.chance(0.25)) {
        slots[s].set(rng.below(n), rng.below(n));  // stale caches
      }
      if (rng.chance(0.2)) {
        ai[s].flip(rng.below(n));
      }
      if (rng.chance(0.2)) {
        ao[s].flip(rng.below(n));
      }
    }
    BitMatrix b_star(n);
    for (const BitMatrix& slot : slots) {
      b_star |= slot;
    }
    if (rng.chance(0.25)) {
      b_star.toggle(rng.below(n), rng.below(n));
    }
    const SlotAuditInput in{slots, ai, ao, b_star};
    Lines ref{"earlier line"};
    Lines fast{"earlier line"};
    audit_invariants_ref(in, ref);
    audit_invariants_fast(in, fast);
    ASSERT_EQ(fast, ref) << "n=" << n << " rep=" << rep << " k=" << k;
    ++cases;
    lines += ref.size() - 1;
  }
  EXPECT_EQ(cases, 160u);
  EXPECT_GT(lines, 0u);
}

TEST_P(AuditDiffTest, IntersectsMatchesAndAny) {
  const std::size_t n = GetParam();
  Rng rng(n * 4099 + 1);
  for (int rep = 0; rep < 160; ++rep) {
    const BitMatrix a = random_partial_permutation(rng, n, 0.5);
    BitMatrix b = random_matrix(rng, n);
    if (rep % 2 == 0) {
      // Disjoint on most rows, so both answers occur often.
      for (std::size_t u = 0; u < n; ++u) {
        if (!rng.chance(0.02)) {
          BitVector row = b.row(u);
          row.and_not(a.row(u));
          b.set_row(u, row);
        }
      }
    }
    ASSERT_EQ(a.intersects(b), (a & b).any()) << "n=" << n << " rep=" << rep;
    ASSERT_EQ(b.intersects(a), (b & a).any());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AuditDiffTest,
                         ::testing::Values(2, 63, 64, 65, 127, 128, 130));

// Exact text of every message of both audits, one hand-built case at a
// time, through both kernels.
constexpr const char* kLeak20 =
    "leaked request (2 -> 0): scheduler holds R for a NIC that dropped it";
constexpr const char* kIntent01 =
    "wedged NIC (0 -> 1): intent raised but no request, grant, or watchdog "
    "pending";
constexpr const char* kIntent02 =
    "wedged NIC (0 -> 2): intent raised but no request, grant, or watchdog "
    "pending";
constexpr const char* kIntent02NoGrantLine =
    "wedged NIC (0 -> 2): intent raised but no request or watchdog pending";
constexpr const char* kGrant12 =
    "wedged NIC (1 -> 2): connection established but the grant was lost";

class RequestAuditText : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;

  RequestAuditText() : r_(kN), b_(kN), w_(kN), g_(kN), i_(kN), a_(kN) {}

  void expect_lines(bool grant_line, bool lease_active,
                    const Lines& expected) {
    const RequestAuditInput in{.requests = r_,
                               .established = b_,
                               .wants = w_,
                               .granted = g_,
                               .inflight = i_,
                               .armed = a_,
                               .grant_line = grant_line,
                               .lease_active = lease_active};
    Lines ref;
    Lines fast;
    audit_requests_ref(in, ref);
    audit_requests_fast(in, fast);
    EXPECT_EQ(ref, expected);
    EXPECT_EQ(fast, expected);
  }

  BitMatrix r_;
  BitMatrix b_;
  BitMatrix w_;
  BitMatrix g_;
  BitMatrix i_;
  BitMatrix a_;
};

TEST_F(RequestAuditText, Leak) {
  r_.set(2, 0);
  expect_lines(true, false, {kLeak20});
  expect_lines(true, true, {});  // a lease will reap it
  i_.set(2, 0);
  expect_lines(true, false, {});  // the release is still in flight
}

TEST_F(RequestAuditText, IntentWedge) {
  w_.set(0, 2);
  expect_lines(true, false, {kIntent02});
  expect_lines(false, false, {kIntent02NoGrantLine});
  a_.set(0, 2);
  expect_lines(true, false, {});  // the watchdog will re-send
}

TEST_F(RequestAuditText, GrantWedge) {
  w_.set(1, 2);
  r_.set(1, 2);
  b_.set(1, 2);
  expect_lines(true, false, {kGrant12});
  expect_lines(false, false, {});  // no grant line, no grant to lose
  g_.set(1, 2);
  expect_lines(true, false, {});
}

TEST_F(RequestAuditText, DiagonalNeverReports) {
  for (std::size_t u = 0; u < kN; ++u) {
    r_.set(u, u);
    w_.set(u, u);
    b_.set(u, u);
  }
  expect_lines(true, false, {});
  w_.reset();
  expect_lines(true, false, {});
}

TEST_F(RequestAuditText, OrderIsSourceThenDestination) {
  r_.set(2, 0);
  w_.set(0, 2);
  w_.set(0, 1);
  w_.set(1, 2);
  r_.set(1, 2);
  b_.set(1, 2);
  expect_lines(true, false, {kIntent01, kIntent02, kGrant12, kLeak20});
}

constexpr const char* kDoubleAlloc0 =
    "slot 0 double-allocates a crosspoint (configuration is not a partial "
    "permutation)";
constexpr const char* kDoubleAlloc1 =
    "slot 1 double-allocates a crosspoint (configuration is not a partial "
    "permutation)";
constexpr const char* kAi1 =
    "slot 1 AI occupancy cache diverged from its configuration";
constexpr const char* kAo0 =
    "slot 0 AO occupancy cache diverged from its configuration";
constexpr const char* kAo1 =
    "slot 1 AO occupancy cache diverged from its configuration";
constexpr const char* kBStar =
    "B* diverged from the union of the slot configurations";

class InvariantAuditText : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4;

  InvariantAuditText() : slots_(2, BitMatrix(kN)), b_star_(kN) {
    slots_[0].set(0, 1);
    slots_[1].set(2, 3);
    sync();
  }

  /// Caches and B* consistent with the current registers.
  void sync() {
    ai_.clear();
    ao_.clear();
    b_star_.reset();
    for (const BitMatrix& slot : slots_) {
      ai_.push_back(slot.row_or());
      ao_.push_back(slot.col_or());
      b_star_ |= slot;
    }
  }

  void expect_lines(const Lines& expected) {
    const SlotAuditInput in{slots_, ai_, ao_, b_star_};
    Lines ref;
    Lines fast;
    audit_invariants_ref(in, ref);
    audit_invariants_fast(in, fast);
    EXPECT_EQ(ref, expected);
    EXPECT_EQ(fast, expected);
  }

  std::vector<BitMatrix> slots_;
  std::vector<BitVector> ai_;
  std::vector<BitVector> ao_;
  BitMatrix b_star_;
};

TEST_F(InvariantAuditText, CleanStateReportsNothing) { expect_lines({}); }

TEST_F(InvariantAuditText, DoubleAllocationInARow) {
  slots_[1].set(2, 0);  // input 2 drives outputs 0 and 3
  sync();
  expect_lines({kDoubleAlloc1});
}

TEST_F(InvariantAuditText, DoubleAllocationInAColumn) {
  slots_[0].set(3, 1);  // output 1 driven by inputs 0 and 3
  sync();
  expect_lines({kDoubleAlloc0});
}

TEST_F(InvariantAuditText, AiDivergence) {
  ai_[1].flip(1);
  expect_lines({kAi1});
}

TEST_F(InvariantAuditText, AoDivergence) {
  ao_[0].flip(1);
  expect_lines({kAo0});
}

TEST_F(InvariantAuditText, BStarDivergence) {
  b_star_.set(3, 0);
  expect_lines({kBStar});
}

TEST_F(InvariantAuditText, OrderIsSlotThenKindThenBStar) {
  slots_[1].set(2, 0);
  sync();
  ai_[1].flip(0);
  ao_[1].flip(2);
  ao_[0].flip(2);
  b_star_.toggle(0, 1);
  expect_lines({kAo0, kDoubleAlloc1, kAi1, kAo1, kBStar});
}

}  // namespace
}  // namespace pmx
