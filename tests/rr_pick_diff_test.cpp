// Differential test of the wormhole arbiters' round-robin pick: rr_pick,
// which scans `requests & ~busy` a 64-bit word at a time, must return what
// its scalar oracle rr_pick_ref returns, and must ask its eligibility
// filter about the same candidates in the same order (the input arbiter's
// filter is the fault model's link state, and a lossy-control verdict is
// drawn only for the candidate it accepts). Sizes straddle the word
// boundaries, down to a single port.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "switching/wormhole.hpp"

namespace pmx {
namespace {

using Indices = std::vector<std::size_t>;

BitVector random_row(Rng& rng, std::size_t n) {
  constexpr double kDensities[] = {0.0, 0.03, 0.3, 0.7, 0.97, 1.0};
  const double density = kDensities[rng.below(6)];
  BitVector row(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(density)) {
      row.set(i);
    }
  }
  return row;
}

/// Both picks on one case, with the filter accepting the bits of `accept`;
/// `asked` receives the candidates each pick offered its filter.
struct Picks {
  std::size_t fast;
  std::size_t ref;
  Indices asked_fast;
  Indices asked_ref;
};

Picks both(const BitVector& requests, const BitVector& busy,
           std::size_t start, const BitVector& accept) {
  Picks p{};
  p.fast = rr_pick(requests, busy, start, [&](std::size_t i) {
    p.asked_fast.push_back(i);
    return accept.get(i);
  });
  p.ref = rr_pick_ref(requests, busy, start, [&](std::size_t i) {
    p.asked_ref.push_back(i);
    return accept.get(i);
  });
  return p;
}

class RrPickDiffTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RrPickDiffTest, MatchesReferenceOnRandomRows) {
  const std::size_t n = GetParam();
  Rng rng(n * 9973 + 3);
  std::size_t hits = 0;
  std::size_t rejected = 0;
  for (int rep = 0; rep < 600; ++rep) {
    const BitVector requests = random_row(rng, n);
    const BitVector busy = random_row(rng, n);
    const BitVector accept = random_row(rng, n);
    const std::size_t start = rng.below(n);
    const Picks p = both(requests, busy, start, accept);
    ASSERT_EQ(p.fast, p.ref) << rep << " start " << start;
    ASSERT_EQ(p.asked_fast, p.asked_ref) << rep << " start " << start;
    const std::size_t accepted = p.ref < n ? 1 : 0;
    hits += accepted;
    if (p.asked_ref.size() > accepted) {
      ++rejected;
    }
    // With a filter that accepts everything, the pick is the first bit of
    // requests & ~busy in rotated order.
    const std::size_t open_fast =
        rr_pick(requests, busy, start, [](std::size_t) { return true; });
    const std::size_t open_ref =
        rr_pick_ref(requests, busy, start, [](std::size_t) { return true; });
    ASSERT_EQ(open_fast, open_ref) << rep << " start " << start;
  }
  // Not vacuous: picks happened, and filters turned candidates away.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST_P(RrPickDiffTest, EveryStartOnWordEdges) {
  // Requests on both sides of every word boundary and at both ends; every
  // start position, with nothing busy, with every other request busy, and
  // with a filter that turns every third index away.
  constexpr std::size_t kEdges[] = {0, 1, 62, 63, 64, 65, 126, 127, 128, 129};
  const std::size_t n = GetParam();
  BitVector requests(n);
  for (const std::size_t i : kEdges) {
    if (i < n) {
      requests.set(i);
    }
  }
  requests.set(n - 1);
  BitVector every_other(n);
  BitVector thirds(n, true);
  bool flip = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (requests.get(i)) {
      every_other.set(i, flip);
      flip = !flip;
    }
    if (i % 3 == 0) {
      thirds.clear(i);
    }
  }
  const BitVector none(n);
  const BitVector all(n, true);
  for (const BitVector& busy : {none, every_other}) {
    for (const BitVector& accept : {all, thirds}) {
      for (std::size_t start = 0; start < n; ++start) {
        const Picks p = both(requests, busy, start, accept);
        ASSERT_EQ(p.fast, p.ref) << "start " << start;
        ASSERT_EQ(p.asked_fast, p.asked_ref) << "start " << start;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RrPickDiffTest,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 130));

}  // namespace
}  // namespace pmx
