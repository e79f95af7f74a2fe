#include "predictor/working_set.hpp"

#include <gtest/gtest.h>

#include "predictor/policy_engine.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

/// The "phase" policy: the timeout rank plus a WorkingSetTracker.
std::unique_ptr<Predictor> make_phase_policy(std::int64_t timeout_ns,
                                             std::int64_t epoch_ns,
                                             double shift_threshold = 0.25) {
  PolicySpec spec = PolicySpec::parse("phase");
  spec.timeout_ns = timeout_ns;
  spec.phase_epoch_ns = epoch_ns;
  spec.phase_shift_threshold = shift_threshold;
  return make_policy(spec);
}

TEST(WorkingSetTracker, CountsDistinctConnections) {
  WorkingSetTracker tracker(1000_ns);
  tracker.observe(Conn{0, 1}, 10_ns);
  tracker.observe(Conn{0, 1}, 20_ns);
  tracker.observe(Conn{2, 3}, 30_ns);
  EXPECT_EQ(tracker.size(), 2u);
}

TEST(WorkingSetTracker, WindowSpansTwoEpochs) {
  WorkingSetTracker tracker(100_ns);
  tracker.observe(Conn{0, 1}, 10_ns);
  tracker.observe(Conn{2, 3}, 120_ns);  // next epoch
  // Both connections are still in the (two-epoch) window.
  EXPECT_EQ(tracker.size(), 2u);
  tracker.observe(Conn{4, 5}, 230_ns);  // rolls again: (0,1) ages out
  EXPECT_EQ(tracker.size(), 2u);
}

TEST(WorkingSetTracker, DegreeIsMultiplexingRequirement) {
  WorkingSetTracker tracker(1000_ns);
  tracker.observe(Conn{0, 1}, 1_ns);
  tracker.observe(Conn{0, 2}, 2_ns);
  tracker.observe(Conn{0, 3}, 3_ns);
  tracker.observe(Conn{5, 3}, 4_ns);
  // Node 0 fans out to 3 destinations -> degree 3.
  EXPECT_EQ(tracker.degree(8), 3u);
}

TEST(WorkingSetTracker, StablePatternDoesNotShift) {
  WorkingSetTracker tracker(100_ns, 0.5);
  for (std::int64_t t = 0; t < 1000; t += 10) {
    tracker.observe(Conn{0, 1}, TimeNs{t});
    tracker.observe(Conn{2, 3}, TimeNs{t});
  }
  EXPECT_FALSE(tracker.phase_shifted(TimeNs{1000}));
  EXPECT_GT(tracker.last_similarity(), 0.9);
}

TEST(WorkingSetTracker, DetectsPhaseChange) {
  WorkingSetTracker tracker(100_ns, 0.5);
  // Phase A for 3 epochs.
  for (std::int64_t t = 0; t < 300; t += 10) {
    tracker.observe(Conn{0, 1}, TimeNs{t});
    tracker.observe(Conn{2, 3}, TimeNs{t});
  }
  EXPECT_FALSE(tracker.phase_shifted(TimeNs{295}));
  // Phase B: disjoint working set.
  for (std::int64_t t = 300; t < 600; t += 10) {
    tracker.observe(Conn{4, 5}, TimeNs{t});
    tracker.observe(Conn{6, 7}, TimeNs{t});
  }
  EXPECT_TRUE(tracker.phase_shifted(TimeNs{600}));
  // Flag clears after reading.
  EXPECT_FALSE(tracker.phase_shifted(TimeNs{600}));
}

TEST(WorkingSetTracker, EmptyEpochsDoNotShift) {
  // Idle periods (computation phases) must not look like phase changes.
  WorkingSetTracker tracker(100_ns, 0.5);
  tracker.observe(Conn{0, 1}, 10_ns);
  EXPECT_FALSE(tracker.phase_shifted(TimeNs{10'000}));
}

TEST(WorkingSetTracker, EpochsCompletedAdvances) {
  WorkingSetTracker tracker(100_ns);
  tracker.observe(Conn{0, 1}, 10_ns);
  tracker.observe(Conn{0, 1}, 450_ns);
  EXPECT_EQ(tracker.epochs_completed(), 4u);
}

TEST(PhasePredictor, EvictsLikeTimeout) {
  const auto p = make_phase_policy(100, 1000);
  p->on_establish(Conn{0, 1}, 0_ns);
  EXPECT_TRUE(p->should_hold(Conn{0, 1}));
  EXPECT_TRUE(p->collect_evictions(50_ns).empty());
  EXPECT_EQ(p->collect_evictions(150_ns).size(), 1u);
}

TEST(PhasePredictor, RecommendsFlushOnWorkingSetShift) {
  const auto p = make_phase_policy(10000, 100, 0.5);
  for (std::int64_t t = 0; t < 300; t += 10) {
    p->on_use(Conn{0, 1}, TimeNs{t});
  }
  EXPECT_FALSE(p->recommend_flush(TimeNs{295}));
  for (std::int64_t t = 300; t < 600; t += 10) {
    p->on_use(Conn{4, 5}, TimeNs{t});
  }
  EXPECT_TRUE(p->recommend_flush(TimeNs{600}));
  EXPECT_FALSE(p->recommend_flush(TimeNs{600}));  // one-shot
}

TEST(PhasePredictor, FactoryProducesPhaseKind) {
  EXPECT_EQ(make_phase_policy(100, 1000)->name(), "phase");
}

TEST(WorkingSetTrackerDeathTest, RejectsBadParameters) {
  EXPECT_DEATH(WorkingSetTracker(0_ns), "positive");
  EXPECT_DEATH(WorkingSetTracker(100_ns, 1.5), "threshold");
}

}  // namespace
}  // namespace pmx
