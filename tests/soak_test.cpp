// Long-running randomized soak: inject bursty random traffic into the
// dynamic TDM network over many thousands of slots while sampling global
// invariants. The scheduler's internal PMX_CHECKs (partial-permutation
// configurations, B* consistency) stay armed throughout.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nic/admission.hpp"
#include "predictor/policy_engine.hpp"
#include "sim/simulator.hpp"
#include "switching/circuit.hpp"
#include "switching/tdm.hpp"
#include "switching/wormhole.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

class TdmSoakTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(TdmSoakTest, InvariantsHoldUnderRandomChurn) {
  const auto [seed, multi_slot] = GetParam();
  Simulator sim;
  SystemParams params;
  params.num_nodes = 16;
  params.mux_degree = 4;
  TdmNetwork::Options options;
  options.multi_slot_connections = multi_slot;
  options.predictor = make_policy(PolicySpec::parse("timeout:300"));
  TdmNetwork net(sim, params, std::move(options));

  Rng rng(seed);
  std::uint64_t submitted_bytes = 0;
  std::uint64_t submitted_count = 0;

  // Bursty injector: every 50-500 ns, one node enqueues 1-4 messages.
  std::function<void()> inject = [&] {
    if (sim.now() > 300'000_ns) {
      return;  // stop injecting; let the network drain
    }
    const auto u = static_cast<NodeId>(rng.below(16));
    const auto burst = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < burst; ++i) {
      auto v = static_cast<NodeId>(rng.below(15));
      if (v >= u) {
        ++v;
      }
      const std::uint64_t bytes = 8 * (1 + rng.below(64));
      net.submit(u, v, bytes);
      submitted_bytes += bytes;
      ++submitted_count;
    }
    sim.schedule_after(TimeNs{static_cast<std::int64_t>(50 + rng.below(450))},
                       [&inject] { inject(); });
  };
  sim.schedule_after(0_ns, [&inject] { inject(); });

  // Invariant sampler: every 10 slots.
  std::uint64_t samples = 0;
  std::function<void()> sample = [&] {
    ++samples;
    const auto& sched = net.scheduler();
    // Conservation: everything submitted is delivered or still queued (or
    // in flight for at most one slot's worth per connection, which is
    // covered by queued_bytes since consumption happens at delivery
    // scheduling time).
    EXPECT_LE(net.delivered_bytes() + net.queued_bytes(), submitted_bytes);
    // B* is the OR of the slots and can't exceed total capacity.
    EXPECT_LE(sched.established().count(), 16u * params.mux_degree);
    // Live multiplexing degree bounded by K.
    EXPECT_LE(sched.live_mux_degree(), params.mux_degree);
    if (sim.now() < 400'000_ns) {
      sim.schedule_after(1_us, [&sample] { sample(); });
    }
  };
  sim.schedule_after(500_ns, [&sample] { sample(); });

  sim.run_until(600_us);

  EXPECT_GT(samples, 300u);
  EXPECT_EQ(net.records().size(), submitted_count);
  EXPECT_EQ(net.delivered_bytes(), submitted_bytes);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Churn, TdmSoakTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Bool()));

TEST(TdmSoak, PhasePredictorSurvivesChurn) {
  Simulator sim;
  SystemParams params;
  params.num_nodes = 16;
  TdmNetwork::Options options;
  PolicySpec spec = PolicySpec::parse("phase:500");
  spec.phase_epoch_ns = 2'000;
  spec.phase_shift_threshold = 0.3;
  options.predictor = make_policy(spec);
  TdmNetwork net(sim, params, std::move(options));
  Rng rng(99);
  std::uint64_t submitted = 0;
  // Alternate between two disjoint communication phases every ~20 us.
  std::function<void()> inject = [&] {
    if (sim.now() > 200'000_ns) {
      return;
    }
    const bool phase_a = (sim.now().ns() / 20'000) % 2 == 0;
    const auto u = static_cast<NodeId>(rng.below(8) + (phase_a ? 0 : 8));
    const auto v = static_cast<NodeId>((u + 1 + rng.below(3)) % 8 +
                                       (phase_a ? 0 : 8));
    if (u != v) {
      net.submit(u, v, 64);
      ++submitted;
    }
    sim.schedule_after(TimeNs{static_cast<std::int64_t>(100 + rng.below(200))},
                       [&inject] { inject(); });
  };
  sim.schedule_after(0_ns, [&inject] { inject(); });
  sim.run_until(400_us);
  EXPECT_EQ(net.records().size(), submitted);
  // The working set flips between disjoint halves: the phase predictor
  // should have fired at least once.
  EXPECT_GT(net.counters().value("auto_flushes"), 0u);
}

// Bursty churn against a network with finite VOQ capacity: the admission
// controller sheds under the bursts, yet the occupancy invariant (queued
// backlog bounded by the armed budget) and the conservation ledger
// (submitted == delivered + shed) hold at every sample and at drain.
template <typename NetT>
void bounded_churn_soak(Simulator& sim, NetT& net, std::uint64_t seed,
                        std::size_t nodes, std::uint64_t capacity_bytes) {
  Rng rng(seed);
  std::function<void()> inject = [&] {
    if (sim.now() > 300'000_ns) {
      return;  // stop injecting; let the network drain
    }
    const auto u = static_cast<NodeId>(rng.below(nodes));
    const auto burst = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < burst; ++i) {
      auto v = static_cast<NodeId>(rng.below(nodes - 1));
      if (v >= u) {
        ++v;
      }
      const std::uint64_t bytes = 8 * (1 + rng.below(64));
      // Open-loop injector: a shed message is simply gone (the outcome says
      // so); nothing retries, exactly like the overload campaign.
      net.try_submit(u, v, bytes);
    }
    sim.schedule_after(TimeNs{static_cast<std::int64_t>(50 + rng.below(450))},
                       [&inject] { inject(); });
  };
  sim.schedule_after(0_ns, [&inject] { inject(); });

  std::uint64_t samples = 0;
  std::function<void()> sample = [&] {
    ++samples;
    // Conservation mid-flight: everything submitted is delivered, shed, or
    // still inside a bounded queue / the active transfer.
    ASSERT_GE(net.submitted_bytes(),
              net.delivered_bytes() + net.shed_bytes());
    const std::uint64_t in_network =
        net.submitted_bytes() - net.delivered_bytes() - net.shed_bytes();
    // Bounded occupancy: per-source budget plus one in-flight message.
    EXPECT_LE(in_network, nodes * (capacity_bytes + 512));
    if (sim.now() < 400'000_ns) {
      sim.schedule_after(1_us, [&sample] { sample(); });
    }
  };
  sim.schedule_after(500_ns, [&sample] { sample(); });

  sim.run_until(600_us);

  EXPECT_GT(samples, 300u);
  EXPECT_GT(net.shed_messages(), 0u);  // the bursts really did overflow
  EXPECT_EQ(net.delivered_count() + net.shed_messages(),
            net.submitted_count());
  EXPECT_EQ(net.delivered_bytes() + net.shed_bytes(), net.submitted_bytes());
}

class BoundedSoakTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static SystemParams bounded_params() {
    SystemParams params;
    params.num_nodes = 16;
    params.admission.capacity_bytes = 1024;
    params.admission.policy = ShedPolicy::kDropOldest;
    return params;
  }
};

TEST_P(BoundedSoakTest, CircuitDrainsUnderBurstyChurn) {
  Simulator sim;
  const SystemParams params = bounded_params();
  CircuitNetwork net(sim, params, CircuitNetwork::Options{});
  bounded_churn_soak(sim, net, GetParam(), params.num_nodes,
                     params.admission.capacity_bytes);
}

TEST_P(BoundedSoakTest, WormholeDrainsUnderBurstyChurn) {
  Simulator sim;
  const SystemParams params = bounded_params();
  WormholeNetwork net(sim, params);
  bounded_churn_soak(sim, net, GetParam(), params.num_nodes,
                     params.admission.capacity_bytes);
}

INSTANTIATE_TEST_SUITE_P(Churn, BoundedSoakTest,
                         ::testing::Values<std::uint64_t>(7, 8, 9));

}  // namespace
}  // namespace pmx
