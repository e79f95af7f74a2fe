// Epoch wraparound hardening of the control-plane resync machinery. The
// resync epoch is a free-running counter compared only for equality, so
// wrapping 2^64 must be invisible: in-flight invalidation, watchdog
// re-arming, and delivery all keep working across the wrap. The soak
// drives thousands of resyncs through a counter parked just below the
// wrap point.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/stats.hpp"
#include "fault/control_fault.hpp"
#include "nic/control_plane.hpp"
#include "sim/simulator.hpp"
#include "switching/tdm.hpp"
#include "traffic/patterns.hpp"

#include "core/experiment.hpp"

namespace pmx {
namespace {

constexpr std::uint64_t kMaxEpoch = std::numeric_limits<std::uint64_t>::max();

ControlFaultParams lossless() {
  ControlFaultParams p;
  p.force_enable = true;  // all rates zero: a perfect but epoch-guarded wire
  return p;
}

struct PlaneHarness {
  Simulator sim;
  ControlFaultParams params = lossless();
  ControlFaultModel ctrl;
  CounterSet counters;
  ControlPlane plane;
  std::uint64_t requests = 0;
  std::uint64_t releases = 0;

  PlaneHarness()
      : ctrl(sim, params, TimeNs{100}),
        plane(sim, ctrl,
              ControlPlane::Options{/*num_nodes=*/4,
                                    /*wire_latency=*/TimeNs{80},
                                    /*grant_line=*/true},
              counters, [this](NodeId, NodeId, bool value) {
                value ? ++requests : ++releases;
              }) {}
};

TEST(ControlPlaneEpoch, SoakThousandsOfResyncsAcrossTheWrap) {
  PlaneHarness h;
  h.plane.jump_epoch(kMaxEpoch - 1000);
  constexpr std::uint64_t kIterations = 3000;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    h.plane.want(0, 1);
    h.sim.run_until(h.sim.now() + TimeNs{300});  // inside the 500 ns watchdog
    h.plane.unwant(0, 1);
    h.sim.run_until(h.sim.now() + TimeNs{300});
    // Quiesced between iterations: nothing left to invalidate.
    EXPECT_EQ(h.plane.begin_resync(), 0u);
    h.plane.force_state(0, 1, /*wants=*/false, /*granted=*/false);
  }
  // Every request/release arrived, on both sides of the wrap.
  EXPECT_EQ(h.requests, kIterations);
  EXPECT_EQ(h.releases, kIterations);
  // The counter really did wrap: max - 1000 + 3000 mod 2^64.
  EXPECT_EQ(h.plane.epoch(), 1999u);
}

TEST(ControlPlaneEpoch, InFlightMessageGoesStaleAcrossTheWrapItself) {
  PlaneHarness h;
  h.plane.jump_epoch(kMaxEpoch);  // the very next resync wraps to zero
  h.plane.want(0, 1);             // request now in flight (80 ns wire)
  EXPECT_EQ(h.plane.begin_resync(), 1u);
  EXPECT_EQ(h.plane.epoch(), 0u);  // wrapped
  h.plane.force_state(0, 1, /*wants=*/true, /*granted=*/false);
  h.sim.run_until(TimeNs{200});
  // The pre-wrap delivery was invalidated, not double-applied: the
  // scheduler has not heard the request yet.
  EXPECT_EQ(h.requests, 0u);
  // The re-armed watchdog reissues under the post-wrap epoch and the
  // request eventually lands.
  h.sim.run_until(TimeNs{100'000});
  EXPECT_GE(h.requests, 1u);
}

TEST(ControlPlaneEpoch, ReoptResyncsCarryANetworkAcrossTheWrap) {
  // Poison-every-proposal re-optimization makes every service cycle an
  // apply + rollback pair, each of which runs the A7 resync path and bumps
  // the epoch. Parked just below 2^64, the run crosses the wrap while
  // traffic is in flight and must still deliver everything.
  const Workload workload = patterns::random_mesh(16, 256, 8, 3);
  Simulator sim;
  SystemParams params;
  params.num_nodes = 16;
  params.ctrl.force_enable = true;  // lossless, but epoch-guarded channel
  params.reopt.period_slots = 8;
  params.reopt.chaos_empty_every = 1;
  params.audit.enabled = true;
  params.audit.strict = false;
  params.fault.force_enable = true;
  TdmNetwork net(sim, params);
  ASSERT_NE(net.control_plane(), nullptr);
  net.control_plane()->jump_epoch(kMaxEpoch - 3);

  TrafficDriver driver(sim, net, workload, SendMode::kEager);
  driver.start();
  sim.run_until(TimeNs{500'000'000});
  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(net.delivered_count(), workload.num_messages());
  // At least two poison cycles ran (four epoch bumps), so the counter is
  // far below its parked pre-wrap value: it wrapped and kept counting.
  EXPECT_GE(net.reopt_stats()->rollbacks, 2u);
  EXPECT_LT(net.control_plane()->epoch(), 1'000'000u);
}

}  // namespace
}  // namespace pmx
