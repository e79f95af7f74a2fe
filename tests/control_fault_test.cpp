// Unit tests of the control-plane fault injector: ControlFaultParams
// validation (fail fast on nonsensical knobs), seed determinism of the
// verdict stream, scripted force_* overrides, the watchdog backoff curve,
// and the zero-rate timing-neutrality guarantee. ControlWire.* covers the
// one send path every control message takes: lossless delivery, drops, the
// epoch guard on messages and timers, and the healing/lease answers.

#include "fault/control_fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "sim/simulator.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

constexpr TimeNs kSlot{100};

TEST(ControlFaultParams, DisabledByDefault) {
  const ControlFaultParams p;
  EXPECT_FALSE(p.enabled());
}

TEST(ControlFaultParams, AnyFaultSourceEnables) {
  ControlFaultParams p;
  p.loss = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.corrupt = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.delay_rate = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.grant_loss = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.release_loss = 0.1;
  EXPECT_TRUE(p.enabled());
  p = ControlFaultParams{};
  p.force_enable = true;
  EXPECT_TRUE(p.enabled());
}

TEST(ControlFaultParams, PerKindLossFallsBackToGlobal) {
  ControlFaultParams p;
  p.loss = 0.2;
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRequest), 0.2);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kGrant), 0.2);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRelease), 0.2);
  p.grant_loss = 0.0;  // explicit: grants travel a reliable wire
  p.release_loss = 0.5;
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kGrant), 0.0);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRelease), 0.5);
  EXPECT_DOUBLE_EQ(p.effective_loss(CtrlMsg::kRequest), 0.2);
}

TEST(ControlFaultParams, ValidateRejectsBadKnobs) {
  ControlFaultParams p;
  p.loss = 1.5;
  EXPECT_DEATH(p.validate(kSlot), "loss rate");
  p = ControlFaultParams{};
  p.corrupt = -0.1;
  EXPECT_DEATH(p.validate(kSlot), "corruption rate");
  p = ControlFaultParams{};
  p.delay_rate = 2.0;
  EXPECT_DEATH(p.validate(kSlot), "delay rate");
  p = ControlFaultParams{};
  p.delay = TimeNs{-1};
  EXPECT_DEATH(p.validate(kSlot), "negative control delay");
  p = ControlFaultParams{};
  p.watchdog_timeout = TimeNs::zero();
  EXPECT_DEATH(p.validate(kSlot), "watchdog timeout");
  p = ControlFaultParams{};
  p.watchdog_cap = TimeNs{100};  // below the 500 ns base timeout
  EXPECT_DEATH(p.validate(kSlot), "backoff cap");
  p = ControlFaultParams{};
  p.lease = TimeNs{50};  // shorter than one slot: would expire live pairs
  EXPECT_DEATH(p.validate(kSlot), "lease");
}

TEST(ControlFaultParams, ZeroLeaseDisablesLeasesAndValidates) {
  ControlFaultParams p;
  p.lease = TimeNs::zero();
  p.validate(kSlot);  // must not die
}

TEST(ControlFaultModel, VerdictStreamIsSeedDeterministic) {
  ControlFaultParams p;
  p.loss = 0.2;
  p.corrupt = 0.1;
  p.delay_rate = 0.1;
  Simulator sim_a;
  Simulator sim_b;
  ControlFaultModel a(sim_a, p, kSlot);
  ControlFaultModel b(sim_b, p, kSlot);
  for (int i = 0; i < 2000; ++i) {
    const auto kind = static_cast<CtrlMsg>(i % 3);
    EXPECT_EQ(a.decide(kind), b.decide(kind));
  }
  EXPECT_GT(a.total_dropped(), 0u);
  EXPECT_GT(a.total_corrupted(), 0u);
  EXPECT_GT(a.total_delayed(), 0u);
  EXPECT_EQ(a.total_sent(), 2000u);
}

TEST(ControlFaultModel, ZeroRatesAlwaysDeliver) {
  Simulator sim;
  ControlFaultParams p;
  p.force_enable = true;
  ControlFaultModel cf(sim, p, kSlot);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(cf.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kDeliver);
  }
  EXPECT_EQ(cf.total_dropped(), 0u);
}

TEST(ControlFaultModel, ScriptedFaultsOverrideWithoutConsumingRng) {
  // Two models, same seed and rates. Scripting extra faults into one must
  // not shift its random verdict stream relative to the other: the forced
  // verdicts are inserted, the seeded draws continue in lockstep.
  ControlFaultParams p;
  p.loss = 0.3;
  Simulator sim_a;
  Simulator sim_b;
  ControlFaultModel a(sim_a, p, kSlot);
  ControlFaultModel b(sim_b, p, kSlot);
  a.force_drop(CtrlMsg::kRequest, 1);
  a.force_corrupt(CtrlMsg::kRequest, 1);
  a.force_delay(CtrlMsg::kRequest, 1);
  EXPECT_EQ(a.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kDrop);
  EXPECT_EQ(a.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kCorrupt);
  EXPECT_EQ(a.decide(CtrlMsg::kRequest), ControlFaultModel::Verdict::kDelay);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.decide(CtrlMsg::kRequest), b.decide(CtrlMsg::kRequest));
  }
}

TEST(ControlFaultModel, SendSchedulesDeliveryOrDropsSilently) {
  Simulator sim;
  ControlFaultParams p;
  p.force_enable = true;
  p.delay = TimeNs{40};
  ControlFaultModel cf(sim, p, kSlot);
  std::vector<int> arrived;
  EXPECT_TRUE(cf.send(CtrlMsg::kGrant, TimeNs{10}, [&] { arrived.push_back(1); }));
  cf.force_drop(CtrlMsg::kGrant, 1);
  EXPECT_FALSE(cf.send(CtrlMsg::kGrant, TimeNs{10}, [&] { arrived.push_back(2); }));
  cf.force_delay(CtrlMsg::kGrant, 1);
  EXPECT_TRUE(cf.send(CtrlMsg::kGrant, TimeNs{10}, [&] {
    arrived.push_back(3);
    EXPECT_EQ(sim.now(), TimeNs{50});  // latency 10 + scripted delay 40
  }));
  sim.run_until(1_us);
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_EQ(arrived[0], 1);
  EXPECT_EQ(arrived[1], 3);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).sent, 3u);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).dropped, 1u);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).delayed, 1u);
}

TEST(ControlFaultModel, WatchdogBackoffDoublesToCap) {
  Simulator sim;
  ControlFaultParams p;
  p.force_enable = true;
  p.watchdog_timeout = TimeNs{500};
  p.watchdog_cap = TimeNs{16'000};
  ControlFaultModel cf(sim, p, kSlot);
  EXPECT_EQ(cf.watchdog_delay(1), TimeNs{500});
  EXPECT_EQ(cf.watchdog_delay(2), TimeNs{1000});
  EXPECT_EQ(cf.watchdog_delay(3), TimeNs{2000});
  EXPECT_EQ(cf.watchdog_delay(6), TimeNs{16'000});
  EXPECT_EQ(cf.watchdog_delay(7), TimeNs{16'000});   // capped
  EXPECT_EQ(cf.watchdog_delay(40), TimeNs{16'000});  // no overflow
}

TEST(ControlWire, LosslessSendRunsExactlyLatencyLater) {
  Simulator sim;
  CounterSet counters;
  ControlWire wire(sim, nullptr, counters);
  std::uint32_t inflight = 0;
  std::vector<TimeNs> ran;
  EXPECT_TRUE(wire.send(CtrlMsg::kRequest, TimeNs{80}, &inflight, [&] {
    ran.push_back(sim.now());
    EXPECT_EQ(inflight, 0u);  // the count drops before the callback runs
  }));
  EXPECT_EQ(inflight, 1u);
  sim.run_until(1_us);
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], TimeNs{80});
  EXPECT_EQ(inflight, 0u);
  EXPECT_EQ(counters.value("ctrl_stale"), 0u);
}

TEST(ControlWire, ForcedDropReturnsFalseAndCountsNothingInFlight) {
  Simulator sim;
  CounterSet counters;
  ControlFaultParams p;
  p.force_enable = true;
  ControlFaultModel cf(sim, p, kSlot);
  ControlWire wire(sim, &cf, counters);
  cf.force_drop(CtrlMsg::kGrant, 1);
  std::uint32_t inflight = 0;
  bool ran = false;
  EXPECT_FALSE(
      wire.send(CtrlMsg::kGrant, TimeNs{80}, &inflight, [&] { ran = true; }));
  EXPECT_EQ(inflight, 0u);
  sim.run_until(1_us);
  EXPECT_FALSE(ran);
  EXPECT_EQ(cf.stats(CtrlMsg::kGrant).dropped, 1u);
}

TEST(ControlWire, MessageInFlightAcrossEpochBumpIsVoid) {
  Simulator sim;
  CounterSet counters;
  ControlFaultParams p;
  p.force_enable = true;
  ControlFaultModel cf(sim, p, kSlot);
  ControlWire wire(sim, &cf, counters);
  std::uint32_t inflight = 0;
  int ran = 0;
  EXPECT_TRUE(
      wire.send(CtrlMsg::kRelease, TimeNs{80}, &inflight, [&] { ++ran; }));
  wire.bump_epoch();
  // Sent under the new epoch: delivered normally.
  EXPECT_TRUE(
      wire.send(CtrlMsg::kRelease, TimeNs{80}, nullptr, [&] { ran += 10; }));
  sim.run_until(1_us);
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(counters.value("ctrl_stale"), 1u);
  // The void message leaves its count for the caller's resync to clear.
  EXPECT_EQ(inflight, 1u);
}

TEST(ControlWire, TimerArmedBeforeBumpDoesNotFire) {
  Simulator sim;
  CounterSet counters;
  ControlWire wire(sim, nullptr, counters);
  wire.jump_epoch(~std::uint64_t{0});  // the bump wraps to zero
  bool before = false;
  bool after = false;
  wire.arm(TimeNs{500}, [&] { before = true; });
  wire.bump_epoch();
  EXPECT_EQ(wire.epoch(), 0u);
  wire.arm(TimeNs{500}, [&] { after = true; });
  sim.run_until(1_us);
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
  EXPECT_EQ(counters.value("ctrl_stale"), 0u);  // timers are not messages
}

TEST(ControlWire, NullInFlightCountIsAccepted) {
  Simulator sim;
  CounterSet counters;
  ControlWire wire(sim, nullptr, counters);
  int ran = 0;
  EXPECT_TRUE(wire.send(CtrlMsg::kGrant, TimeNs{0}, nullptr, [&] { ++ran; }));
  EXPECT_TRUE(wire.send(CtrlMsg::kGrant, TimeNs{10}, nullptr, [&] { ++ran; }));
  wire.bump_epoch();
  sim.run_until(1_us);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(counters.value("ctrl_stale"), 2u);
  EXPECT_TRUE(wire.send(CtrlMsg::kGrant, TimeNs{10}, nullptr, [&] { ++ran; }));
  sim.run_until(2_us);
  EXPECT_EQ(ran, 1);
}

TEST(ControlWire, HealingAndLeaseFollowTheModel) {
  Simulator sim;
  CounterSet counters;
  const ControlWire lossless(sim, nullptr, counters);
  EXPECT_FALSE(lossless.healing());
  EXPECT_FALSE(lossless.lease_active());

  ControlFaultParams p;
  p.force_enable = true;
  p.heal = false;
  ControlFaultModel no_heal(sim, p, kSlot);
  const ControlWire off(sim, &no_heal, counters);
  EXPECT_FALSE(off.healing());
  EXPECT_FALSE(off.lease_active());

  p.heal = true;
  p.lease = TimeNs::zero();
  ControlFaultModel no_lease(sim, p, kSlot);
  const ControlWire heal_only(sim, &no_lease, counters);
  EXPECT_TRUE(heal_only.healing());
  EXPECT_FALSE(heal_only.lease_active());

  p.lease = TimeNs{5'000};
  ControlFaultModel both(sim, p, kSlot);
  const ControlWire on(sim, &both, counters);
  EXPECT_TRUE(on.healing());
  EXPECT_TRUE(on.lease_active());
}

}  // namespace
}  // namespace pmx
