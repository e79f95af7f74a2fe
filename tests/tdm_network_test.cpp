#include "switching/tdm.hpp"

#include <gtest/gtest.h>

#include "predictor/policy_engine.hpp"
#include "sim/simulator.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

SystemParams small_params(std::size_t n = 8, std::size_t k = 4) {
  SystemParams p;
  p.num_nodes = n;
  p.mux_degree = k;
  return p;
}

TEST(TdmNetwork, DeliversSingleMessage) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  sim.run_until(10_us);
  ASSERT_EQ(net.records().size(), 1u);
  const auto& rec = net.records()[0];
  // 64 bytes fit in one slot's data window (the paper's "messages between 8
  // and 64 bytes can be transmitted in a single cycle").
  EXPECT_LE(rec.send_done.ns(), 500);  // established + first active slot
  EXPECT_EQ((rec.delivered - rec.send_done).ns(), 100 + 10);
}

TEST(TdmNetwork, LargeMessageFragmentsAcrossSlots) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  net.submit(0, 1, 256);  // 4 slot windows of 64 B
  sim.run_until(10_us);
  ASSERT_EQ(net.records().size(), 1u);
  // With only one live connection the TDM counter re-serves it every slot:
  // 4 consecutive slots minimum.
  EXPECT_GE(net.records()[0].send_done.ns(), 400);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(TdmNetwork, SlotCapacityMatchesPaperKnee) {
  const SystemParams p = small_params();
  // 100 ns slot minus 20 ns guard at 0.8 B/ns = 64 bytes: the 64->80 byte
  // knee in the paper's scatter results.
  EXPECT_EQ(p.slot_payload_bytes(), 64u);
}

TEST(TdmNetwork, ManySmallMessagesShareOneSlotWindow) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  // 8 x 8 B to the same destination: one 64 B window drains all of them.
  for (int i = 0; i < 8; ++i) {
    net.submit(0, 1, 8);
  }
  sim.run_until(10_us);
  EXPECT_EQ(net.records().size(), 8u);
  // All eight share the same slot: identical delivery slot start.
  const auto first = net.records().front().delivered;
  const auto last = net.records().back().delivered;
  EXPECT_LT((last - first).ns(), 100);
}

TEST(TdmNetwork, ConflictingTrafficLandsInDifferentSlots) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  net.submit(0, 3, 640);
  net.submit(1, 3, 640);
  sim.run_until(100_us);
  EXPECT_EQ(net.records().size(), 2u);
  EXPECT_GE(net.scheduler().stats().establishes, 2u);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(TdmNetwork, RequestsTrackVoqState) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  EXPECT_TRUE(net.scheduler().request(0, 1));
  sim.run_until(10_us);
  EXPECT_FALSE(net.scheduler().request(0, 1));  // drained
}

TEST(TdmNetwork, TimeoutPredictorReleasesIdleConnection) {
  Simulator sim;
  TdmNetwork::Options options;
  options.predictor = make_policy(PolicySpec::parse("timeout:200"));
  TdmNetwork net(sim, small_params(), std::move(options));
  net.submit(0, 1, 64);
  sim.run_until(5_us);
  // Long after the timeout, the connection must be gone from B*.
  EXPECT_FALSE(net.scheduler().is_established(0, 1));
}

TEST(TdmNetwork, NoPredictorReleasesImmediately) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  sim.run_until(2_us);
  EXPECT_FALSE(net.scheduler().is_established(0, 1));
}

TEST(TdmNetwork, HoldKeepsConnectionForReuse) {
  Simulator sim;
  TdmNetwork::Options options;
  options.predictor = make_policy(PolicySpec::parse("never-evict"));
  TdmNetwork net(sim, small_params(), std::move(options));
  net.submit(0, 1, 64);
  sim.run_until(2_us);
  EXPECT_TRUE(net.scheduler().is_established(0, 1));  // latched
  // Reuse without re-establishment.
  const auto before = net.scheduler().stats().establishes;
  net.submit(0, 1, 64);
  sim.run_until(4_us);
  EXPECT_EQ(net.scheduler().stats().establishes, before);
  EXPECT_EQ(net.records().size(), 2u);
}

TEST(TdmNetwork, FlushHintDropsDynamicState) {
  Simulator sim;
  TdmNetwork::Options options;
  options.predictor = make_policy(PolicySpec::parse("never-evict"));
  TdmNetwork net(sim, small_params(), std::move(options));
  net.submit(0, 1, 64);
  sim.run_until(2_us);
  ASSERT_TRUE(net.scheduler().is_established(0, 1));
  net.flush_hint();
  EXPECT_FALSE(net.scheduler().is_established(0, 1));
  EXPECT_EQ(net.counters().value("flushes"), 1u);
}

TEST(TdmNetwork, PreloadedPinnedConfigServesTrafficWithoutEstablishment) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  BitMatrix cfg(8);
  cfg.set(0, 1);
  cfg.set(2, 3);
  net.preload(0, cfg, /*pinned=*/true);
  net.submit(0, 1, 128);
  net.submit(2, 3, 128);
  sim.run_until(10_us);
  EXPECT_EQ(net.records().size(), 2u);
  EXPECT_EQ(net.scheduler().stats().establishes, 0u);  // all via preload
  EXPECT_TRUE(net.scheduler().is_established(0, 1));   // pinned stays
}

TEST(TdmNetwork, HybridServesPreloadedAndDynamicTraffic) {
  Simulator sim;
  TdmNetwork net(sim, small_params(8, 3));
  BitMatrix cfg(8);
  for (NodeId u = 0; u < 8; ++u) {
    cfg.set(u, (u + 1) % 8);
  }
  net.preload(0, cfg, true);  // favored pattern pinned in slot 0
  for (NodeId u = 0; u < 8; ++u) {
    net.submit(u, (u + 1) % 8, 64);  // deterministic traffic
    net.submit(u, (u + 3) % 8, 64);  // dynamic traffic
  }
  sim.run_until(50_us);
  EXPECT_EQ(net.records().size(), 16u);
  EXPECT_GT(net.scheduler().stats().establishes, 0u);  // dynamic part
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(TdmNetwork, MultiSlotExtensionIncreasesBandwidth) {
  // One lonely 2048-byte flow: with the extension it replicates into all
  // slots; without, the TDM counter skipping empty slots achieves the same
  // for a single connection, so compare with two unrelated flows present.
  const auto run = [](bool multi_slot) {
    Simulator sim;
    TdmNetwork::Options options;
    options.multi_slot_connections = multi_slot;
    options.predictor = make_policy(PolicySpec::parse("never-evict"));
    TdmNetwork net(sim, small_params(), std::move(options));
    net.submit(0, 1, 4096);
    net.submit(2, 3, 64);  // keeps a second slot occupied briefly
    sim.run_until(100_us);
    return net.records().back().delivered;
  };
  EXPECT_LE(run(true), run(false));
}

TEST(TdmNetwork, SlotSkippingIdlesWhenNoRequests) {
  Simulator sim;
  TdmNetwork::Options options;
  options.predictor = make_policy(PolicySpec::parse("never-evict"));
  TdmNetwork net(sim, small_params(), std::move(options));
  net.submit(0, 1, 64);
  sim.run_until(5_us);
  // Connection latched but no pending request: slots are skipped, fabric
  // idles (idle_slots counter advances).
  EXPECT_GT(net.counters().value("idle_slots"), 0u);
}

TEST(TdmNetwork, ParallelSlUnitsEstablishFaster) {
  // Section 4 extension 1: with one SL unit per slot, a burst of
  // conflicting requests spreads over all K slots within one SL clock
  // instead of K clocks.
  const auto established_after_first_tick = [](std::size_t units) {
    Simulator sim;
    TdmNetwork::Options options;
    options.sl_units = units;
    TdmNetwork net(sim, small_params(8, 4), std::move(options));
    // Four flows all competing for output 7 need four distinct slots.
    for (NodeId u = 0; u < 4; ++u) {
      net.submit(u, 7, 640);
    }
    sim.run_until(TimeNs{1});  // exactly one SL clock edge (t = 0)
    std::size_t established = 0;
    for (NodeId u = 0; u < 4; ++u) {
      established += net.scheduler().is_established(u, 7) ? 1u : 0u;
    }
    return established;
  };
  EXPECT_EQ(established_after_first_tick(1), 1u);
  EXPECT_EQ(established_after_first_tick(4), 4u);
}

TEST(TdmNetwork, PhasePredictorAutoFlushesOnPhaseChange) {
  Simulator sim;
  TdmNetwork::Options options;
  // Long timeout so only the phase detector can clear stale state; short
  // tracking epoch so the shift is seen quickly.
  PolicySpec spec = PolicySpec::parse("phase:50000");
  spec.phase_epoch_ns = 500;
  spec.phase_shift_threshold = 0.5;
  options.predictor = make_policy(spec);
  TdmNetwork net(sim, small_params(8, 4), std::move(options));
  // Phase A: a stable working set.
  for (NodeId u = 0; u < 4; ++u) {
    net.submit(u, (u + 1) % 8, 640);
  }
  sim.run_until(3_us);
  // Phase B: a disjoint working set.
  for (NodeId u = 4; u < 8; ++u) {
    net.submit(u, (u + 2) % 4, 640);
  }
  sim.run_until(20_us);
  EXPECT_GT(net.counters().value("auto_flushes"), 0u);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(TdmNetwork, DeterministicReplay) {
  const auto run = [] {
    Simulator sim;
    TdmNetwork net(sim, small_params());
    for (NodeId u = 0; u < 8; ++u) {
      net.submit(u, (u + 1) % 8, 200);
      net.submit(u, (u + 3) % 8, 100);
    }
    sim.run_until(100_us);
    std::vector<std::int64_t> deliveries;
    for (const auto& rec : net.records()) {
      deliveries.push_back(rec.delivered.ns());
    }
    return deliveries;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pmx
