// End-to-end fault tolerance: transient corruption, ACK loss, hard link
// faults with repair, retry-budget exhaustion, and degraded-mode behaviour
// of each switching paradigm.

#include <gtest/gtest.h>

#include <memory>

#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "switching/circuit.hpp"
#include "switching/tdm.hpp"
#include "switching/wormhole.hpp"
#include "traffic/patterns.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

SystemParams faulty_params(std::size_t n, double ber) {
  SystemParams p;
  p.num_nodes = n;
  p.fault.ber = ber;
  p.fault.force_enable = true;
  return p;
}

TEST(FaultInjection, CorruptedMessagesAreRetransmittedUntilClean) {
  Simulator sim;
  // ~23% corruption probability per 256-byte message.
  WormholeNetwork net(sim, faulty_params(8, 1e-3));
  for (int i = 0; i < 20; ++i) {
    net.submit(0, 1, 256);
    net.submit(2, 3, 256);
  }
  sim.run_until(10'000_us);
  EXPECT_EQ(net.delivered_count(), 40u);
  EXPECT_EQ(net.outstanding_reliable(), 0u);
  EXPECT_EQ(net.dropped_messages(), 0u);
  EXPECT_GT(net.counters().value("crc_corruptions"), 0u);
  EXPECT_GT(net.counters().value("retransmits"), 0u);
  // Every retransmitted copy costs wire bytes beyond the goodput.
  EXPECT_GT(net.wire_bytes(), net.delivered_bytes());
}

TEST(FaultInjection, LostAcksCauseDuplicatesThatAreSuppressed) {
  SystemParams p;
  p.num_nodes = 8;
  p.fault.ber = 0.0;
  p.fault.ack_ber = 0.02;  // ~15% of ACKs lost, data never corrupted
  p.fault.force_enable = true;
  Simulator sim;
  WormholeNetwork net(sim, p);
  for (int i = 0; i < 50; ++i) {
    net.submit(0, 1, 128);
  }
  sim.run_until(10'000_us);
  // Data path is clean: every message delivered exactly once.
  EXPECT_EQ(net.delivered_count(), 50u);
  EXPECT_GT(net.counters().value("acks_lost"), 0u);
  EXPECT_EQ(net.counters().value("duplicates_suppressed"),
            net.counters().value("retransmits"));
}

TEST(FaultInjection, RetryBudgetExhaustionDropsAndTerminates) {
  SystemParams p;
  p.num_nodes = 4;
  p.fault.ber = 1.0;  // every copy corrupted: delivery is impossible
  p.fault.retry_budget = 4;
  p.fault.backoff_base = 100_ns;
  p.fault.backoff_cap = 400_ns;
  Simulator sim;
  WormholeNetwork net(sim, p);
  bool dropped_seen = false;
  net.set_dropped_handler([&](const Message& msg) {
    dropped_seen = true;
    EXPECT_EQ(msg.src, 0u);
  });
  net.submit(0, 1, 64);
  sim.run_until(10'000_us);
  EXPECT_TRUE(dropped_seen);
  EXPECT_EQ(net.delivered_count(), 0u);
  EXPECT_EQ(net.dropped_messages(), 1u);
  EXPECT_EQ(net.outstanding_reliable(), 0u);
  // Exactly retry_budget copies crossed the wire.
  EXPECT_EQ(net.counters().value("crc_corruptions"), 4u);
}

TEST(FaultInjection, CorruptDuplicateAtBudgetOfDeliveredMessageSettles) {
  // Regression: a message delivered clean whose ACK keeps getting lost and
  // whose final timeout duplicate arrives *corrupted* at the retry budget
  // must settle as complete, not as a drop. The drop path would count the
  // same message as both delivered and dropped, so delivered + dropped >
  // submitted and the driver's barrier/stop accounting would never balance.
  SystemParams p;
  p.num_nodes = 4;
  p.fault.ack_ber = 1.0;  // every ACK lost: retransmit up to the budget
  p.fault.retry_budget = 2;
  p.fault.backoff_base = 100_ns;
  p.fault.backoff_cap = 200_ns;
  Simulator sim;
  WormholeNetwork net(sim, p);
  bool dropped_seen = false;
  net.set_dropped_handler([&](const Message&) { dropped_seen = true; });
  // Script the corruption of the retransmitted duplicate: the flag is set
  // when the first copy records clean, so only the second copy on the wire
  // fails its CRC check.
  net.set_delivered_handler([&](const MessageRecord&) {
    net.fault_model()->force_corrupt_payloads(1);
  });
  net.submit(0, 1, 256);
  sim.run_until(10'000_us);
  // Attempt 1 arrived clean (recorded), its ACK was lost, attempt 2 arrived
  // corrupted with the budget exhausted: complete, never dropped.
  EXPECT_EQ(net.delivered_count(), 1u);
  EXPECT_EQ(net.dropped_messages(), 0u);
  EXPECT_FALSE(dropped_seen);
  EXPECT_EQ(net.outstanding_reliable(), 0u);
  EXPECT_EQ(net.delivered_count() + net.dropped_messages(),
            net.submitted_count());
  EXPECT_EQ(net.counters().value("crc_corruptions"), 1u);
  EXPECT_EQ(net.counters().value("acks_lost"), 1u);
  EXPECT_EQ(net.counters().value("ack_retries_exhausted"), 1u);
}

TEST(FaultInjection, WormholeHealsAcrossLinkOutage) {
  SystemParams p;
  p.num_nodes = 8;
  p.fault.force_enable = true;
  Simulator sim;
  WormholeNetwork net(sim, p);
  // Kill node 1's cable while a long transfer into it is in flight.
  net.fault_model()->inject_link_fault(1, 2'000_ns, 50'000_ns);
  net.submit(0, 1, 8192);
  net.submit(1, 2, 512);  // traffic *from* the dead node also stalls
  sim.run_until(10'000_us);
  EXPECT_EQ(net.delivered_count(), 2u);
  EXPECT_EQ(net.dropped_messages(), 0u);
  ASSERT_EQ(net.recoveries().size(), 1u);
  const RecoveryRecord& rec = net.recoveries()[0];
  EXPECT_EQ(rec.node, 1u);
  ASSERT_TRUE(rec.repaired.has_value());
  EXPECT_EQ((*rec.repaired - rec.down), 50'000_ns);
  ASSERT_TRUE(rec.recovered.has_value());
  EXPECT_GE(*rec.recovered, *rec.repaired);
}

TEST(FaultInjection, CircuitHealsAcrossLinkOutage) {
  SystemParams p;
  p.num_nodes = 8;
  p.fault.force_enable = true;
  Simulator sim;
  CircuitNetwork net(sim, p, CircuitNetwork::Options{.hold_circuits = true});
  net.fault_model()->inject_link_fault(3, 1'000_ns, 30'000_ns);
  net.submit(0, 3, 4096);  // into the failing node
  net.submit(3, 5, 1024);  // out of the failing node
  net.submit(4, 5, 256);   // unrelated pair keeps working
  sim.run_until(10'000_us);
  EXPECT_EQ(net.delivered_count(), 3u);
  EXPECT_EQ(net.dropped_messages(), 0u);
  EXPECT_EQ(net.outstanding_reliable(), 0u);
}

// Source 0 holds its circuit to node 3, and node 3's cable dies during the
// second, reused transfer. The teardown that follows must end the hold: the
// third message (to `third_dst`) may neither reuse the circuit whose
// release is in flight nor tear the same output down a second time.
void run_held_circuit_outage(CircuitNetwork& net, Simulator& sim,
                             NodeId third_dst) {
  net.fault_model()->inject_link_fault(3, 6'000_ns, 10'000_ns);
  for (const NodeId dst : {NodeId{3}, NodeId{3}, third_dst, NodeId{3}}) {
    net.submit(0, dst, 4096);
  }
  sim.run_until(10'000_us);
  EXPECT_EQ(net.delivered_count(), 4u);
  EXPECT_EQ(net.dropped_messages(), 0u);
  EXPECT_EQ(net.outstanding_reliable(), 0u);
}

TEST(FaultInjection, HeldCircuitDyingMidReuseIsNotReusedAgain) {
  Simulator sim;
  CircuitNetwork net(sim, faulty_params(8, 0.0),
                     CircuitNetwork::Options{.hold_circuits = true});
  run_held_circuit_outage(net, sim, 3);
  EXPECT_EQ(net.counters().value("circuit_reuses"), 3u);
  EXPECT_EQ(net.counters().value("circuits_established"), 2u);
  EXPECT_EQ(net.counters().value("circuit_waits"), 1u);
}

TEST(FaultInjection, HeldCircuitDyingMidReuseIsNotTornDownTwice) {
  Simulator sim;
  CircuitNetwork net(sim, faulty_params(8, 0.0),
                     CircuitNetwork::Options{.hold_circuits = true});
  run_held_circuit_outage(net, sim, 5);
  EXPECT_EQ(net.counters().value("circuit_reuses"), 2u);
  EXPECT_EQ(net.counters().value("circuits_established"), 3u);
}

TEST(FaultInjection, DynamicTdmMasksAndReestablishes) {
  SystemParams p;
  p.num_nodes = 8;
  p.fault.force_enable = true;
  Simulator sim;
  TdmNetwork net(sim, p);
  net.fault_model()->inject_link_fault(2, 5'000_ns, 40'000_ns);
  net.submit(0, 2, 4096);
  net.submit(2, 4, 2048);
  net.submit(5, 6, 2048);
  sim.run_until(10'000_us);
  EXPECT_EQ(net.delivered_count(), 3u);
  EXPECT_EQ(net.outstanding_reliable(), 0u);
  // The outage force-released the established connections of port 2.
  EXPECT_GT(net.counters().value("forced_releases"), 0u);
  EXPECT_GT(net.counters().value("link_faults"), 0u);
  EXPECT_GT(net.counters().value("link_repairs"), 0u);
}

TEST(FaultInjection, DynamicTdmStuckCellsRouteAroundInUnstuckPairs) {
  SystemParams p;
  p.num_nodes = 8;
  p.fault.stuck_cells = 6;
  Simulator sim;
  TdmNetwork net(sim, p);
  const auto& stuck = net.fault_model()->stuck_cells();
  ASSERT_EQ(stuck.size(), 6u);
  // Pick a pair whose SL cell is healthy and verify it still communicates.
  NodeId src = 0;
  NodeId dst = 1;
  const auto is_stuck = [&stuck](NodeId u, NodeId v) {
    for (const auto& [su, sv] : stuck) {
      if (su == u && sv == v) {
        return true;
      }
    }
    return false;
  };
  for (NodeId u = 0; u < 8 && is_stuck(src, dst); ++u) {
    for (NodeId v = 0; v < 8; ++v) {
      if (u != v && !is_stuck(u, v)) {
        src = u;
        dst = v;
      }
    }
  }
  ASSERT_FALSE(is_stuck(src, dst));
  net.submit(src, dst, 1024);
  sim.run_until(1'000_us);
  EXPECT_EQ(net.delivered_count(), 1u);
}

TEST(FaultInjection, PreloadTdmRetransmitsWithinPhaseBudget) {
  RunConfig config;
  config.params.num_nodes = 16;
  config.params.fault.ber = 5e-4;
  config.kind = SwitchKind::kPreloadTdm;
  config.horizon = TimeNs{200'000'000};
  const Workload w = patterns::ordered_mesh(16, 512, /*rounds=*/2);
  const RunResult result = run_workload(config, w);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.metrics.messages, w.num_messages());
  EXPECT_GT(result.metrics.retransmits, 0u);
  EXPECT_EQ(result.metrics.dropped_messages, 0u);
  EXPECT_GT(result.metrics.wire_throughput, result.metrics.goodput);
}

TEST(FaultInjection, AllParadigmsCompleteUnderTransientCorruption) {
  const Workload w = patterns::random_mesh(16, 256, /*rounds=*/2, /*seed=*/7);
  for (const auto kind :
       {SwitchKind::kWormhole, SwitchKind::kCircuit, SwitchKind::kDynamicTdm,
        SwitchKind::kPreloadTdm}) {
    RunConfig config;
    config.params.num_nodes = 16;
    config.params.fault.ber = 2e-4;
    config.kind = kind;
    config.horizon = TimeNs{200'000'000};
    const RunResult result = run_workload(config, w);
    EXPECT_TRUE(result.completed) << to_string(kind);
    EXPECT_EQ(result.metrics.messages, w.num_messages()) << to_string(kind);
    EXPECT_EQ(result.metrics.dropped_messages, 0u) << to_string(kind);
  }
}

TEST(FaultInjection, DriverTerminatesWhenMessagesDrop) {
  // A workload with barriers over a hopeless link must still finish: the
  // dropped messages count as resolved and release the barrier.
  SystemParams p;
  p.num_nodes = 4;
  p.fault.ber = 1.0;
  p.fault.retry_budget = 3;
  p.fault.backoff_base = 100_ns;
  p.fault.backoff_cap = 200_ns;
  Workload w;
  w.programs.resize(4);
  w.programs[0].push_back(Command::send(1, 64));
  for (auto& prog : w.programs) {
    prog.push_back(Command::barrier());
  }
  w.programs[2].push_back(Command::send(3, 64));

  Simulator sim;
  WormholeNetwork net(sim, p);
  TrafficDriver driver(sim, net, w);
  driver.start();
  sim.run_until(100'000_us);
  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(driver.messages_dropped(), 2u);
}

}  // namespace
}  // namespace pmx
