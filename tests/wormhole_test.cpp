#include "switching/wormhole.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

SystemParams small_params(std::size_t n = 8) {
  SystemParams p;
  p.num_nodes = n;
  return p;
}

TEST(Wormhole, SingleSmallMessageTiming) {
  // One 64-byte message, idle network:
  //   10 ns NIC hand-off to contend, 80 ns arbitration + 80 ns transmission
  //   (64 B at 0.8 B/ns), then 110 ns digital path + 10 ns receive NIC.
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  sim.run();
  ASSERT_EQ(net.records().size(), 1u);
  const MessageRecord& rec = net.records()[0];
  EXPECT_EQ(rec.send_done.ns(), 10 + 80 + 80);
  EXPECT_EQ(rec.delivered.ns(), 170 + 110 + 10);
  EXPECT_EQ(net.counters().value("worms"), 1u);
}

TEST(Wormhole, MessageSplitsIntoWorms) {
  // 300 bytes -> worms of 128, 128, 44 (three arbitrations).
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(0, 1, 300);
  sim.run();
  EXPECT_EQ(net.counters().value("worms"), 3u);
  ASSERT_EQ(net.records().size(), 1u);
  // 10 + (80+160) + (80+160) + (80+55) = 625 send done.
  EXPECT_EQ(net.records()[0].send_done.ns(), 10 + 240 + 240 + 80 + 55);
}

TEST(Wormhole, OutputContentionSerializes) {
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(0, 2, 128);
  net.submit(1, 2, 128);
  sim.run();
  ASSERT_EQ(net.records().size(), 2u);
  // Worm time = 80 + 160 = 240 ns; the two transmissions cannot overlap.
  const auto t0 = net.records()[0].send_done;
  const auto t1 = net.records()[1].send_done;
  EXPECT_GE((t1 - t0).ns(), 240);
}

TEST(Wormhole, DistinctOutputsProceedInParallel) {
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(0, 2, 128);
  net.submit(1, 3, 128);
  sim.run();
  ASSERT_EQ(net.records().size(), 2u);
  EXPECT_EQ(net.records()[0].send_done, net.records()[1].send_done);
}

TEST(Wormhole, NoHeadOfLineBlockingAcrossVoqs) {
  // Source 0 queues a message to the contended output 2 and one to the idle
  // output 3. The paper's NIC has per-destination queues, so the message to
  // 3 must not wait for the full drain of the (long) contended stream.
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(1, 2, 2048);  // long occupancy of output 2
  net.submit(0, 2, 2048);
  net.submit(0, 3, 64);
  sim.run();
  ASSERT_EQ(net.records().size(), 3u);
  TimeNs to3{};
  TimeNs to2_from0{};
  for (const auto& rec : net.records()) {
    if (rec.msg.dst == 3) {
      to3 = rec.delivered;
    } else if (rec.msg.src == 0) {
      to2_from0 = rec.delivered;
    }
  }
  EXPECT_LT(to3, to2_from0);
}

TEST(Wormhole, WormInterleavingIsFair) {
  // Two messages to the same output interleave at worm granularity: the
  // second message's first worm gets through long before the first message
  // completes.
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(0, 2, 1024);
  net.submit(1, 2, 128);
  sim.run();
  TimeNs big{};
  TimeNs small{};
  for (const auto& rec : net.records()) {
    (rec.msg.bytes == 1024 ? big : small) = rec.delivered;
  }
  EXPECT_LT(small, big);
}

TEST(Wormhole, AllMessagesDelivered) {
  Simulator sim;
  WormholeNetwork net(sim, small_params(16));
  std::uint64_t bytes = 0;
  for (NodeId u = 0; u < 16; ++u) {
    for (NodeId v = 0; v < 16; ++v) {
      if (u != v) {
        net.submit(u, v, 8 * (u + 1));
        bytes += 8 * (u + 1);
      }
    }
  }
  sim.run();
  EXPECT_EQ(net.records().size(), 16u * 15u);
  EXPECT_EQ(net.delivered_bytes(), bytes);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(Wormhole, LatencyIncludesQueueing) {
  Simulator sim;
  WormholeNetwork net(sim, small_params());
  net.submit(0, 1, 64);
  net.submit(0, 1, 64);
  sim.run();
  ASSERT_EQ(net.records().size(), 2u);
  EXPECT_GT(net.records()[1].latency(), net.records()[0].latency());
}

TEST(Wormhole, RematchServesTheNextWaitingInputAcrossWords) {
  // N=130: inputs 0, 63, 64 and 129 (words 0, 0, 1 and 2) each queue two
  // worms to output 100. A finished worm wakes the first waiting input
  // after the one just served, so the worms alternate 0, 63, 64, 129 and
  // the rotation wraps from 129 back to 0.
  Simulator sim;
  WormholeNetwork net(sim, small_params(130));
  for (const NodeId u : std::vector<NodeId>{0, 63, 64, 129}) {
    net.submit(u, 100, 256);
  }
  std::vector<NodeId> served;
  for (std::int64_t k = 0; k < 8; ++k) {
    // Worm k holds output 100 over [10 + 240k, 10 + 240(k + 1)).
    sim.run_until(TimeNs{10 + 240 * k + 120});
    const WormholeNetwork::ArbiterView view = net.arbiter_view();
    ASSERT_EQ(view.input_busy.count(), 1u) << "worm " << k;
    const NodeId u = view.input_busy.find_first();
    EXPECT_EQ(view.sources[u].active_dst, 100u);
    EXPECT_TRUE(view.output_busy.get(100));
    served.push_back(u);
  }
  EXPECT_EQ(served, (std::vector<NodeId>{0, 63, 64, 129, 0, 63, 64, 129}));
  sim.run();
  EXPECT_EQ(net.records().size(), 4u);
}

TEST(Wormhole, InputPickSkipsBusyAndDeadOutputsInTheNextWord) {
  // Input 0's cursor is at 0 (word 0) and its traffic sits in word 1:
  // output 64 is held by input 1's worm and output 65's link is down, so
  // the pick passes both and takes 66. The VOQ to 65 waits for the repair.
  SystemParams p = small_params(130);
  p.fault.force_enable = true;
  Simulator sim;
  WormholeNetwork net(sim, p);
  net.fault_model()->inject_link_fault(65, TimeNs{0}, TimeNs{5'000});
  net.submit(1, 64, 2048);
  for (const NodeId v : std::vector<NodeId>{64, 65, 66}) {
    net.submit(0, v, 64);
  }
  sim.run_until(TimeNs{20});
  const WormholeNetwork::ArbiterView view = net.arbiter_view();
  EXPECT_EQ(view.sources[1].active_dst, 64u);
  ASSERT_TRUE(view.input_busy.get(0));
  EXPECT_EQ(view.sources[0].active_dst, 66u);
  EXPECT_TRUE(view.output_busy.get(64));
  EXPECT_TRUE(view.output_busy.get(66));
  sim.run();
  ASSERT_EQ(net.records().size(), 4u);
  for (const MessageRecord& rec : net.records()) {
    if (rec.msg.dst == 65) {
      EXPECT_GT(rec.send_done.ns(), 5'000);
    }
  }
}

}  // namespace
}  // namespace pmx
