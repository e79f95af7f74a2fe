// End-to-end flow control (Section 2: circuits need "only end-to-end flow
// control"): finite receive buffers with credit-based backpressure on the
// dynamic TDM network.

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "switching/tdm.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

SystemParams small_params(std::size_t n = 8) {
  SystemParams p;
  p.num_nodes = n;
  return p;
}

TEST(FlowControl, UnlimitedBufferHasNoStalls) {
  Simulator sim;
  TdmNetwork net(sim, small_params());
  net.submit(0, 1, 4096);
  sim.run_until(100_us);
  EXPECT_EQ(net.counters().value("backpressure_stalls"), 0u);
  EXPECT_EQ(net.receiver_occupancy(1), 0u);
}

TEST(FlowControl, SlowReceiverThrottlesSender) {
  // Receiver drains 16 B/slot while the sender could push 64 B/slot: the
  // transfer must take ~4x longer than the unthrottled case.
  const auto makespan = [](std::uint64_t buffer, std::uint64_t drain) {
    Simulator sim;
    TdmNetwork::Options options;
    options.receiver_buffer_bytes = buffer;
    options.receiver_drain_per_slot = drain;
    TdmNetwork net(sim, small_params(), std::move(options));
    net.submit(0, 1, 2048);
    sim.run_until(2000_us);
    EXPECT_EQ(net.queued_bytes(), 0u);
    return net.last_delivery();
  };
  const TimeNs fast = makespan(0, 0);        // unlimited
  const TimeNs slow = makespan(128, 16);     // 16 B/slot sink
  EXPECT_GT(slow.ns(), 3 * fast.ns());
}

TEST(FlowControl, StallsAreCounted) {
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = 64;
  options.receiver_drain_per_slot = 8;
  TdmNetwork net(sim, small_params(), std::move(options));
  net.submit(0, 1, 1024);
  sim.run_until(2000_us);
  EXPECT_GT(net.counters().value("backpressure_stalls"), 0u);
  EXPECT_EQ(net.queued_bytes(), 0u);  // still completes
}

TEST(FlowControl, OccupancyNeverExceedsBuffer) {
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = 128;
  options.receiver_drain_per_slot = 16;
  TdmNetwork net(sim, small_params(), std::move(options));
  for (NodeId u = 0; u < 4; ++u) {
    net.submit(u, 7, 512);  // four senders into one slow receiver
  }
  // Sample the occupancy every slot while traffic flows.
  bool done = false;
  std::function<void()> sample = [&] {
    EXPECT_LE(net.receiver_occupancy(7), 128u);
    if (!done) {
      sim.schedule_after(100_ns, [&sample] { sample(); });
    }
  };
  sim.schedule_after(50_ns, [&sample] { sample(); });
  sim.run_until(500_us);
  done = true;
  sim.run_until(501_us);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(FlowControl, FastDrainMatchesUnlimited) {
  // A drain rate >= line rate never throttles.
  const auto run = [](std::uint64_t buffer) {
    Simulator sim;
    TdmNetwork::Options options;
    options.receiver_buffer_bytes = buffer;
    options.receiver_drain_per_slot = 64;
    TdmNetwork net(sim, small_params(), std::move(options));
    net.submit(0, 1, 2048);
    sim.run_until(1000_us);
    return net.last_delivery();
  };
  EXPECT_EQ(run(0), run(4096));
}

TEST(FlowControl, ZeroBufferMeansUnlimitedEvenWithZeroDrain) {
  // receiver_buffer_bytes == 0 disables flow control entirely; the drain
  // rate is then irrelevant (even 0) and nothing may stall or deadlock.
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = 0;
  options.receiver_drain_per_slot = 0;
  TdmNetwork net(sim, small_params(), std::move(options));
  net.submit(0, 1, 4096);
  sim.run_until(1000_us);
  EXPECT_EQ(net.queued_bytes(), 0u);
  EXPECT_EQ(net.counters().value("backpressure_stalls"), 0u);
  EXPECT_EQ(net.receiver_occupancy(1), 0u);
}

TEST(FlowControl, BufferOfExactlyOneSlotPayloadDoesNotDeadlock) {
  // The smallest legal buffer: one slot payload. The sender can fill it in
  // a single slot and must then wait for the drain; with a slow drain this
  // is the tightest credit loop the system supports.
  SystemParams p = small_params();
  const std::uint64_t payload = p.slot_payload_bytes();
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = payload;  // boundary: exactly one slot
  options.receiver_drain_per_slot = 8;
  TdmNetwork net(sim, p, std::move(options));
  net.submit(0, 1, 1024);
  sim.run_until(5000_us);
  EXPECT_EQ(net.queued_bytes(), 0u) << "credit loop deadlocked";
  EXPECT_GT(net.counters().value("backpressure_stalls"), 0u);
}

TEST(FlowControl, MinimalDrainRateStillCompletes) {
  // drain == 1 byte/slot is pathological but legal; the transfer crawls
  // yet must finish without wedging or underflowing credits.
  SystemParams p = small_params();
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = p.slot_payload_bytes();
  options.receiver_drain_per_slot = 1;
  TdmNetwork net(sim, p, std::move(options));
  net.submit(0, 1, 128);
  sim.run_until(20'000_us);
  EXPECT_EQ(net.queued_bytes(), 0u);
  EXPECT_EQ(net.delivered_count(), 1u);
}

TEST(FlowControl, CreditsNeverUnderflowAtBoundaryBuffer) {
  // Several senders hammer one receiver whose buffer is exactly one slot
  // payload. If credits ever underflowed, occupancy would exceed the
  // buffer (the credit subtraction rx_buffer - occupancy would wrap).
  SystemParams p = small_params();
  const std::uint64_t payload = p.slot_payload_bytes();
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = payload;
  options.receiver_drain_per_slot = 4;
  TdmNetwork net(sim, p, std::move(options));
  for (NodeId u = 0; u < 4; ++u) {
    net.submit(u, 7, 256);
  }
  bool done = false;
  std::function<void()> sample = [&] {
    ASSERT_LE(net.receiver_occupancy(7), payload);
    if (!done) {
      sim.schedule_after(100_ns, [&sample] { sample(); });
    }
  };
  sim.schedule_after(50_ns, [&sample] { sample(); });
  sim.run_until(10'000_us);
  done = true;
  sim.run_until(10'001_us);
  EXPECT_EQ(net.queued_bytes(), 0u);
}

TEST(FlowControlDeathTest, BufferSmallerThanSlotPayloadRejected) {
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = 32;  // < 64-byte slot payload
  EXPECT_DEATH(TdmNetwork net(sim, small_params(), std::move(options)),
               "deadlock");
}

TEST(FlowControlDeathTest, FiniteBufferNeedsDrain) {
  Simulator sim;
  TdmNetwork::Options options;
  options.receiver_buffer_bytes = 256;
  options.receiver_drain_per_slot = 0;
  EXPECT_DEATH(TdmNetwork net(sim, small_params(), std::move(options)),
               "drain rate");
}

}  // namespace
}  // namespace pmx
