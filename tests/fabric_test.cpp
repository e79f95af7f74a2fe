#include <gtest/gtest.h>

#include "fabric/link.hpp"

namespace pmx {
namespace {

using namespace pmx::literals;

TEST(LinkModel, PaperFlitTime) {
  // 8-byte flit at 6.4 Gb/s is exactly 10 ns (Section 5).
  LinkModel link;
  EXPECT_EQ(link.serialization(8), 10_ns);
}

TEST(LinkModel, PaperSlotPayload) {
  // "during a 1 us slot, 125 bytes ... per serial Gb/s link": at 6.4 Gb/s a
  // 100 ns window carries 80 bytes.
  LinkModel link;
  EXPECT_EQ(link.serialization(80), 100_ns);
  EXPECT_EQ(link.bytes_in(100_ns), 80u);
  EXPECT_EQ(link.bytes_in(80_ns), 64u);
}

TEST(LinkModel, SerializationRoundsUp) {
  LinkModel link;
  // 1 byte = 1.25 ns -> rounds up to 2 ns.
  EXPECT_EQ(link.serialization(1), 2_ns);
  EXPECT_EQ(link.serialization(0), 0_ns);
}

TEST(LinkModel, BytesInNonPositiveWindow) {
  LinkModel link;
  EXPECT_EQ(link.bytes_in(0_ns), 0u);
  EXPECT_EQ(link.bytes_in(TimeNs{-5}), 0u);
}

TEST(LinkModel, SegmentLatency) {
  // 30 ns p2s + 20 ns wire + 30 ns s2p = 80 ns: the "cable delay" the paper
  // charges for sending a circuit request to the scheduler.
  LinkModel link;
  EXPECT_EQ(link.segment_latency(), 80_ns);
}

TEST(LinkModel, ThroughPassiveSwitch) {
  // NIC -> switch -> NIC point-to-point head latency 30+20+0+20+30 = 100 ns.
  LinkModel link;
  EXPECT_EQ(link.through_passive_switch(0_ns), 100_ns);
  EXPECT_EQ(link.through_passive_switch(10_ns), 110_ns);
}

TEST(LinkModel, CustomBandwidth) {
  LinkModel::Params p;
  p.bandwidth_dgbps = 10;  // 1 Gb/s
  LinkModel link(p);
  // 125 bytes in 1 us at 1 Gb/s (the paper's example).
  EXPECT_EQ(link.bytes_in(1_us), 125u);
}

}  // namespace
}  // namespace pmx
