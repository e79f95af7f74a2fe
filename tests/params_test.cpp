#include "switching/params.hpp"

#include <gtest/gtest.h>

namespace pmx {
namespace {

using namespace pmx::literals;

TEST(SystemParams, PaperDefaults) {
  const SystemParams p;
  EXPECT_EQ(p.num_nodes, 128u);
  EXPECT_EQ(p.link.bandwidth_dgbps, 64);  // 6.4 Gb/s
  EXPECT_EQ(p.nic_cycle, 10_ns);
  EXPECT_EQ(p.scheduler_latency, 80_ns);
  EXPECT_EQ(p.slot_length, 100_ns);
  EXPECT_EQ(p.mux_degree, 4u);
  EXPECT_EQ(p.max_worm_bytes, 128u);
  p.validate();  // must not abort
}

TEST(SystemParams, DerivedQuantities) {
  const SystemParams p;
  EXPECT_EQ(p.slot_window(), 80_ns);
  EXPECT_EQ(p.slot_payload_bytes(), 64u);
  // Passive path: 30+20+0+20+30.
  EXPECT_EQ(p.passive_path_latency(), 100_ns);
  // Digital path adds the 10 ns switch hop.
  EXPECT_EQ(p.digital_path_latency(), 110_ns);
  // Control wire: 30+20+30.
  EXPECT_EQ(p.control_wire_latency(), 80_ns);
}

TEST(SystemParamsDeathTest, ValidateCatchesBadValues) {
  SystemParams p;
  p.num_nodes = 1;
  EXPECT_DEATH(p.validate(), "two nodes");

  p = SystemParams{};
  p.guard_band = p.slot_length;
  EXPECT_DEATH(p.validate(), "guard band");

  p = SystemParams{};
  p.slot_length = 2_ns;
  p.guard_band = 1_ns;
  EXPECT_DEATH(p.validate(), "no payload");

  p = SystemParams{};
  p.mux_degree = 0;
  EXPECT_DEATH(p.validate(), "multiplexing degree");

  p = SystemParams{};
  p.max_worm_bytes = 4;  // smaller than a flit
  EXPECT_DEATH(p.validate(), "worm limit");
}

}  // namespace
}  // namespace pmx
