#include "compiled/plan.hpp"

#include <gtest/gtest.h>

#include "traffic/mesh.hpp"
#include "traffic/patterns.hpp"

namespace pmx {
namespace {

TEST(CompiledPlan, SinglePhaseMesh) {
  const Workload w = patterns::ordered_mesh(16, 128, 2);
  const CompiledPlan plan = compile_workload(w);
  ASSERT_EQ(plan.num_phases(), 1u);
  const PhasePlan& phase = plan.phases[0];
  EXPECT_EQ(phase.configs.size(), 4u);  // 4-regular neighbour graph
  // Every connection carries 2 rounds * 128 bytes.
  const Mesh2D mesh = Mesh2D::square_ish(16);
  for (NodeId u = 0; u < 16; ++u) {
    for (const auto dir : Mesh2D::kDirs) {
      const NodeId v = mesh.neighbor(u, dir);
      const std::size_t cfg = phase.config_of(u, v);
      ASSERT_NE(cfg, PhasePlan::kNoConfig);
      EXPECT_TRUE(phase.configs[cfg].get(u, v));
    }
  }
  // Byte budgets sum to the workload's total.
  std::uint64_t total = 0;
  for (const auto b : phase.config_bytes) {
    total += b;
  }
  EXPECT_EQ(total, w.total_bytes());
}

TEST(CompiledPlan, TwoPhaseSplitsAtBarrier) {
  const Workload w = patterns::two_phase(16, 64, 3);
  const CompiledPlan plan = compile_workload(w);
  ASSERT_EQ(plan.num_phases(), 2u);
  EXPECT_EQ(plan.phases[0].configs.size(), 15u);  // all-to-all
  EXPECT_LE(plan.phases[1].configs.size(), 4u);   // nearest neighbour
  EXPECT_EQ(plan.max_degree(), 15u);
}

TEST(CompiledPlan, RepeatedPairsAggregateBytes) {
  Workload w;
  w.programs.resize(4);
  w.programs[0].push_back(Command::send(1, 100));
  w.programs[0].push_back(Command::send(1, 150));
  const CompiledPlan plan = compile_workload(w);
  const PhasePlan& phase = plan.phases[0];
  EXPECT_EQ(phase.configs.size(), 1u);
  EXPECT_EQ(phase.config_bytes[0], 250u);
}

TEST(CompiledPlan, UnknownPairReturnsNoConfig) {
  Workload w;
  w.programs.resize(4);
  w.programs[0].push_back(Command::send(1, 100));
  const CompiledPlan plan = compile_workload(w);
  EXPECT_EQ(plan.phases[0].config_of(2, 3), PhasePlan::kNoConfig);
}

TEST(CompiledPlan, EmptyPhaseHasNoConfigs) {
  Workload w;
  w.programs.resize(2);
  w.programs[0].push_back(Command::barrier());
  w.programs[0].push_back(Command::send(1, 10));
  w.programs[1].push_back(Command::barrier());
  const CompiledPlan plan = compile_workload(w);
  ASSERT_EQ(plan.num_phases(), 2u);
  EXPECT_TRUE(plan.phases[0].configs.empty());
  EXPECT_EQ(plan.phases[1].configs.size(), 1u);
}

TEST(CompiledPlan, GreedyVariantCoversSameConnections) {
  const Workload w = patterns::uniform_random(16, 64, 6, 11);
  const CompiledPlan optimal = compile_workload(w, /*optimal=*/true);
  const CompiledPlan greedy = compile_workload(w, /*optimal=*/false);
  ASSERT_EQ(optimal.num_phases(), greedy.num_phases());
  // Same pairs covered; greedy may use more configurations.
  EXPECT_GE(greedy.phases[0].configs.size(), optimal.phases[0].configs.size());
  for (NodeId u = 0; u < 16; ++u) {
    for (const auto& cmd : w.programs[u]) {
      EXPECT_NE(optimal.phases[0].config_of(u, cmd.dst), PhasePlan::kNoConfig);
      EXPECT_NE(greedy.phases[0].config_of(u, cmd.dst), PhasePlan::kNoConfig);
    }
  }
}

TEST(CompiledPlan, ComputeAndFlushCommandsIgnored) {
  using namespace pmx::literals;
  Workload w;
  w.programs.resize(2);
  w.programs[0].push_back(Command::compute(100_ns));
  w.programs[0].push_back(Command::flush());
  w.programs[0].push_back(Command::send(1, 64));
  const CompiledPlan plan = compile_workload(w);
  EXPECT_EQ(plan.phases[0].configs.size(), 1u);
}

}  // namespace
}  // namespace pmx
