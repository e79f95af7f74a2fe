// Conformance-differential suite across all four switching paradigms: each
// scenario of tests/golden/paradigms.hpp is run end to end and its full
// RunResult fingerprint (every metric at %.17g plus every counter) is
// compared byte for byte against its golden in tests/golden/paradigms/.
// The table covers the Figure 4 patterns under wormhole, circuit, dynamic
// and preload TDM, plus one point of each robustness layer (A6 faults, A7
// lossy control, A9 overload) for all four paradigms, A10 re-optimization
// for both TDM paradigms, a circuit point with held circuits whose control
// delays outlive the lease, a wormhole point at N=130 with overload, link
// faults and lossy control together, a Figure 5 hybrid point and an A5
// flow-control point -- the net under any refactor of the shared
// NIC/VOQ/control-plane plumbing, the circuit handshake or the wormhole
// arbiters.
//
// Each robustness scenario also names the statistics that prove its layer
// actually fired (retransmits, resyncs, sheds, re-opt applies, ...), so no
// golden freezes a path that never ran. Every scenario must drain.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "golden/fingerprint.hpp"
#include "golden/paradigms.hpp"

namespace pmx {
namespace {

std::string read_golden(const std::string& id) {
  const std::string path =
      std::string(PMX_PARADIGM_GOLDEN_DIR) + "/" + id + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class ParadigmConformance
    : public ::testing::TestWithParam<golden::ParadigmScenario> {};

TEST_P(ParadigmConformance, MatchesGoldenAndLayerFired) {
  const golden::ParadigmScenario& s = GetParam();
  const RunResult result = run_workload(s.config, s.workload());
  EXPECT_TRUE(result.completed) << s.id;
  for (const golden::Fired& fired : s.fired) {
    EXPECT_GT(fired.value(result), 0u)
        << s.id << ": " << fired.what << " never fired";
  }
  EXPECT_EQ(golden::fingerprint(s.id, result), read_golden(s.id)) << s.id;
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, ParadigmConformance,
    ::testing::ValuesIn(golden::paradigm_scenarios()),
    [](const ::testing::TestParamInfo<golden::ParadigmScenario>& param) {
      std::string name = param.param.id;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace pmx
