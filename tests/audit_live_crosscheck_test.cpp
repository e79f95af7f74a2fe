// Cross-check of the word-parallel audits on states the simulator really
// reaches. Dynamic and preload TDM run over a lossy control channel with one
// extra auditor check registered beside the paradigm's own. At every audit
// it compares the control plane's I and A bit rows with their definitions
// (inflight(), watchdog_armed()), and runs both the request audit and the
// slot-invariant audit through their scalar oracles and their fast kernels
// on the live matrices, requiring identical output. The check appends no
// violation, so the run is the one it would be without it.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiled/plan.hpp"
#include "core/driver.hpp"
#include "core/experiment.hpp"
#include "golden/paradigms.hpp"
#include "predictor/policy_engine.hpp"
#include "sim/simulator.hpp"
#include "switching/preload_tdm.hpp"
#include "switching/tdm.hpp"
#include "traffic/patterns.hpp"

namespace pmx {
namespace {

/// What the extra check saw over a run.
struct CrossCheck {
  std::uint64_t audits = 0;
  std::uint64_t bit_mismatches = 0;     ///< I/A bits vs their definitions
  std::uint64_t output_mismatches = 0;  ///< ref vs fast, either audit
  std::uint64_t request_findings = 0;   ///< request-audit lines seen
  std::uint64_t first_bad_audit = 0;    ///< 1-based; 0 = none
};

std::unique_ptr<TdmNetworkBase> make_tdm(const RunConfig& config,
                                         const Workload& workload,
                                         Simulator& sim) {
  if (config.kind == SwitchKind::kPreloadTdm) {
    return std::make_unique<PreloadTdmNetwork>(
        sim, config.params,
        compile_workload(workload, config.optimal_decomposition));
  }
  TdmNetwork::Options o;
  o.predictor = make_policy(config.policy);
  o.multi_slot_connections = config.multi_slot_connections;
  o.starvation_slots = config.starvation_slots;
  return std::make_unique<TdmNetwork>(sim, config.params, std::move(o));
}

/// Runs `config` on `workload` with the cross-check registered; returns
/// what it saw and the auditor's own violation count.
CrossCheck run_checked(const RunConfig& config, const Workload& workload,
                       std::uint64_t* violations) {
  Simulator sim;
  const auto net = make_tdm(config, workload, sim);
  ControlPlane* plane = net->control_plane();
  EXPECT_NE(plane, nullptr);
  EXPECT_NE(net->auditor(), nullptr);
  CrossCheck seen;
  if (plane == nullptr || net->auditor() == nullptr) {
    return seen;
  }
  const TdmScheduler& sched = net->scheduler();
  const auto mismatch = [&seen](std::uint64_t& counter) {
    ++counter;
    if (seen.first_bad_audit == 0) {
      seen.first_bad_audit = seen.audits;
    }
  };
  net->auditor()->add_check("cross-check", [&](std::vector<std::string>&) {
    ++seen.audits;
    const RequestAuditInput requests =
        plane->audit_input(sched.requests(), sched.established());
    const std::size_t n = sched.num_ports();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (requests.inflight.get(u, v) != plane->inflight(u, v) ||
            requests.armed.get(u, v) != plane->watchdog_armed(u, v)) {
          mismatch(seen.bit_mismatches);
        }
      }
    }
    std::vector<std::string> ref;
    std::vector<std::string> fast;
    audit_requests_ref(requests, ref);
    audit_requests_fast(requests, fast);
    seen.request_findings += ref.size();
    if (ref != fast) {
      mismatch(seen.output_mismatches);
    }
    ref.clear();
    fast.clear();
    audit_invariants_ref(sched.audit_input(), ref);
    audit_invariants_fast(sched.audit_input(), fast);
    if (ref != fast) {
      mismatch(seen.output_mismatches);
    }
  });
  TrafficDriver driver(sim, *net, workload, config.send_mode);
  driver.start();
  sim.run_until(config.horizon);
  EXPECT_TRUE(driver.finished());
  *violations = net->auditor()->stats().violations;
  return seen;
}

/// The golden table's scenario `id`.
golden::ParadigmScenario scenario(const std::string& id) {
  for (golden::ParadigmScenario& s : golden::paradigm_scenarios()) {
    if (s.id == id) {
      return s;
    }
  }
  ADD_FAILURE() << "no scenario " << id;
  return {};
}

void expect_agreement(const CrossCheck& seen) {
  EXPECT_GT(seen.audits, 0u);
  EXPECT_EQ(seen.bit_mismatches, 0u) << "first at audit "
                                     << seen.first_bad_audit;
  EXPECT_EQ(seen.output_mismatches, 0u) << "first at audit "
                                        << seen.first_bad_audit;
}

constexpr const char* kTdm[] = {"dynamic-tdm", "preload-tdm"};

/// A longer mesh than the A7 golden's, so the lossy channel reaches more
/// states between audits.
Workload long_mesh() { return patterns::random_mesh(16, 512, 12, 7); }

TEST(AuditLiveCrossCheck, HealingOn) {
  for (const char* tag : kTdm) {
    SCOPED_TRACE(tag);
    // The A7 rescue point with the watchdog and lease left on.
    golden::ParadigmScenario s = scenario(std::string("a7_ctrl_rescue_") + tag);
    s.config.params.ctrl.heal = true;
    s.config.params.audit.period_slots = 1;
    std::uint64_t violations = 0;
    expect_agreement(run_checked(s.config, long_mesh(), &violations));
  }
}

TEST(AuditLiveCrossCheck, HealingOffWithRecoveryAuditor) {
  for (const char* tag : kTdm) {
    SCOPED_TRACE(tag);
    golden::ParadigmScenario s = scenario(std::string("a7_ctrl_rescue_") + tag);
    s.config.params.audit.period_slots = 1;
    std::uint64_t violations = 0;
    const CrossCheck seen = run_checked(s.config, long_mesh(), &violations);
    expect_agreement(seen);
    // Not vacuous: with healing off the lossy channel really wedged or
    // leaked pairs, and both request-audit kernels reported them.
    EXPECT_GT(violations, 0u);
    EXPECT_GT(seen.request_findings, 0u);
  }
}

TEST(AuditLiveCrossCheck, ReoptChaos) {
  for (const char* tag : kTdm) {
    SCOPED_TRACE(tag);
    golden::ParadigmScenario s = scenario(std::string("a10_reopt_") + tag);
    s.config.params.audit.period_slots = 1;
    std::uint64_t violations = 0;
    expect_agreement(run_checked(s.config, s.workload(), &violations));
  }
}

}  // namespace
}  // namespace pmx
