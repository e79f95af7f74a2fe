// Cross-check of the word-parallel audits on states the simulator really
// reaches. Dynamic and preload TDM run over a lossy control channel with one
// extra auditor check registered beside the paradigm's own. At every audit
// it compares the control plane's I and A bit rows with their definitions
// (inflight(), watchdog_armed()), and runs both the request audit and the
// slot-invariant audit through their scalar oracles and their fast kernels
// on the live matrices, requiring identical output. The check appends no
// violation, so the run is the one it would be without it.
//
// Wormhole gets the same treatment at N=130 (three words, a 2-bit tail)
// under A6 link faults, A7 lossy control (healing on and off) and A9
// drop-oldest shedding: at every audit the column view must equal the VOQs'
// emptiness, the busy masks must be exactly the ports of the in-flight
// worms, and rr_pick must agree with rr_pick_ref on every live row.

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
#include "switching/wormhole.hpp"
#include "traffic/arrival.hpp"
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

/// What the wormhole check saw over a run.
struct ArbiterCheck {
  std::uint64_t audits = 0;
  std::uint64_t worms = 0;              ///< in-flight worms, summed
  std::uint64_t view_mismatches = 0;    ///< column view vs VOQ emptiness
  std::uint64_t busy_mismatches = 0;    ///< busy masks vs in-flight worms
  std::uint64_t pick_mismatches = 0;    ///< rr_pick vs rr_pick_ref
  std::uint64_t first_bad_audit = 0;    ///< 1-based; 0 = none
  std::uint64_t violations = 0;         ///< the auditor's own count
  std::uint64_t link_faults = 0;
  std::uint64_t shed = 0;
};

ArbiterCheck run_wormhole_checked(const RunConfig& config,
                                  const Workload& workload) {
  Simulator sim;
  WormholeNetwork net(sim, config.params);
  ArbiterCheck seen;
  EXPECT_NE(net.auditor(), nullptr);
  if (net.auditor() == nullptr) {
    return seen;
  }
  const auto mismatch = [&seen](std::uint64_t& counter) {
    ++counter;
    if (seen.first_bad_audit == 0) {
      seen.first_bad_audit = seen.audits;
    }
  };
  const FaultModel* fm = net.fault_model();
  const auto link_up = [fm](std::size_t v) {
    return fm == nullptr || fm->link_up(v);
  };
  const auto any = [](std::size_t) { return true; };
  net.auditor()->add_check("arbiter", [&](std::vector<std::string>&) {
    ++seen.audits;
    const WormholeNetwork::ArbiterView view = net.arbiter_view();
    const std::size_t n = view.sources.size();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (view.waiting.get(v, u) == view.sources[u].voqs.empty(v)) {
          mismatch(seen.view_mismatches);
        }
      }
    }
    // Each in-flight worm holds its input and its own output, still has
    // its message queued, and shares the output with no other worm.
    BitVector held(n);
    bool consistent = true;
    view.input_busy.for_each_set([&](std::size_t u) {
      const NodeId dst = view.sources[u].active_dst;
      consistent = consistent && !held.get(dst) &&
                   !view.sources[u].voqs.empty(dst);
      held.set(dst);
      ++seen.worms;
    });
    if (!consistent || held != view.output_busy) {
      mismatch(seen.busy_mismatches);
    }
    // The input arbiter's pick from each live cursor, and the output
    // arbiter's from a start that moves with the audit count.
    for (NodeId u = 0; u < n; ++u) {
      const WormholeNetwork::SourceState& src = view.sources[u];
      if (rr_pick(src.voqs.pending(), view.output_busy, src.rr, link_up) !=
          rr_pick_ref(src.voqs.pending(), view.output_busy, src.rr,
                      link_up)) {
        mismatch(seen.pick_mismatches);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t start = (v + seen.audits) % n;
      if (rr_pick(view.waiting.row(v), view.input_busy, start, any) !=
          rr_pick_ref(view.waiting.row(v), view.input_busy, start, any)) {
        mismatch(seen.pick_mismatches);
      }
    }
  });
  TrafficDriver driver(sim, net, workload, config.send_mode);
  driver.start();
  sim.run_until(config.horizon);
  EXPECT_TRUE(driver.finished());
  seen.violations = net.auditor()->stats().violations;
  seen.link_faults = fm == nullptr ? 0 : fm->faults_injected();
  seen.shed = net.shed_messages();
  return seen;
}

/// The wormhole golden scenario `id` at N=130, audited every slot. The runs
/// drain within 100 us; a 1 ms horizon makes one that wedges fail fast
/// instead of auditing every slot up to the scenario's 1 s.
RunConfig wormhole_at_130(const std::string& id) {
  RunConfig config = scenario(id).config;
  config.params.num_nodes = 130;
  config.params.audit.period_slots = 1;
  config.horizon = TimeNs{1'000'000};
  return config;
}

Workload mesh130() { return patterns::random_mesh(130, 512, 3, 7); }

void expect_agreement(const ArbiterCheck& seen) {
  EXPECT_GT(seen.audits, 0u);
  EXPECT_GT(seen.worms, 0u);
  EXPECT_EQ(seen.view_mismatches, 0u) << "first at audit "
                                      << seen.first_bad_audit;
  EXPECT_EQ(seen.busy_mismatches, 0u) << "first at audit "
                                      << seen.first_bad_audit;
  EXPECT_EQ(seen.pick_mismatches, 0u) << "first at audit "
                                      << seen.first_bad_audit;
}

TEST(WormholeLiveCrossCheck, LinkFaults) {
  const ArbiterCheck seen =
      run_wormhole_checked(wormhole_at_130("a6_faults_wormhole"), mesh130());
  expect_agreement(seen);
  EXPECT_GT(seen.link_faults, 0u);
}

TEST(WormholeLiveCrossCheck, LossyControlHealingOn) {
  RunConfig config = wormhole_at_130("a7_ctrl_rescue_wormhole");
  config.params.ctrl.heal = true;
  expect_agreement(run_wormhole_checked(config, mesh130()));
}

TEST(WormholeLiveCrossCheck, LossyControlHealingOff) {
  const ArbiterCheck seen = run_wormhole_checked(
      wormhole_at_130("a7_ctrl_rescue_wormhole"), mesh130());
  expect_agreement(seen);
  // Not vacuous: lost arbitration requests wedged inputs, and the wedge
  // audit (the same pick as dispatch) reported them.
  EXPECT_GT(seen.violations, 0u);
}

TEST(WormholeLiveCrossCheck, DropOldestShedding) {
  ArrivalParams arrival;
  arrival.offered_load = 1.5;
  arrival.mean_msg_bytes = 512;
  arrival.duration = TimeNs{10'000};
  arrival.seed = 0x0E710ADEu;
  const ArbiterCheck seen =
      run_wormhole_checked(wormhole_at_130("a9_overload_wormhole"),
                           open_loop(130, arrival, golden::line_rate()));
  expect_agreement(seen);
  EXPECT_GT(seen.shed, 0u);
}

}  // namespace
}  // namespace pmx
