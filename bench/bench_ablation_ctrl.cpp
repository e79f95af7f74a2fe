// Ablation A7: control-plane chaos campaign. The data plane is perfect; the
// *control* plane (request/grant/release wires between NICs and scheduler)
// loses messages at increasing rates. Two campaigns over the same random
// nearest-neighbour workload, all four paradigms:
//
//   self-healing -- grant watchdog + scheduler lease on, slot auditor in
//                   recovery mode. Goodput degrades gracefully with the loss
//                   rate while every run still delivers everything; the
//                   rerequest/lease columns show who paid for it.
//   auditor rescue -- healing OFF at a fixed loss rate: lost messages wedge
//                   NICs and leak requests until the periodic slot audit
//                   catches the divergence and forces a full resync. The
//                   resync count and recovery latency measure the auditor as
//                   the only safety net.
//
// Everything is seeded: running this binary twice prints identical tables,
// at any --jobs value.
//
// Usage: bench_ablation_ctrl [--nodes N] [--bytes B] [--rounds R] [--seed S]
//                            [--loss P] [--period SLOTS] [--jobs J]

#include <cstdint>
#include <iostream>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"
#include "traffic/patterns.hpp"

int main(int argc, char** argv) {
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  const std::size_t nodes = cfg.get_uint("nodes", 64);
  const std::uint64_t bytes = cfg.get_uint("bytes", 512);
  const std::size_t rounds = cfg.get_uint("rounds", 2);
  const std::uint32_t seed =
      static_cast<std::uint32_t>(cfg.get_uint("seed", 0xC7A15EEDu));
  const double rescue_loss = cfg.get_double("loss", 0.1);
  const std::size_t period = cfg.get_uint("period", 16);
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_ablation_ctrl");

  const pmx::Workload workload =
      pmx::patterns::random_mesh(nodes, bytes, rounds, 7);
  const std::size_t messages = workload.num_messages();

  std::cout << "Ablation A7: control-plane chaos campaign (" << nodes
            << " nodes, " << bytes << "-byte messages, " << messages
            << " messages, seed " << seed << ", audit every " << period
            << " slots)\n";

  // Campaign 1: loss sweep with self-healing on. Campaign 2: fixed loss with
  // healing off (auditor resync is the only recovery). Flattened to
  // (scenario, kind) for the sweep; scenarios stay in print order.
  const std::vector<double> losses{0.0, 0.02, 0.1, 0.25};
  std::vector<pmx::ControlFaultParams> scenarios;
  for (const double loss : losses) {
    pmx::ControlFaultParams ctrl;
    ctrl.seed = seed;
    ctrl.loss = loss;
    ctrl.force_enable = true;  // loss 0.0 measures the machinery overhead
    scenarios.push_back(ctrl);
  }
  {
    pmx::ControlFaultParams rescue;
    rescue.seed = seed;
    rescue.loss = rescue_loss;
    rescue.heal = false;  // no watchdog, no lease: only the auditor saves us
    scenarios.push_back(rescue);
  }

  constexpr std::size_t kNumKinds = pmx::kSwitchKinds.size();
  const std::vector<pmx::RunResult> results = pmx::run_sweep(
      scenarios.size() * kNumKinds,
      [&](std::size_t i) {
        pmx::RunConfig config =
            pmx::bench::ledger_config(pmx::kSwitchKinds[i % kNumKinds], nodes);
        config.params.ctrl = scenarios[i / kNumKinds];
        config.params.audit.period_slots = period;
        return pmx::run_workload(config, workload);
      },
      sweep);
  const auto scenario_result = [&](std::size_t s,
                                   std::size_t k) -> const pmx::RunResult& {
    return results[s * kNumKinds + k];
  };

  // --- Campaign 1: self-healing under increasing control loss --------------
  for (std::size_t s = 0; s < losses.size(); ++s) {
    pmx::Table table({"paradigm", "delivered", "goodput B/ns", "ctrl msgs",
                      "ctrl lost", "rerequests", "lease exp", "resyncs"});
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const pmx::RunResult& r = scenario_result(s, k);
      table.add_row({pmx::to_string(pmx::kSwitchKinds[k]),
                     pmx::bench::delivery_cell(r, messages),
                     pmx::Table::fmt(r.metrics.goodput, 4),
                     pmx::Table::fmt(r.metrics.ctrl_messages),
                     pmx::Table::fmt(r.metrics.ctrl_dropped),
                     pmx::Table::fmt(r.metrics.ctrl_rerequests),
                     pmx::Table::fmt(r.metrics.lease_expiries),
                     pmx::Table::fmt(r.metrics.resyncs)});
    }
    std::cout << "\n== self-healing, control loss " << losses[s] << " ==\n";
    table.print(std::cout);
  }

  // --- Campaign 2: healing off, auditor resync as the only recovery --------
  {
    pmx::Table table({"paradigm", "delivered", "audits", "violations",
                      "resyncs", "recover mean ns", "recover max ns"});
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const pmx::RunResult& r = scenario_result(losses.size(), k);
      table.add_row({pmx::to_string(pmx::kSwitchKinds[k]),
                     pmx::bench::delivery_cell(r, messages),
                     pmx::Table::fmt(r.metrics.audits),
                     pmx::Table::fmt(r.metrics.audit_violations),
                     pmx::Table::fmt(r.metrics.resyncs),
                     pmx::Table::fmt(r.metrics.resync_latency_mean_ns, 0),
                     pmx::Table::fmt(r.metrics.resync_latency_max_ns, 0)});
    }
    std::cout << "\n== auditor rescue (healing off, control loss "
              << rescue_loss << ") ==\n";
    table.print(std::cout);
  }
  return 0;
}
