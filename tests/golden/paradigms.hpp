#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/bitmatrix.hpp"
#include "core/experiment.hpp"
#include "traffic/arrival.hpp"
#include "traffic/patterns.hpp"

namespace pmx::golden {

/// Evidence that a scenario's target layer did something: a named run
/// statistic that must be positive, or the scenario's golden would freeze a
/// path that never ran.
struct Fired {
  std::string what;
  std::uint64_t (*value)(const RunResult&);
};

/// One paradigm-conformance scenario: a full run configuration and
/// workload whose RunResult fingerprint is frozen as
/// tests/golden/paradigms/<id>.txt.
struct ParadigmScenario {
  std::string id;  ///< golden file stem
  RunConfig config;
  std::function<Workload()> workload;
  std::vector<Fired> fired;
};

inline void PrintTo(const ParadigmScenario& s, std::ostream* os) {
  *os << s.id;
}

/// Per-port line rate in bytes/ns, the unit of open-loop offered load.
inline double line_rate() {
  return static_cast<double>(SystemParams{}.link.bandwidth_dgbps) / 80.0;
}

/// The scenario table:
///   * the four Figure 4 patterns under all four paradigms (24 nodes,
///     192-byte messages, K=4, multi-slot connections, as bench_fig4 builds
///     them);
///   * for all four paradigms, one point of each robustness layer: A6 bit
///     errors plus link MTBF/repair, A7 lossy control with healing off and
///     the recovery-mode auditor, A9 open-loop overload into bounded
///     drop-oldest VOQs; for the two TDM paradigms also A10 online
///     re-optimization over a lossy channel with reliable releases;
///   * one circuit point with held circuits and lossy control with healing
///     on, whose delays outlive the lease (reuse, lease expiry, stale
///     release and stale hold in one run);
///   * one wormhole point at N=130 (three 64-bit words, a 2-bit tail) with
///     every robustness layer its arbiter reacts to at once: open-loop
///     overload into drop-oldest VOQs, hard link faults, and lossy control
///     with healing on;
///   * one Figure 5 hybrid point (K=3, one pinned slot, as bench_fig5 builds
///     it) and one A5 finite-receive-buffer point.
inline std::vector<ParadigmScenario> paradigm_scenarios() {
  std::vector<ParadigmScenario> out;

  struct Pattern {
    std::string name;
    Workload (*make)();
  };
  const std::vector<Pattern> fig4{
      {"scatter", [] { return patterns::scatter(24, 192); }},
      {"random-mesh", [] { return patterns::random_mesh(24, 192, 2, 7); }},
      {"ordered-mesh", [] { return patterns::ordered_mesh(24, 192, 2); }},
      {"two-phase", [] { return patterns::two_phase(24, 192, 7); }},
  };
  for (const Pattern& p : fig4) {
    for (const SwitchKind kind :
         {SwitchKind::kWormhole, SwitchKind::kCircuit, SwitchKind::kDynamicTdm,
          SwitchKind::kPreloadTdm}) {
      RunConfig c;
      c.params.num_nodes = 24;
      c.params.mux_degree = 4;
      c.kind = kind;
      c.multi_slot_connections = true;
      out.push_back({"fig4_" + p.name + "_" + to_string(kind), c, p.make, {}});
    }
  }

  // Every robustness point arms the zero-rate fault layer and the
  // recovery-mode auditor (as the ablation benches do), so the final audit
  // checks the conservation ledger too.
  const auto chaos_base = [](SwitchKind kind) {
    RunConfig c;
    c.params.num_nodes = 16;
    c.params.fault.force_enable = true;
    c.params.audit.enabled = true;
    c.params.audit.strict = false;
    c.kind = kind;
    c.horizon = TimeNs{1'000'000'000};
    return c;
  };
  const auto mesh16 = [] { return patterns::random_mesh(16, 256, 2, 7); };
  for (const SwitchKind kind : {SwitchKind::kWormhole, SwitchKind::kCircuit,
                                SwitchKind::kDynamicTdm,
                                SwitchKind::kPreloadTdm}) {
    const std::string tag = to_string(kind);

    RunConfig a6 = chaos_base(kind);
    a6.params.fault.seed = 0x5EEDF417u;
    a6.params.fault.ber = 5e-4;
    a6.params.fault.link_mtbf = TimeNs{100'000};
    a6.params.fault.link_repair = TimeNs{20'000};
    a6.params.fault.max_link_faults = 16;
    out.push_back(
        {"a6_faults_" + tag, a6, mesh16,
         {{"retransmits",
           [](const RunResult& r) { return r.metrics.retransmits; }},
          {"link_faults", [](const RunResult& r) {
             return static_cast<std::uint64_t>(r.metrics.link_faults);
           }}}});

    RunConfig a7 = chaos_base(kind);
    a7.params.ctrl.seed = 0xC7A15EEDu;
    a7.params.ctrl.loss = 0.1;
    a7.params.ctrl.heal = false;
    a7.params.audit.period_slots = 16;
    out.push_back(
        {"a7_ctrl_rescue_" + tag, a7, mesh16,
         {{"ctrl_dropped",
           [](const RunResult& r) { return r.metrics.ctrl_dropped; }},
          {"resyncs", [](const RunResult& r) { return r.metrics.resyncs; }}}});

    RunConfig a9 = chaos_base(kind);
    a9.params.admission.capacity_bytes = 4096;
    a9.params.admission.policy = ShedPolicy::kDropOldest;
    a9.starvation_slots = 8;
    out.push_back(
        {"a9_overload_" + tag, a9,
         [] {
           ArrivalParams arrival;
           arrival.offered_load = 1.5;
           arrival.mean_msg_bytes = 512;
           arrival.duration = TimeNs{20'000};
           arrival.seed = 0x0E710ADEu;
           return open_loop(16, arrival, line_rate());
         },
         {{"shed_messages", [](const RunResult& r) {
             return static_cast<std::uint64_t>(r.metrics.shed_messages);
           }}}});

    if (kind == SwitchKind::kWormhole || kind == SwitchKind::kCircuit) {
      continue;  // no slot table to re-optimize
    }
    RunConfig a10 = chaos_base(kind);
    a10.params.reopt.period_slots = 16;
    a10.params.ctrl.seed = 0xA10BEEFu;
    a10.params.ctrl.loss = 0.1;
    // Releases stay reliable, as in bench/perf's reopt-chaos: a lost
    // release under re-optimization can wedge a pair (a known open defect).
    a10.params.ctrl.release_loss = 0.0;
    a10.starvation_slots = 8;
    Fired reopt_fired =
        kind == SwitchKind::kDynamicTdm
            ? Fired{"reopt_applies",
                    [](const RunResult& r) { return r.metrics.reopt_applies; }}
            : Fired{"reopt_ranked_loads", [](const RunResult& r) {
                      return r.counter("reopt_ranked_loads");
                    }};
    out.push_back({"a10_reopt_" + tag, a10,
                   [] {
                     // Skewed open-loop arrivals whose hot set rotates:
                     // one long phase with churning demand.
                     ArrivalParams arrival;
                     arrival.offered_load = 0.35;
                     arrival.dest_skew = 0.85;
                     arrival.hot_rotate_period = TimeNs{10'000};
                     arrival.duration = TimeNs{30'000};
                     arrival.seed = 0xA10BEEFu;
                     return open_loop(16, arrival, line_rate());
                   },
                   {{"ctrl_dropped",
                     [](const RunResult& r) { return r.metrics.ctrl_dropped; }},
                    reopt_fired}});
  }

  {
    // Circuit with held circuits over a lossy, slow control wire. A delayed
    // message (1500 ns) outlives the lease (1000 ns), so one run reaches
    // every healing branch of the handshake: circuit reuse, lease expiry,
    // a stale teardown notice, and a stale hold on the reuse path.
    RunConfig c = chaos_base(SwitchKind::kCircuit);
    c.hold_circuits = true;
    c.params.ctrl.seed = 1;
    c.params.ctrl.loss = 0.05;
    c.params.ctrl.delay_rate = 0.2;
    c.params.ctrl.delay = TimeNs{1500};
    c.params.ctrl.lease = TimeNs{1000};
    out.push_back(
        {"a7_ctrl_heal_hold_circuit", c, mesh16,
         {{"circuit_reuses",
           [](const RunResult& r) { return r.counter("circuit_reuses"); }},
          {"lease_expiries",
           [](const RunResult& r) { return r.metrics.lease_expiries; }},
          {"stale_releases",
           [](const RunResult& r) { return r.counter("stale_releases"); }},
          {"stale_holds",
           [](const RunResult& r) { return r.counter("stale_holds"); }}}});
  }

  {
    // Wormhole at N=130: the round-robin arbiters wrap across three words.
    // Drop-oldest push-out empties VOQs from the shed path, dead links are
    // skipped by the input arbiter, and lost arbitration requests are
    // retried with backoff. Bit errors stay at zero.
    constexpr std::size_t kNodes = 130;
    RunConfig c = chaos_base(SwitchKind::kWormhole);
    c.params.num_nodes = kNodes;
    c.params.admission.capacity_bytes = 4096;
    c.params.admission.policy = ShedPolicy::kDropOldest;
    c.params.fault.link_mtbf = TimeNs{400'000};
    c.params.fault.link_repair = TimeNs{4'000};
    c.params.fault.max_link_faults = 8;
    c.params.ctrl.seed = 0xC7A15EEDu;
    c.params.ctrl.loss = 0.1;
    out.push_back(
        {"n130_overload_faults_ctrl_wormhole", c,
         [] {
           ArrivalParams arrival;
           arrival.offered_load = 1.5;
           arrival.mean_msg_bytes = 256;
           arrival.duration = TimeNs{10'000};
           arrival.seed = 0x0E710ADEu;
           return open_loop(kNodes, arrival, line_rate());
         },
         {{"shed_messages",
           [](const RunResult& r) {
             return static_cast<std::uint64_t>(r.metrics.shed_messages);
           }},
          {"link_faults",
           [](const RunResult& r) {
             return static_cast<std::uint64_t>(r.metrics.link_faults);
           }},
          {"ctrl_rerequests", [](const RunResult& r) {
             return r.counter("ctrl_rerequests");
           }}}});
  }

  {
    // Figure 5: K=3, the first favored-destination permutation pinned into
    // slot 0, two slots left to the reactive scheduler. 80% determinism
    // with bench_fig5's seed for that point (seed 1: 1 * 1000 + 80).
    constexpr std::size_t kNodes = 24;
    constexpr std::size_t kFavored = 2;
    RunConfig c;
    c.params.num_nodes = kNodes;
    c.params.mux_degree = 3;
    c.kind = SwitchKind::kDynamicTdm;
    c.policy.policy = "timeout";
    c.policy.timeout_ns = 200;
    BitMatrix pinned(kNodes);
    for (NodeId u = 0; u < kNodes; ++u) {
      pinned.set(u, patterns::favored_destination(kNodes, u, 0, kFavored));
    }
    c.pinned_configs.push_back(pinned);
    out.push_back({"fig5_hybrid_1-pinned", c,
                   [] {
                     return patterns::determinism_mix(kNodes, 64, 0.8, 16,
                                                      kFavored, 1080);
                   },
                   {{"preloads", [](const RunResult& r) {
                       return r.counter("preloads");
                     }}}});
  }

  {
    // A5: end-to-end flow control with a receive buffer of two slot
    // payloads, drained at a quarter of a slot payload per slot.
    RunConfig c;
    c.params.num_nodes = 24;
    c.kind = SwitchKind::kDynamicTdm;
    c.multi_slot_connections = true;
    c.receiver_buffer_bytes = 128;
    c.receiver_drain_per_slot = 16;
    out.push_back({"a5_rx_buffer_dynamic-tdm", c,
                   [] { return patterns::random_mesh(24, 512, 2, 7); },
                   {{"backpressure_stalls", [](const RunResult& r) {
                       return r.counter("backpressure_stalls");
                     }}}});
  }
  return out;
}

}  // namespace pmx::golden
