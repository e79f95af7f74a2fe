#include "points.hpp"

#include <array>

#include "traffic/arrival.hpp"
#include "traffic/patterns.hpp"

namespace perf {

namespace {

using pmx::SwitchKind;
using pmx::TimeNs;
using pmx::Workload;

constexpr std::size_t kNodes = 128;  // Figure 4's 128-processor system

/// Benchmark seed -> simulation seed. The default benchmark seed keeps the
/// canonical seed, so its points are the committed, fingerprinted ones; any
/// other seed is mixed with it (splitmix64 finalizer), so distinct
/// benchmark seeds give unrelated inputs.
std::uint64_t derive(std::uint64_t seed, std::uint64_t canonical) {
  if (seed == kDefaultSeed) {
    return canonical;
  }
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + canonical;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Line rate per port in bytes/ns, the unit open_loop's offered load uses.
double line_rate() {
  return static_cast<double>(pmx::SystemParams{}.link.bandwidth_dgbps) / 80.0;
}

/// bench_fig4's cube (4 patterns x 9 sizes) restricted to `kinds`: K=4,
/// multi-slot connections, the default timeout policy, pattern seed 7.
std::vector<Point> fig4(std::uint64_t seed, std::array<SwitchKind, 2> kinds) {
  const std::uint64_t pattern_seed = derive(seed, 7);
  struct Pattern {
    const char* name;
    std::function<Workload(std::uint64_t)> make;
  };
  const std::array<Pattern, 4> patterns{{
      {"scatter",
       [](std::uint64_t b) { return pmx::patterns::scatter(kNodes, b); }},
      {"random-mesh",
       [pattern_seed](std::uint64_t b) {
         return pmx::patterns::random_mesh(kNodes, b, 2, pattern_seed);
       }},
      {"ordered-mesh",
       [](std::uint64_t b) { return pmx::patterns::ordered_mesh(kNodes, b, 2); }},
      {"two-phase",
       [pattern_seed](std::uint64_t b) {
         return pmx::patterns::two_phase(kNodes, b, pattern_seed);
       }},
  }};
  std::vector<Point> points;
  for (const Pattern& pattern : patterns) {
    for (const std::uint64_t bytes :
         {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u}) {
      for (const SwitchKind kind : kinds) {
        Point p;
        p.label = std::string(pattern.name) + "/" + std::to_string(bytes) +
                  "/" + pmx::to_string(kind);
        p.config.params.num_nodes = kNodes;
        p.config.params.mux_degree = 4;
        p.config.kind = kind;
        p.config.multi_slot_connections = true;
        p.make_workload = [make = pattern.make, bytes] { return make(bytes); };
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

/// Open-loop overload (A9): 1.5x line rate, 256 B messages over a 40 us
/// window into 4096 B VOQs with drop-oldest push-out, for three arrival
/// shapes x four paradigms.
std::vector<Point> overload(std::uint64_t seed) {
  const std::uint64_t arrival_seed = derive(seed, 0x0E710ADEull);
  std::vector<Point> points;
  for (const char* shape : {"uniform", "skewed", "bursty"}) {
    pmx::ArrivalParams arrival;
    arrival.offered_load = 1.5;
    arrival.mean_msg_bytes = 256;
    arrival.duration = TimeNs{40'000};
    arrival.seed = arrival_seed;
    if (std::string(shape) == "skewed") {
      arrival.rate_skew = 0.8;
      arrival.dest_skew = 0.5;
    } else if (std::string(shape) == "bursty") {
      arrival.process = pmx::ArrivalParams::Process::kOnOff;
    }
    for (const SwitchKind kind :
         {SwitchKind::kWormhole, SwitchKind::kCircuit, SwitchKind::kDynamicTdm,
          SwitchKind::kPreloadTdm}) {
      Point p;
      p.label = std::string(shape) + "/" + pmx::to_string(kind);
      pmx::SystemParams& params = p.config.params;
      params.num_nodes = kNodes;
      params.admission.capacity_bytes = 4096;
      params.admission.policy = pmx::ShedPolicy::kDropOldest;
      // The zero-rate fault layer arms the full conservation ledger without
      // perturbing timing; the auditor checks it.
      params.fault.force_enable = true;
      params.audit.enabled = true;
      p.config.kind = kind;
      p.config.starvation_slots = 8;
      p.config.horizon = TimeNs{2'000'000};
      p.make_workload = [arrival] {
        return pmx::open_loop(kNodes, arrival, line_rate());
      };
      points.push_back(std::move(p));
    }
  }
  return points;
}

/// Dynamic TDM under the re-optimization service (A10) and the lossy
/// control channel (A7): 0.35x skewed open-loop load with a fixed or
/// churning hot set, control seed as in bench_ablation_reopt. Releases stay
/// reliable: a lost release under re-optimization can wedge a point for
/// good (README.md, "Known failure"), and a benchmark seed must never land
/// on that bug. Requests, grants and reconfig commands are lost at 0.1.
std::vector<Point> reopt_chaos(std::uint64_t seed) {
  std::vector<Point> points;
  for (const double loss : {0.0, 0.1}) {
    for (const std::int64_t churn : {0, 5'000}) {
      for (const std::uint64_t arrival_seed : {1u, 2u, 3u, 5u, 6u}) {
        pmx::ArrivalParams arrival;
        arrival.offered_load = 0.35;
        arrival.dest_skew = 0.85;
        arrival.hot_rotate_period = TimeNs{churn};
        arrival.duration = TimeNs{20'000};
        arrival.seed = derive(seed, arrival_seed);
        Point p;
        p.label = std::string(loss > 0.0 ? "loss0.1" : "loss0") +
                  (churn > 0 ? "/churn5us" : "/fixed") + "/a" +
                  std::to_string(arrival_seed);
        pmx::SystemParams& params = p.config.params;
        params.num_nodes = kNodes;
        params.reopt.period_slots = 16;
        params.reopt.ewma_shift = 1;
        params.ctrl.force_enable = true;
        params.ctrl.loss = loss;
        params.ctrl.release_loss = 0.0;
        params.ctrl.seed = derive(seed, 0xA10BEEFull);
        params.fault.force_enable = true;
        params.audit.enabled = true;
        p.config.kind = SwitchKind::kDynamicTdm;
        p.config.starvation_slots = 8;
        p.config.horizon = TimeNs{2'000'000};
        p.make_workload = [arrival] {
          return pmx::open_loop(kNodes, arrival, line_rate());
        };
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig4-tdm", "fig4-base",
                                              "overload", "reopt-chaos"};
  return names;
}

std::vector<Point> make_points(const std::string& name, std::uint64_t seed) {
  if (name == "fig4-tdm") {
    return fig4(seed, {SwitchKind::kDynamicTdm, SwitchKind::kPreloadTdm});
  }
  if (name == "fig4-base") {
    return fig4(seed, {SwitchKind::kWormhole, SwitchKind::kCircuit});
  }
  if (name == "overload") {
    return overload(seed);
  }
  if (name == "reopt-chaos") {
    return reopt_chaos(seed);
  }
  return {};
}

}  // namespace perf
