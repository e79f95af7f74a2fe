// Table 3 reproduction: latency of the scheduling circuit vs system size.
//
// The paper synthesized the SL-array scheduler onto an Altera Stratix FPGA;
// we cannot synthesize hardware, so this harness reports (a) the analytic
// latency model fitted to the paper's own measurements (c0 + c1*log2 N +
// c2*N: OR-reduction trees + availability wavefront), (b) the derived ASIC
// estimate (the paper's "about 5x better", anchored at 80 ns for 128x128),
// and (c) software micro-timings of the SL array pass as a sanity check
// that the combinational work indeed scales ~N^2 with an O(N) critical
// path: the word-parallel pass the scheduler runs (preschedule_into into a
// reused matrix, then sl_array_pass_fast on a reused workspace), and the
// gate-accurate cell-by-cell reference (preschedule_ref, then
// sl_array_pass_ref) on the same inputs.

#include <chrono>
#include <iostream>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/sweep.hpp"
#include "sched/latency_model.hpp"
#include "sched/presched.hpp"
#include "sched/sl_array.hpp"

namespace {

/// Best-of-3 wall time for one full SL pass (preschedule + wavefront) on a
/// random half-loaded request state; `ref` times the cell-by-cell reference
/// pass instead of the word-parallel one. The word-parallel pass reuses its
/// L matrix and workspace and takes the slot's AI/AO occupancy precomputed,
/// as TdmScheduler::run_pass does.
double sw_pass_us(std::size_t n, bool ref) {
  pmx::Rng rng(n);
  pmx::BitMatrix config(n);
  pmx::BitMatrix requests(n);
  const auto perm = rng.permutation(n);
  for (std::size_t u = 0; u < n; ++u) {
    if (rng.chance(0.5)) {
      config.set(u, perm[u]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.chance(0.1)) {
        requests.set(u, v);
      }
    }
  }
  const pmx::BitVector ai = config.row_or();
  const pmx::BitVector ao = config.col_or();
  pmx::BitMatrix l(n);
  pmx::SlPassWorkspace ws(n);
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kIters = 50;
    std::size_t sink = 0;
    for (int i = 0; i < kIters; ++i) {
      const std::size_t start = static_cast<std::size_t>(i) % n;
      if (ref) {
        const pmx::BitMatrix l_ref =
            pmx::preschedule_ref(requests, config, config);
        sink += pmx::sl_array_pass_ref(l_ref, config, start, start).establishes;
      } else {
        pmx::preschedule_into(requests, config, config, l);
        sink += pmx::sl_array_pass_fast(l, config, ai, ao, start, start, ws)
                    .establishes;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kIters;
    if (sink != static_cast<std::size_t>(-1) && us < best) {
      best = us;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // --jobs parallelizes the software micro-timing points (the timing
  // columns are wall-clock measurements, so absolute numbers can shift a
  // little when points share cores; the model columns are exact either way).
  const pmx::Config cfg = pmx::Config::from_cli(argc, argv);
  const pmx::SweepOptions sweep{cfg.get_uint("jobs", 1)};
  cfg.fail_unread("bench_table3");
  pmx::SchedulerLatencyModel model;
  std::cout << "Table 3: latency of the scheduling circuit\n"
            << "model: fpga(N) = " << pmx::Table::fmt(model.c0()) << " + "
            << pmx::Table::fmt(model.c1()) << "*log2(N) + "
            << pmx::Table::fmt(model.c2()) << "*N   (rms error "
            << pmx::Table::fmt(model.rms_error()) << " ns)\n\n";

  std::vector<std::size_t> ns;
  for (const auto& point : pmx::SchedulerLatencyModel::paper_table3()) {
    ns.push_back(point.n);
  }
  ns.push_back(256);  // extrapolation beyond the paper's table
  ns.push_back(512);
  const std::vector<double> sw_us = pmx::sweep_map<double>(
      ns.size(), [&](std::size_t i) { return sw_pass_us(ns[i], false); },
      sweep);
  const std::vector<double> ref_us = pmx::sweep_map<double>(
      ns.size(), [&](std::size_t i) { return sw_pass_us(ns[i], true); },
      sweep);

  pmx::Table table({"N", "paper FPGA (ns)", "model FPGA (ns)",
                    "model ASIC (ns)", "sw pass (us)", "ref pass (us)"});
  const auto paper = pmx::SchedulerLatencyModel::paper_table3();
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const std::size_t n = ns[i];
    table.add_row({pmx::Table::fmt(static_cast<std::uint64_t>(n)),
                   i < paper.size() ? pmx::Table::fmt(paper[i].fpga_ns, 0)
                                    : std::string("-"),
                   pmx::Table::fmt(model.fpga_ns(n), 1),
                   pmx::Table::fmt(model.asic_ns(n), 1),
                   pmx::Table::fmt(sw_us[i], 2),
                   pmx::Table::fmt(ref_us[i], 2)});
  }
  table.print(std::cout);
  std::cout << "\nsimulation uses asic(128) = "
            << model.asic_latency(128).ns()
            << " ns as the scheduler pass latency (paper Section 5)\n";
  return 0;
}
