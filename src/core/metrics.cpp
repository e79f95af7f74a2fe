#include "core/metrics.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "switching/reopt_loop.hpp"

namespace pmx {

namespace {

void fill_fault_metrics(const Network& network, RunMetrics& m) {
  if (!network.fault_tolerant()) {
    return;
  }
  const CounterSet& c = network.counters();
  m.retransmits = c.value("retransmits");
  m.crc_corruptions = c.value("crc_corruptions");
  m.duplicates = c.value("duplicates_suppressed");
  m.acks_lost = c.value("acks_lost");
  m.dropped_messages = network.dropped_messages();
  m.link_faults = static_cast<std::size_t>(c.value("link_faults"));
  m.forced_releases = static_cast<std::size_t>(c.value("forced_releases"));
  if (m.makespan > TimeNs::zero()) {
    m.goodput = m.throughput;
    m.wire_throughput = static_cast<double>(network.wire_bytes()) /
                        static_cast<double>(m.makespan.ns());
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& rec : network.recoveries()) {
    if (!rec.recovered.has_value()) {
      continue;
    }
    const auto t = static_cast<double>((*rec.recovered - rec.down).ns());
    sum += t;
    m.recovery_max_ns = std::max(m.recovery_max_ns, t);
    ++n;
  }
  if (n > 0) {
    m.recovery_mean_ns = sum / static_cast<double>(n);
  }
}

void fill_overload_metrics(const Network& network, RunMetrics& m) {
  if (!network.admission_enabled()) {
    return;
  }
  const CounterSet& c = network.counters();
  m.shed_messages = network.shed_messages();
  m.shed_bytes = network.shed_bytes();
  m.shed_newest = static_cast<std::size_t>(c.value("shed_newest"));
  m.shed_oldest = static_cast<std::size_t>(c.value("shed_oldest"));
  m.shed_deadline = static_cast<std::size_t>(c.value("shed_deadline"));
  m.shed_oversize = static_cast<std::size_t>(c.value("shed_oversize"));
  m.backpressure_rejects =
      static_cast<std::size_t>(c.value("backpressure_rejects"));
  m.backpressure_stall_ns = c.value("backpressure_stall_ns");

  // Offered/accepted load against aggregate per-port line rate over the
  // submission window. A single-instant burst has no window; the ratios
  // stay zero rather than divide by it.
  const double rate = network.params().link.bytes_per_ns();
  const TimeNs window = network.last_submit() - network.first_submit();
  if (window > TimeNs::zero() && network.submitted_count() > 0) {
    const double capacity = static_cast<double>(window.ns()) * rate *
                            static_cast<double>(network.params().num_nodes);
    m.offered_load = static_cast<double>(network.submitted_bytes()) / capacity;
    m.accepted_load =
        static_cast<double>(network.submitted_bytes() - network.shed_bytes()) /
        capacity;
  }
  if (network.submitted_count() > 0 && m.makespan > network.last_submit()) {
    m.recovery_after_burst_ns =
        static_cast<double>((m.makespan - network.last_submit()).ns());
  }

  std::vector<std::uint64_t> depths = network.depth_samples();
  if (!depths.empty()) {
    std::ranges::sort(depths);
    m.queue_depth_max = depths.back();
    m.queue_depth_p50 =
        static_cast<double>(depths[(depths.size() - 1) / 2]);
    const std::size_t p99_idx =
        std::min(depths.size() - 1,
                 static_cast<std::size_t>(0.99 * static_cast<double>(
                                                     depths.size())));
    m.queue_depth_p99 = static_cast<double>(depths[p99_idx]);
  }
}

void fill_ctrl_metrics(const Network& network, RunMetrics& m) {
  const CounterSet& c = network.counters();
  if (const ControlFaultModel* cf = network.control_fault()) {
    m.ctrl_messages = cf->total_sent();
    m.ctrl_dropped = cf->total_dropped();
    m.ctrl_corrupted = cf->total_corrupted();
    m.ctrl_delayed = cf->total_delayed();
    m.ctrl_rerequests = c.value("ctrl_rerequests");
    m.lease_expiries = c.value("lease_expiries");
  }
  if (const SlotAuditor* auditor = network.auditor()) {
    const AuditStats& a = auditor->stats();
    m.audits = a.audits;
    m.audit_violations = a.violations;
    m.resyncs = a.resyncs;
    if (a.recoveries > 0) {
      m.resync_latency_mean_ns = static_cast<double>(a.recovery_total.ns()) /
                                 static_cast<double>(a.recoveries);
      m.resync_latency_max_ns = static_cast<double>(a.recovery_max.ns());
    }
  }
}

void fill_reopt_metrics(const Network& network, RunMetrics& m) {
  const ReoptStats* stats = network.reopt_stats();
  if (stats == nullptr) {
    return;
  }
  m.reopt_solves = stats->solves;
  m.reopt_proposals = stats->proposals;
  m.reopt_applies = stats->applies;
  m.reopt_rollbacks = stats->rollbacks;
  m.reopt_cmds_lost = stats->cmds_lost;
  m.reopt_invalidated_ctrl = stats->invalidated_ctrl;
  m.reopt_dip_depth_bytes = stats->dip_depth_bytes;
  m.reopt_dip_duration_ns = static_cast<double>(stats->dip_duration_ns);
  if (!stats->apply_latency_ns.empty()) {
    std::vector<std::int64_t> lat = stats->apply_latency_ns;
    std::ranges::sort(lat);
    m.reopt_apply_latency_p50_ns =
        static_cast<double>(lat[(lat.size() - 1) / 2]);
    const std::size_t p99_idx =
        std::min(lat.size() - 1,
                 static_cast<std::size_t>(0.99 * static_cast<double>(
                                                     lat.size())));
    m.reopt_apply_latency_p99_ns = static_cast<double>(lat[p99_idx]);
  }
}

}  // namespace

RunMetrics compute_metrics(const Workload& workload, const Network& network) {
  RunMetrics m;
  const auto& records = network.records();
  m.messages = records.size();
  m.total_bytes = network.delivered_bytes();
  m.makespan = network.last_delivery();
  if (records.empty() || m.makespan <= TimeNs::zero()) {
    fill_fault_metrics(network, m);
    fill_overload_metrics(network, m);
    fill_ctrl_metrics(network, m);
    fill_reopt_metrics(network, m);
    return m;
  }

  const double rate = network.params().link.bytes_per_ns();
  const TimeNs ideal = workload.ideal_makespan(rate);
  m.efficiency =
      static_cast<double>(ideal.ns()) / static_cast<double>(m.makespan.ns());
  m.throughput = static_cast<double>(m.total_bytes) /
                 static_cast<double>(m.makespan.ns());

  // Sum in record order; the maximum and the p99 order statistic need no
  // full sort.
  std::vector<double> latencies;
  latencies.reserve(records.size());
  double sum = 0.0;
  for (const auto& rec : records) {
    const auto l = static_cast<double>(rec.latency().ns());
    latencies.push_back(l);
    sum += l;
  }
  m.avg_latency_ns = sum / static_cast<double>(latencies.size());
  m.max_latency_ns = std::ranges::max(latencies);
  const std::size_t p99_idx =
      std::min(latencies.size() - 1,
               static_cast<std::size_t>(0.99 * static_cast<double>(
                                                   latencies.size())));
  const auto p99 = latencies.begin() + static_cast<std::ptrdiff_t>(p99_idx);
  std::nth_element(latencies.begin(), p99, latencies.end());
  m.p99_latency_ns = *p99;
  fill_fault_metrics(network, m);
  fill_overload_metrics(network, m);
  fill_ctrl_metrics(network, m);
  fill_reopt_metrics(network, m);
  return m;
}

}  // namespace pmx
