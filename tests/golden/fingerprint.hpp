#pragma once

#include <cstdio>
#include <sstream>
#include <string>

#include "core/experiment.hpp"

namespace pmx::golden {

/// Exact decimal rendering of a double: %.17g round-trips every IEEE-754
/// binary64 value, so two fingerprints match iff every derived statistic is
/// bit-identical.
inline std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

/// Canonical textual fingerprint of one run: every RunMetrics field in
/// declaration order plus every paradigm counter (already sorted -- the
/// CounterSet is a std::map). The policy- and paradigm-conformance suites
/// compare these byte-for-byte against their committed goldens.
inline std::string fingerprint(const std::string& label, const RunResult& r) {
  std::ostringstream os;
  const RunMetrics& m = r.metrics;
  os << "run " << label << "\n";
  os << "completed " << (r.completed ? 1 : 0) << "\n";
  os << "sim_events " << r.sim_events << "\n";
  os << "makespan_ns " << m.makespan.ns() << "\n";
  os << "total_bytes " << m.total_bytes << "\n";
  os << "messages " << m.messages << "\n";
  os << "efficiency " << fmt_double(m.efficiency) << "\n";
  os << "throughput " << fmt_double(m.throughput) << "\n";
  os << "avg_latency_ns " << fmt_double(m.avg_latency_ns) << "\n";
  os << "p99_latency_ns " << fmt_double(m.p99_latency_ns) << "\n";
  os << "max_latency_ns " << fmt_double(m.max_latency_ns) << "\n";
  os << "wire_throughput " << fmt_double(m.wire_throughput) << "\n";
  os << "goodput " << fmt_double(m.goodput) << "\n";
  os << "retransmits " << m.retransmits << "\n";
  os << "crc_corruptions " << m.crc_corruptions << "\n";
  os << "duplicates " << m.duplicates << "\n";
  os << "acks_lost " << m.acks_lost << "\n";
  os << "dropped_messages " << m.dropped_messages << "\n";
  os << "link_faults " << m.link_faults << "\n";
  os << "forced_releases " << m.forced_releases << "\n";
  os << "recovery_mean_ns " << fmt_double(m.recovery_mean_ns) << "\n";
  os << "recovery_max_ns " << fmt_double(m.recovery_max_ns) << "\n";
  os << "offered_load " << fmt_double(m.offered_load) << "\n";
  os << "accepted_load " << fmt_double(m.accepted_load) << "\n";
  os << "shed_messages " << m.shed_messages << "\n";
  os << "shed_bytes " << m.shed_bytes << "\n";
  os << "shed_newest " << m.shed_newest << "\n";
  os << "shed_oldest " << m.shed_oldest << "\n";
  os << "shed_deadline " << m.shed_deadline << "\n";
  os << "shed_oversize " << m.shed_oversize << "\n";
  os << "backpressure_rejects " << m.backpressure_rejects << "\n";
  os << "backpressure_stall_ns " << m.backpressure_stall_ns << "\n";
  os << "queue_depth_p50 " << fmt_double(m.queue_depth_p50) << "\n";
  os << "queue_depth_p99 " << fmt_double(m.queue_depth_p99) << "\n";
  os << "queue_depth_max " << m.queue_depth_max << "\n";
  os << "recovery_after_burst_ns " << fmt_double(m.recovery_after_burst_ns)
     << "\n";
  os << "ctrl_messages " << m.ctrl_messages << "\n";
  os << "ctrl_dropped " << m.ctrl_dropped << "\n";
  os << "ctrl_corrupted " << m.ctrl_corrupted << "\n";
  os << "ctrl_delayed " << m.ctrl_delayed << "\n";
  os << "ctrl_rerequests " << m.ctrl_rerequests << "\n";
  os << "lease_expiries " << m.lease_expiries << "\n";
  os << "audits " << m.audits << "\n";
  os << "audit_violations " << m.audit_violations << "\n";
  os << "resyncs " << m.resyncs << "\n";
  os << "resync_latency_mean_ns " << fmt_double(m.resync_latency_mean_ns)
     << "\n";
  os << "resync_latency_max_ns " << fmt_double(m.resync_latency_max_ns)
     << "\n";
  os << "reopt_solves " << m.reopt_solves << "\n";
  os << "reopt_proposals " << m.reopt_proposals << "\n";
  os << "reopt_applies " << m.reopt_applies << "\n";
  os << "reopt_rollbacks " << m.reopt_rollbacks << "\n";
  os << "reopt_cmds_lost " << m.reopt_cmds_lost << "\n";
  os << "reopt_invalidated_ctrl " << m.reopt_invalidated_ctrl << "\n";
  os << "reopt_apply_latency_p50_ns "
     << fmt_double(m.reopt_apply_latency_p50_ns) << "\n";
  os << "reopt_apply_latency_p99_ns "
     << fmt_double(m.reopt_apply_latency_p99_ns) << "\n";
  os << "reopt_dip_depth_bytes " << m.reopt_dip_depth_bytes << "\n";
  os << "reopt_dip_duration_ns " << fmt_double(m.reopt_dip_duration_ns)
     << "\n";
  for (const auto& [name, value] : r.counters) {
    os << "counter " << name << " " << value << "\n";
  }
  return os.str();
}

}  // namespace pmx::golden
