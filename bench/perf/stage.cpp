#include "stage.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "compiled/plan.hpp"
#include "core/driver.hpp"
#include "predictor/policy_engine.hpp"
#include "sim/simulator.hpp"
#include "switching/circuit.hpp"
#include "switching/preload_tdm.hpp"
#include "switching/tdm.hpp"
#include "switching/wormhole.hpp"

namespace perf {

namespace {

/// Adds the host time of its own lifetime to an integer-ns accumulator.
class Span {
 public:
  explicit Span(std::int64_t& acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() { acc_ += ns_since(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t& acc_;
  Clock::time_point t0_;
};

/// Predictor decorator around make_policy()'s engine. Forwards every
/// virtual call unchanged, so the simulated result is identical; it times
/// each call (trace) and, for the gate's self-test, spins before returning.
class TimedPredictor final : public pmx::Predictor {
 public:
  TimedPredictor(std::unique_ptr<pmx::Predictor> inner, PredictorTally& tally,
                 const Instrument& inst)
      : inner_(std::move(inner)), tally_(tally), inst_(inst) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool should_hold(const pmx::Conn& c) const override {
    const Call call(*this);
    return inner_->should_hold(c);
  }
  void on_establish(const pmx::Conn& c, pmx::TimeNs now) override {
    const Call call(*this);
    inner_->on_establish(c, now);
  }
  void on_use(const pmx::Conn& c, pmx::TimeNs now) override {
    const Call call(*this);
    inner_->on_use(c, now);
  }
  void on_release(const pmx::Conn& c, pmx::TimeNs now) override {
    const Call call(*this);
    inner_->on_release(c, now);
  }
  [[nodiscard]] std::vector<pmx::Conn> collect_evictions(
      pmx::TimeNs now) override {
    const Call call(*this);
    std::vector<pmx::Conn> evicted = inner_->collect_evictions(now);
    tally_.evictions += evicted.size();
    return evicted;
  }
  void on_flush() override {
    const Call call(*this);
    inner_->on_flush();
  }
  [[nodiscard]] bool recommend_flush(pmx::TimeNs now) override {
    const Call call(*this);
    return inner_->recommend_flush(now);
  }
  void on_hold(const pmx::Conn& c, pmx::TimeNs now) override {
    const Call call(*this);
    inner_->on_hold(c, now);
  }
  [[nodiscard]] bool mirrors_holds() const override {
    const Call call(*this);
    return inner_->mirrors_holds();
  }
  [[nodiscard]] std::size_t held_count() const override {
    const Call call(*this);
    return inner_->held_count();
  }
  [[nodiscard]] bool believes_held(const pmx::Conn& c) const override {
    const Call call(*this);
    return inner_->believes_held(c);
  }

 private:
  /// Scope of one forwarded call.
  class Call {
   public:
    explicit Call(const TimedPredictor& p) : p_(p), t0_(Clock::now()) {}
    ~Call() {
      if (p_.inst_.slow_predictor_ns > 0) {
        while (ns_since(t0_) < p_.inst_.slow_predictor_ns) {
        }
      }
      if (p_.inst_.trace) {
        ++p_.tally_.calls;
        p_.tally_.busy_ns += ns_since(t0_);
      }
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    const TimedPredictor& p_;
    Clock::time_point t0_;
  };

  std::unique_ptr<pmx::Predictor> inner_;
  PredictorTally& tally_;
  const Instrument& inst_;
};

/// make_network() of core/experiment.cpp, through public constructors, with
/// the compile span split out and the predictor optionally decorated.
std::unique_ptr<pmx::Network> build_network(const Point& point,
                                            const pmx::Workload& workload,
                                            pmx::Simulator& sim,
                                            const Instrument& inst,
                                            PointRun& out) {
  const pmx::RunConfig& config = point.config;
  switch (config.kind) {
    case pmx::SwitchKind::kWormhole:
      return std::make_unique<pmx::WormholeNetwork>(sim, config.params);
    case pmx::SwitchKind::kCircuit: {
      pmx::CircuitNetwork::Options o;
      o.hold_circuits = config.hold_circuits;
      return std::make_unique<pmx::CircuitNetwork>(sim, config.params, o);
    }
    case pmx::SwitchKind::kDynamicTdm: {
      pmx::TdmNetwork::Options o;
      o.predictor = pmx::make_policy(config.policy);
      if (inst.trace || inst.slow_predictor_ns > 0) {
        o.predictor = std::make_unique<TimedPredictor>(
            std::move(o.predictor), out.predictor, inst);
      }
      o.multi_slot_connections = config.multi_slot_connections;
      o.sl_units = config.sl_units;
      o.receiver_buffer_bytes = config.receiver_buffer_bytes;
      o.receiver_drain_per_slot = config.receiver_drain_per_slot;
      o.starvation_slots = config.starvation_slots;
      auto net = std::make_unique<pmx::TdmNetwork>(sim, config.params,
                                                   std::move(o));
      for (std::size_t s = 0; s < config.pinned_configs.size(); ++s) {
        net->preload(s, config.pinned_configs[s], /*pinned=*/true);
      }
      return net;
    }
    case pmx::SwitchKind::kPreloadTdm: {
      pmx::CompiledPlan plan;
      {
        const Span span(out.times.compile);
        plan = pmx::compile_workload(workload, config.optimal_decomposition);
      }
      for (const pmx::PhasePlan& phase : plan.phases) {
        out.compiled_configs += phase.configs.size();
      }
      return std::make_unique<pmx::PreloadTdmNetwork>(sim, config.params,
                                                      std::move(plan));
    }
  }
  PMX_CHECK(false, "unknown switch kind");
  return nullptr;
}

}  // namespace

PointRun run_point(const Point& point, const Instrument& inst) {
  const Clock::time_point t_point = Clock::now();
  const pmx::RunConfig& config = point.config;
  PointRun out;

  pmx::Workload workload;
  {
    const Span span(out.times.gen);
    workload = point.make_workload();
  }
  out.messages = workload.num_messages();

  pmx::Simulator sim;
  std::unique_ptr<pmx::Network> network;
  std::optional<pmx::TrafficDriver> driver;
  {
    const Span span(out.times.build);
    network = build_network(point, workload, sim, inst, out);
    driver.emplace(sim, *network, workload, config.send_mode);
  }
  out.times.build -= out.times.compile;

  pmx::SlotAuditor* auditor = network->auditor();
  {
    const Span span(out.times.run);
    driver->start();
    sim.run_until(config.horizon);
    if (auditor != nullptr && driver->finished()) {
      // run_workload's quiesce window: let in-flight control traffic settle
      // before the final audit.
      pmx::TimeNs window = config.params.slot_length * 8;
      if (network->control_faulty()) {
        window = window + config.params.ctrl.watchdog_cap +
                 config.params.ctrl.lease * 2;
      }
      sim.run_until(sim.now() + window);
    }
  }
  if (auditor != nullptr) {
    const Span span(out.times.audit);
    auditor->audit_now();
    out.audited = true;
  }
  {
    const Span span(out.times.metrics);
    out.result.completed = driver->finished();
    out.result.sim_events = sim.events_processed();
    out.result.metrics = pmx::compute_metrics(workload, *network);
    const auto& counters = network->counters().all();
    out.result.counters.reserve(counters.size());
    for (const auto& [name, value] : counters) {
      out.result.counters.emplace_back(name, value);
    }
  }
  out.sim_end_ns = sim.now().ns();
  out.ledger_ok = network->delivered_count() + network->shed_messages() +
                          network->dropped_messages() ==
                      network->submitted_count() &&
                  network->submitted_count() == out.messages;
  if (const auto* tdm = dynamic_cast<const pmx::TdmNetwork*>(network.get())) {
    out.sched = tdm->scheduler().stats();
  } else if (const auto* pre = dynamic_cast<const pmx::PreloadTdmNetwork*>(
                 network.get())) {
    out.sched = pre->scheduler().stats();
  }
  out.times.total = ns_since(t_point);
  return out;
}

std::uint64_t fingerprint(const pmx::RunResult& result) {
  const pmx::RunMetrics& m = result.metrics;
  std::string text;
  const auto add = [&text](const char* name, auto value) {
    char buf[96];
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      std::snprintf(buf, sizeof(buf), "%s %.17g\n", name, value);
    } else {
      std::snprintf(buf, sizeof(buf), "%s %llu\n", name,
                    static_cast<unsigned long long>(value));
    }
    text += buf;
  };
  add("completed", result.completed ? 1u : 0u);
  add("makespan_ns", static_cast<std::uint64_t>(m.makespan.ns()));
  add("total_bytes", m.total_bytes);
  add("messages", m.messages);
  add("efficiency", m.efficiency);
  add("throughput", m.throughput);
  add("avg_latency_ns", m.avg_latency_ns);
  add("p99_latency_ns", m.p99_latency_ns);
  add("max_latency_ns", m.max_latency_ns);
  add("wire_throughput", m.wire_throughput);
  add("goodput", m.goodput);
  add("retransmits", m.retransmits);
  add("crc_corruptions", m.crc_corruptions);
  add("duplicates", m.duplicates);
  add("acks_lost", m.acks_lost);
  add("dropped_messages", m.dropped_messages);
  add("link_faults", m.link_faults);
  add("forced_releases", m.forced_releases);
  add("recovery_mean_ns", m.recovery_mean_ns);
  add("recovery_max_ns", m.recovery_max_ns);
  add("offered_load", m.offered_load);
  add("accepted_load", m.accepted_load);
  add("shed_messages", m.shed_messages);
  add("shed_bytes", m.shed_bytes);
  add("shed_newest", m.shed_newest);
  add("shed_oldest", m.shed_oldest);
  add("shed_deadline", m.shed_deadline);
  add("shed_oversize", m.shed_oversize);
  add("backpressure_rejects", m.backpressure_rejects);
  add("backpressure_stall_ns", m.backpressure_stall_ns);
  add("queue_depth_p50", m.queue_depth_p50);
  add("queue_depth_p99", m.queue_depth_p99);
  add("queue_depth_max", m.queue_depth_max);
  add("recovery_after_burst_ns", m.recovery_after_burst_ns);
  add("ctrl_messages", m.ctrl_messages);
  add("ctrl_dropped", m.ctrl_dropped);
  add("ctrl_corrupted", m.ctrl_corrupted);
  add("ctrl_delayed", m.ctrl_delayed);
  add("ctrl_rerequests", m.ctrl_rerequests);
  add("lease_expiries", m.lease_expiries);
  add("audits", m.audits);
  add("audit_violations", m.audit_violations);
  add("resyncs", m.resyncs);
  add("resync_latency_mean_ns", m.resync_latency_mean_ns);
  add("resync_latency_max_ns", m.resync_latency_max_ns);
  add("reopt_solves", m.reopt_solves);
  add("reopt_proposals", m.reopt_proposals);
  add("reopt_applies", m.reopt_applies);
  add("reopt_rollbacks", m.reopt_rollbacks);
  add("reopt_cmds_lost", m.reopt_cmds_lost);
  add("reopt_invalidated_ctrl", m.reopt_invalidated_ctrl);
  add("reopt_apply_latency_p50_ns", m.reopt_apply_latency_p50_ns);
  add("reopt_apply_latency_p99_ns", m.reopt_apply_latency_p99_ns);
  add("reopt_dip_depth_bytes", m.reopt_dip_depth_bytes);
  add("reopt_dip_duration_ns", m.reopt_dip_duration_ns);

  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace perf
