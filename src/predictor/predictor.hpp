#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/message.hpp"
#include "common/time.hpp"

namespace pmx {

/// Eviction predictor interface (Section 3.2). Connections are identified
/// by Conn pairs (see common/message.hpp).
///
/// The paper inverts the usual prediction problem: instead of predicting
/// which connection to *add*, the predictor decides when to *remove* a
/// connection from the communication working set so the multiplexing degree
/// stays small. The network calls:
///   on_establish  — when the scheduler inserts a connection,
///   on_use        — every time data moves over the connection,
///   on_release    — when the connection leaves the network,
/// and periodically collect_evictions() to learn which held connections
/// should be dropped (unheld). should_hold() decides whether a connection is
/// latched at all once the NIC's request signal goes away (Section 4,
/// extension 3).
///
/// Every concrete policy is a rank function run by the PolicyEngine
/// (policy_engine.hpp); this interface is what the network layer sees.
class Predictor {
 public:
  virtual ~Predictor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Latch this connection when its request drops?
  [[nodiscard]] virtual bool should_hold(const Conn& c) const = 0;

  virtual void on_establish(const Conn& c, TimeNs now) = 0;
  virtual void on_use(const Conn& c, TimeNs now) = 0;
  virtual void on_release(const Conn& c, TimeNs now) = 0;

  /// Connections whose hold should now be dropped. Called periodically
  /// (every TDM slot in the provided networks); returned connections are
  /// forgotten by the predictor.
  [[nodiscard]] virtual std::vector<Conn> collect_evictions(TimeNs now) = 0;

  /// A compiler flush (Section 3.3) removed every dynamic connection:
  /// discard all learned state.
  virtual void on_flush() {}

  /// Polled once per TDM slot: should the network flush its dynamically
  /// learned connections right now (a detected phase change, Section 3.3)?
  /// The default never recommends flushing.
  [[nodiscard]] virtual bool recommend_flush(TimeNs now) {
    (void)now;
    return false;
  }

  // --- Hold-latch mirroring (slot-auditor cross-check) --------------------
  /// Notified right after the scheduler latches a hold on `c`. A predictor
  /// that mirrors the hold set (mirrors_holds() == true) must keep its
  /// mirror bit-identical to the scheduler's hold matrix: every unlatch
  /// path (evict batch, release, fault force-release, flush) already has a
  /// matching predictor callback. The slot auditor compares the two and
  /// reports any divergence as a conservation violation.
  virtual void on_hold(const Conn& c, TimeNs now) {
    (void)c;
    (void)now;
  }
  /// Does this predictor maintain a hold mirror the auditor may check?
  [[nodiscard]] virtual bool mirrors_holds() const { return false; }
  [[nodiscard]] virtual std::size_t held_count() const { return 0; }
  [[nodiscard]] virtual bool believes_held(const Conn& c) const {
    (void)c;
    return false;
  }
};

}  // namespace pmx
