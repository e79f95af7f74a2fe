#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace pmx {

/// Serial link timing model (Section 5 of the paper).
///
/// 10-foot cables carrying high-speed serial signals at 6.4 Gb/s:
/// 30 ns parallel-to-serial conversion, 20 ns wire propagation and 30 ns
/// serial-to-parallel conversion. Bandwidth is expressed in tenths of
/// Gb/s so all per-byte times stay exact in integer arithmetic
/// (6.4 Gb/s = 0.8 B/ns: an 8-byte flit takes exactly 10 ns).
class LinkModel {
 public:
  struct Params {
    std::int64_t bandwidth_dgbps = 64;  ///< tenths of Gb/s (64 -> 6.4 Gb/s)
    TimeNs p2s{30};                     ///< parallel-to-serial conversion
    TimeNs s2p{30};                     ///< serial-to-parallel conversion
    TimeNs wire{20};                    ///< propagation down one 10-ft cable

    /// Line rate in bytes/ns (0.8 at the default 6.4 Gb/s): the unit of
    /// efficiency's ideal makespan and of open-loop offered load. On the
    /// params, so callers holding `SystemParams::link` need not construct
    /// (and validate) a LinkModel.
    [[nodiscard]] double bytes_per_ns() const {
      return static_cast<double>(bandwidth_dgbps) / 80.0;
    }
  };

  LinkModel() : LinkModel(Params{}) {}
  explicit LinkModel(const Params& p);

  /// Time to clock `bytes` onto the serial wire (ceil at ns resolution).
  [[nodiscard]] TimeNs serialization(std::uint64_t bytes) const;

  /// Largest payload that fits in a window of `w` ns at line rate.
  [[nodiscard]] std::uint64_t bytes_in(TimeNs w) const;

  /// One-way latency of the head of a transfer across one cable segment
  /// including both conversions: p2s + wire + s2p.
  [[nodiscard]] TimeNs segment_latency() const;

  /// Head latency through NIC->switch->NIC where the switch keeps the signal
  /// in the analog/differential domain (LVDS or optical, Section 5): no
  /// serdes at the switch, negligible switch propagation. p2s + wire +
  /// switch_hop + wire + s2p.
  [[nodiscard]] TimeNs through_passive_switch(TimeNs switch_hop) const;

  [[nodiscard]] const Params& params() const { return p_; }

 private:
  Params p_;
};

}  // namespace pmx
