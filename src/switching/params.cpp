#include "switching/params.hpp"

#include "common/assert.hpp"

namespace pmx {

void SystemParams::validate() const {
  PMX_CHECK(num_nodes >= 2, "system needs at least two nodes");
  PMX_CHECK(link.bandwidth_dgbps > 0, "link bandwidth must be positive");
  PMX_CHECK(nic_cycle >= TimeNs::zero(), "negative NIC cycle");
  PMX_CHECK(scheduler_latency > TimeNs::zero(),
            "scheduler latency must be positive");
  PMX_CHECK(slot_length > TimeNs::zero(), "slot length must be positive");
  PMX_CHECK(guard_band >= TimeNs::zero() && guard_band < slot_length,
            "guard band must be shorter than the slot");
  PMX_CHECK(slot_payload_bytes() > 0,
            "slot data window carries no payload at this link rate");
  PMX_CHECK(mux_degree >= 1, "multiplexing degree must be at least 1");
  PMX_CHECK(max_worm_bytes >= kFlitBytes,
            "worm limit must fit at least one flit");
  fault.validate(num_nodes);
  ctrl.validate(slot_length);
  audit.validate();
  reopt.validate();
}

}  // namespace pmx
