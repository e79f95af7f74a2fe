#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace pmx {

EventId Simulator::schedule_at(TimeNs t, EventFn fn) {
  PMX_CHECK(t >= now_, "cannot schedule an event in the past");
  return queue_.push(t, std::move(fn));
}

EventId Simulator::schedule_after(TimeNs delay, EventFn fn) {
  PMX_CHECK(delay >= TimeNs::zero(), "negative delay");
  return queue_.push(now_ + delay, std::move(fn));
}

void Simulator::run() { run_until(TimeNs::never()); }

void Simulator::run_until(TimeNs t) {
  stopped_ = false;
  while (!stopped_) {
    auto fired = queue_.pop_until(t);
    if (!fired) {
      break;
    }
    now_ = fired->time;
    ++processed_;
    fired->fn();
  }
  if (!stopped_ && t != TimeNs::never() && now_ < t) {
    now_ = t;
  }
}

}  // namespace pmx
