#include "common/stats.hpp"

namespace pmx {

std::uint64_t& CounterSet::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    return it->second;
  }
  return counters_.emplace(std::string(name), 0).first->second;
}

std::uint64_t CounterSet::value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

}  // namespace pmx
