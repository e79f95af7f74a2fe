#include "common/stats.hpp"

namespace pmx {

std::uint64_t CounterSet::value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

}  // namespace pmx
