#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pmx {

/// Named counter set attached to simulation components; dumped at the end of
/// a run. Every bump is a `counter("name")` lookup in a string-keyed map,
/// and some call sites bump once per granted port per slot, so lookups are
/// on the hot path.
class CounterSet {
 public:
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] std::uint64_t value(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace pmx
