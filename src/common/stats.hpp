#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace pmx {

/// Named counter set attached to simulation components; dumped at the end of
/// a run. Every bump is a `counter("name")` lookup in a string-keyed map.
/// The map's comparator is transparent, so a lookup builds no std::string;
/// only the first bump of a name allocates its node. Per-slot paths tally in
/// locals and bump once per slot.
class CounterSet {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  /// The named counter, created at 0 on first use.
  std::uint64_t& counter(std::string_view name);
  /// The named counter's value; 0 if it was never bumped.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  /// Every counter ever bumped, in name order.
  [[nodiscard]] const Map& all() const { return counters_; }

 private:
  Map counters_;
};

}  // namespace pmx
