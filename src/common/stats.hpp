#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace pmx {

/// Named counter set attached to simulation components; dumped at the end of
/// a run. A bump is a `counter("name")` lookup in a string-keyed map. The
/// map's comparator is transparent, so a lookup builds no std::string; only
/// the first bump of a name allocates its node. Per-slot paths tally in
/// locals and bump once per slot. Per-message paths bump through a `Slot`
/// the caller holds: the first bump binds it to the name's node, and later
/// bumps go straight through it with no lookup. Map nodes never move, so the
/// binding stays valid as other names are added.
class CounterSet {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  /// A caller-held handle to one named counter; the name is not copied, so
  /// it must outlive the slot (a string literal does). Like a plain name, a
  /// slot names nothing in all() until its first bump. Once bound it points
  /// into the CounterSet that bound it, so it must be bumped through that
  /// set only and must not outlive it; it cannot be copied, which keeps the
  /// object holding it from being copied away from that set.
  class Slot {
   public:
    explicit Slot(std::string_view name) : name_(name) {}
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    friend class CounterSet;
    std::string_view name_;
    std::uint64_t* value_ = nullptr;
  };

  /// The named counter, created at 0 on first use.
  std::uint64_t& counter(std::string_view name);
  /// The slot's counter: counter(name) on the first call, which binds the
  /// slot, and one load after that.
  std::uint64_t& counter(Slot& slot) {
    if (slot.value_ == nullptr) {
      slot.value_ = &counter(slot.name_);
    }
    return *slot.value_;
  }
  /// The named counter's value; 0 if it was never bumped.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  /// Every counter ever bumped, in name order.
  [[nodiscard]] const Map& all() const { return counters_; }

 private:
  Map counters_;
};

}  // namespace pmx
