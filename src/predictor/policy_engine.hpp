#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "predictor/predictor.hpp"
#include "predictor/rank_fn.hpp"
#include "predictor/working_set.hpp"

namespace pmx {

/// PIFO-style policy engine: the single priority-queue core behind every
/// eviction policy. Tracks one FlowState per live (src, dst) connection and
/// keeps a lazy binary min-heap of (rank, conn) keys; the pluggable RankFn
/// decides what the rank means (see rank_fn.hpp for the contract).
///
/// Storage: the FlowStates sit in a packed vector, reached through a dense
/// pair index (a sparse set): erasing an entry moves the last one into its
/// place, so touches, releases and evictions neither hash nor allocate once
/// the vector, the index and the heap have grown to the working set. The
/// index covers the largest port seen so far, rounded up to a multiple of
/// 64, and is rebuilt from the packed entries when a larger port appears.
///
/// Laziness: establish/use events push a fresh key instead of re-heapifying
/// (stale copies are skipped at pop time by comparing the stored key with
/// the recomputed rank), and releases leave their keys behind. The heap is
/// compacted once it grows well past the tracked set, so memory stays
/// O(tracked) amortized.
///
/// Determinism: the heap comparator totally orders entries by
/// (rank, src, dst), so the pop sequence -- and therefore every eviction
/// batch -- is a pure function of the event history, independent of the
/// packed order, heap layout, or thread count. Eviction batches are
/// additionally sorted by (src, dst) before being returned, preserving the
/// pre-engine unhold order contract.
///
/// The engine also mirrors the scheduler's hold latches (on_hold /
/// believes_held): every network path that unlatches a hold reaches the
/// predictor (evict batch, release, fault force-release, flush), so the
/// mirror must stay bit-identical to the scheduler's hold matrix. The slot
/// auditor cross-checks exactly that.
class PolicyEngine final : public Predictor {
 public:
  /// `name` is the policy's public name (it may differ from the rank's,
  /// e.g. "phase" runs the timeout rank plus a WorkingSetTracker).
  /// `tracker`, when present, drives recommend_flush() from working-set
  /// phase shifts. `idle_ttl`, when positive, expires entries idle that
  /// long regardless of rank -- the drain-time safety valve for pure
  /// capacity policies (make_policy's kIdleTtl).
  PolicyEngine(std::string name, std::unique_ptr<RankFn> rank,
               std::unique_ptr<WorkingSetTracker> tracker = nullptr,
               TimeNs idle_ttl = TimeNs{0});

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool should_hold(const Conn&) const override {
    return rank_->holds();
  }

  void on_establish(const Conn& c, TimeNs now) override;
  void on_use(const Conn& c, TimeNs now) override;
  void on_release(const Conn& c, TimeNs now) override;
  [[nodiscard]] std::vector<Conn> collect_evictions(TimeNs now) override;
  void on_flush() override;
  [[nodiscard]] bool recommend_flush(TimeNs now) override;

  void on_hold(const Conn& c, TimeNs now) override;
  [[nodiscard]] bool mirrors_holds() const override { return true; }
  [[nodiscard]] std::size_t held_count() const override { return held_; }
  [[nodiscard]] bool believes_held(const Conn& c) const override {
    const std::uint32_t i = find(c);
    return i != kAbsent && entries_[i].held;
  }

  // --- Introspection (tests, auditor, benches) ---------------------------
  [[nodiscard]] std::size_t tracked() const { return entries_.size(); }
  [[nodiscard]] bool is_tracked(const Conn& c) const {
    return find(c) != kAbsent;
  }
  [[nodiscard]] const RankFn& rank_fn() const { return *rank_; }
  [[nodiscard]] std::uint64_t use_epoch() const { return use_epoch_; }
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  [[nodiscard]] const WorkingSetTracker* tracker() const {
    return tracker_.get();
  }

 private:
  /// One tracked connection: its flow state plus the hold-mirror flag.
  struct Entry {
    FlowState state;
    bool held = false;  ///< mirror of the scheduler's hold latch
  };
  /// Heap key: the rank at push time plus the identity tie-breaker.
  struct HeapEntry {
    Rank key;
    Conn conn;
  };
  /// Index value of an untracked pair.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  [[nodiscard]] EngineView view(TimeNs now) const {
    return EngineView{now, use_epoch_, entries_.size()};
  }
  /// Position of `c` in entries_, or kAbsent.
  [[nodiscard]] std::uint32_t find(const Conn& c) const {
    return c.src < ports_ && c.dst < ports_ ? index_[c.src * ports_ + c.dst]
                                            : kAbsent;
  }
  /// `c`'s index slot. Precondition: both ports below ports_.
  std::uint32_t& index_slot(const Conn& c) {
    return index_[c.src * ports_ + c.dst];
  }
  /// Start tracking `s.conn` (untracked) as `s`; returns its position.
  std::uint32_t insert(const FlowState& s);
  /// Stop tracking the entry at position `i`: the last entry moves into it.
  void erase_at(std::uint32_t i);
  /// Stop tracking `c` if it is tracked.
  void erase(const Conn& c);
  /// Widen the pair index to cover `port`, re-indexing every entry.
  void grow_index(NodeId port);
  enum class Event { kEstablish, kUse, kHold };
  /// Returns the position of `c`'s entry.
  std::uint32_t upsert(const Conn& c, TimeNs now, Event event);
  void push_key(const Conn& c, const FlowState& s, const EngineView& v);
  /// Pop heap entries until the front is live (its key matches the entry's
  /// current rank); returns false when the heap ran empty.
  bool settle_front(const EngineView& v);
  void compact_if_oversized(const EngineView& v);

  std::string name_;
  std::unique_ptr<RankFn> rank_;
  std::unique_ptr<WorkingSetTracker> tracker_;
  TimeNs idle_ttl_{0};  ///< 0 = disabled
  std::vector<Entry> entries_;         ///< packed, in no particular order
  std::vector<std::uint32_t> index_;   ///< (src, dst) -> entries_ position
  std::size_t ports_ = 0;              ///< index_ is ports_ x ports_
  std::size_t held_ = 0;               ///< entries with the held flag set
  std::vector<HeapEntry> heap_;
  std::vector<Conn> evict_;  ///< collect_evictions' batch scratch
  std::uint64_t use_epoch_ = 0;  ///< total on_use events engine-wide
};

/// Assemble the full predictor a PolicySpec describes (rank function plus,
/// for the phase policy, its WorkingSetTracker).
std::unique_ptr<Predictor> make_policy(const PolicySpec& spec);

}  // namespace pmx
