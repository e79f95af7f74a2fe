#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/message.hpp"
#include "common/time.hpp"

namespace pmx {

/// Per-connection bookkeeping maintained by the PolicyEngine and exposed to
/// rank functions. The generic fields (times, epochs, use counts) are
/// updated by the engine on every event; `freq` is policy-owned scratch
/// state written through RankFn::touch (decayed-frequency policies).
struct FlowState {
  Conn conn{};
  TimeNs established{};          ///< time of the last establish event
  TimeNs last_use{};             ///< time of the last establish/use event
  std::uint64_t uses = 0;        ///< on_use events on this connection
  std::uint64_t last_use_epoch = 0;  ///< engine use-epoch at the last touch
  std::uint64_t freq = 0;        ///< policy scratch (decayed frequency)
};

/// Engine-wide state snapshot passed to rank functions.
struct EngineView {
  TimeNs now{};                ///< event / collection time
  std::uint64_t use_epoch = 0;  ///< total on_use events engine-wide
  std::size_t tracked = 0;     ///< connections currently tracked
};

/// Integer rank. Smaller ranks evict first. Ties are broken by (src, dst),
/// so eviction order is a deterministic function of the tracked set.
using Rank = std::int64_t;

/// Sentinel horizon: no entry ever expires by deadline (rank() is required
/// to return values strictly greater than this).
inline constexpr Rank kNoHorizon = std::numeric_limits<Rank>::min();

/// PIFO-style rank function (Sivaraman et al.): a policy is a pure mapping
/// from per-flow state to an integer rank over a shared priority-queue
/// core. The engine evicts in two ways, both driven by rank():
///
///   deadline expiry  -- every entry with rank(s) <= horizon(view) is
///                       evicted at collection time (timeout/counter/
///                       deadline policies encode their deadline as the
///                       rank and advance the horizon with virtual time);
///   capacity overflow-- when capacity() > 0 and more entries are tracked,
///                       the lowest-ranked entries are evicted until the
///                       tracked set fits (LRU/LFU/hybrid policies).
///
/// Determinism contract: rank() must be a pure function of the FlowState
/// (it must NOT read EngineView::now or ::use_epoch -- time-varying urgency
/// belongs in horizon(), which is compared against the rank). Ranks are
/// integers only; pmx-lint's float rule keeps it that way. A rank may
/// change only on touch events (establish/use), which is when the engine
/// re-inserts the entry into its queue.
class RankFn {
 public:
  virtual ~RankFn() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Latch connections past the drop of their request signal at all?
  /// (Section 4 extension 3; `false` reproduces the pure reactive system.)
  [[nodiscard]] virtual bool holds() const { return true; }

  /// The entry's rank; smaller evicts first. See the class contract.
  [[nodiscard]] virtual Rank rank(const FlowState& s,
                                  const EngineView& view) const = 0;

  /// Entries with rank <= horizon are expired. kNoHorizon disables
  /// deadline expiry (pure capacity policies).
  [[nodiscard]] virtual Rank horizon(const EngineView& view) const {
    (void)view;
    return kNoHorizon;
  }

  /// Tracked-set capacity; 0 = unlimited.
  [[nodiscard]] virtual std::size_t capacity() const { return 0; }

  /// Policy hook on establish/use events, called *before* the engine
  /// updates the generic FlowState fields, so stateful ranks (decayed
  /// frequency) see the previous last_use/epoch while updating `s.freq`.
  virtual void touch(FlowState& s, const EngineView& view, bool is_use) const {
    (void)s;
    (void)view;
    (void)is_use;
  }
};

/// Policy selection plus every policy parameter, as one sweepable config
/// value. Bench sweep axes name a policy and its primary knob with a
/// compact `name[:value]` token (parse()); every other parameter keeps the
/// default below unless code sets it.
struct PolicySpec {
  std::string policy = "timeout";

  std::int64_t timeout_ns = 200;      ///< timeout/phase: idle horizon
  std::uint64_t threshold = 8;        ///< counter: network-wide uses
  std::uint64_t capacity = 16;        ///< lru/lfu-decay/hybrid: tracked cap
  std::int64_t lifetime_ns = 1000;    ///< deadline: lease from establish
  std::int64_t phase_epoch_ns = 1000;  ///< phase: working-set epoch
  double phase_shift_threshold = 0.25;  ///< phase: Jaccard flush threshold

  /// Policies selectable by name.
  [[nodiscard]] static const std::vector<std::string>& known_policies();

  /// Parse a compact `name[:value]` token (bench sweep axes), where the
  /// optional value sets the policy's primary knob: timeout/phase -> the
  /// idle horizon in ns, counter -> the threshold, lru/lfu-decay/hybrid ->
  /// the capacity, deadline -> the lifetime in ns.
  [[nodiscard]] static PolicySpec parse(const std::string& token);

  /// Short display label, e.g. "timeout-200", "lru-16", "hybrid-8".
  [[nodiscard]] std::string label() const;

  /// Abort on unknown policy names or non-positive parameters.
  void validate() const;
};

// --- Rank-function factories ------------------------------------------------

/// Pure reactive: never hold, never evict.
std::unique_ptr<RankFn> make_none_rank();
/// Hold everything forever (upper bound on working-set size).
std::unique_ptr<RankFn> make_never_evict_rank();
/// The paper's experimental predictor: evict after `timeout` idle time.
std::unique_ptr<RankFn> make_timeout_rank(TimeNs timeout);
/// Section 3.2 alternative: evict after `threshold` network-wide uses.
std::unique_ptr<RankFn> make_counter_rank(std::uint64_t threshold);
/// Least-recently-used beyond a tracked-set capacity.
std::unique_ptr<RankFn> make_lru_rank(std::size_t capacity);
/// Least-frequently-used with exponential decay, beyond a capacity.
std::unique_ptr<RankFn> make_lfu_decay_rank(std::size_t capacity,
                                            TimeNs half_life);
/// Lease-style: evict `lifetime` after establish regardless of use.
std::unique_ptr<RankFn> make_deadline_rank(TimeNs lifetime);
/// Weighted composition of the LRU and LFU-decay ranks over one capacity.
std::unique_ptr<RankFn> make_hybrid_rank(std::size_t capacity,
                                         std::uint64_t weight_recency,
                                         std::uint64_t weight_frequency,
                                         TimeNs recency_quantum,
                                         TimeNs half_life);

/// Build the rank function a PolicySpec names (validates the spec).
std::unique_ptr<RankFn> make_rank_fn(const PolicySpec& spec);

}  // namespace pmx
