#include "predictor/rank_fn.hpp"

#include "common/assert.hpp"

namespace pmx {

namespace {

/// Fixed-point scale for decayed frequencies: one use contributes 16
/// units, halved for every elapsed half-life. Integer throughout, so the
/// decayed-frequency policies stay inside the all-integer rank contract.
constexpr std::uint64_t kFreqScale = 16;

/// Shared decay step for the frequency-tracking policies: halve `freq`
/// once per elapsed half-life (cheap shift; >= 64 half-lives clears it),
/// then credit the event. Runs before the engine refreshes last_use, so
/// the elapsed span is the true inter-event gap.
void decay_and_credit(FlowState& s, const EngineView& view, bool is_use,
                      TimeNs half_life) {
  const std::int64_t elapsed = (view.now - s.last_use).ns();
  const std::int64_t steps = elapsed / half_life.ns();
  if (steps >= 64) {
    s.freq = 0;
  } else {
    s.freq >>= static_cast<unsigned>(steps);
  }
  if (is_use) {
    s.freq += kFreqScale;
  }
}

class NoneRank final : public RankFn {
 public:
  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] bool holds() const override { return false; }
  [[nodiscard]] Rank rank(const FlowState&, const EngineView&) const override {
    return 0;
  }
};

class NeverEvictRank final : public RankFn {
 public:
  [[nodiscard]] std::string name() const override { return "never-evict"; }
  [[nodiscard]] Rank rank(const FlowState&, const EngineView&) const override {
    return 0;
  }
};

class TimeoutRank final : public RankFn {
 public:
  explicit TimeoutRank(TimeNs timeout) : timeout_(timeout) {
    PMX_CHECK(timeout_ > TimeNs::zero(), "timeout must be positive");
  }
  [[nodiscard]] std::string name() const override { return "timeout"; }
  /// Rank = the entry's idle deadline; expired once `now` reaches it.
  [[nodiscard]] Rank rank(const FlowState& s,
                          const EngineView&) const override {
    return s.last_use.ns() + timeout_.ns();
  }
  [[nodiscard]] Rank horizon(const EngineView& view) const override {
    return view.now.ns();
  }

 private:
  TimeNs timeout_;
};

class CounterRank final : public RankFn {
 public:
  explicit CounterRank(std::uint64_t threshold) : threshold_(threshold) {
    PMX_CHECK(threshold_ > 0, "threshold must be positive");
  }
  [[nodiscard]] std::string name() const override { return "counter"; }
  /// Rank = the use-epoch at which the entry's counter hits the threshold;
  /// the horizon is the engine's current use-epoch (virtual time).
  [[nodiscard]] Rank rank(const FlowState& s,
                          const EngineView&) const override {
    return static_cast<Rank>(s.last_use_epoch + threshold_);
  }
  [[nodiscard]] Rank horizon(const EngineView& view) const override {
    return static_cast<Rank>(view.use_epoch);
  }

 private:
  std::uint64_t threshold_;
};

class LruRank final : public RankFn {
 public:
  explicit LruRank(std::size_t capacity) : capacity_(capacity) {
    PMX_CHECK(capacity_ > 0, "capacity must be positive");
  }
  [[nodiscard]] std::string name() const override { return "lru"; }
  [[nodiscard]] Rank rank(const FlowState& s,
                          const EngineView&) const override {
    return s.last_use.ns();
  }
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }

 private:
  std::size_t capacity_;
};

class LfuDecayRank final : public RankFn {
 public:
  LfuDecayRank(std::size_t capacity, TimeNs half_life)
      : capacity_(capacity), half_life_(half_life) {
    PMX_CHECK(capacity_ > 0, "capacity must be positive");
    PMX_CHECK(half_life_ > TimeNs::zero(), "half-life must be positive");
  }
  [[nodiscard]] std::string name() const override { return "lfu-decay"; }
  [[nodiscard]] Rank rank(const FlowState& s,
                          const EngineView&) const override {
    return static_cast<Rank>(s.freq);
  }
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }
  void touch(FlowState& s, const EngineView& view, bool is_use) const override {
    decay_and_credit(s, view, is_use, half_life_);
  }

 private:
  std::size_t capacity_;
  TimeNs half_life_;
};

class DeadlineRank final : public RankFn {
 public:
  explicit DeadlineRank(TimeNs lifetime) : lifetime_(lifetime) {
    PMX_CHECK(lifetime_ > TimeNs::zero(), "lifetime must be positive");
  }
  [[nodiscard]] std::string name() const override { return "deadline"; }
  /// Lease semantics: the deadline runs from establish, so a busy
  /// connection is still recycled once its lifetime elapses.
  [[nodiscard]] Rank rank(const FlowState& s,
                          const EngineView&) const override {
    return s.established.ns() + lifetime_.ns();
  }
  [[nodiscard]] Rank horizon(const EngineView& view) const override {
    return view.now.ns();
  }

 private:
  TimeNs lifetime_;
};

class HybridRank final : public RankFn {
 public:
  HybridRank(std::size_t capacity, std::uint64_t weight_recency,
             std::uint64_t weight_frequency, TimeNs recency_quantum,
             TimeNs half_life)
      : capacity_(capacity),
        weight_recency_(weight_recency),
        weight_frequency_(weight_frequency),
        recency_quantum_(recency_quantum),
        half_life_(half_life) {
    PMX_CHECK(capacity_ > 0, "capacity must be positive");
    PMX_CHECK(recency_quantum_ > TimeNs::zero(),
              "recency quantum must be positive");
    PMX_CHECK(half_life_ > TimeNs::zero(), "half-life must be positive");
    PMX_CHECK(weight_recency_ + weight_frequency_ > 0,
              "hybrid weights must be positive");
  }
  [[nodiscard]] std::string name() const override { return "hybrid"; }
  /// Weighted sum of the LRU rank (quantized so frequency can break near
  /// ties in recency) and the decayed-frequency rank. All integer.
  [[nodiscard]] Rank rank(const FlowState& s,
                          const EngineView&) const override {
    const Rank recency = s.last_use.ns() / recency_quantum_.ns();
    return static_cast<Rank>(weight_recency_) * recency +
           static_cast<Rank>(weight_frequency_) * static_cast<Rank>(s.freq);
  }
  [[nodiscard]] std::size_t capacity() const override { return capacity_; }
  void touch(FlowState& s, const EngineView& view, bool is_use) const override {
    decay_and_credit(s, view, is_use, half_life_);
  }

 private:
  std::size_t capacity_;
  std::uint64_t weight_recency_;
  std::uint64_t weight_frequency_;
  TimeNs recency_quantum_;
  TimeNs half_life_;
};

}  // namespace

const std::vector<std::string>& PolicySpec::known_policies() {
  static const std::vector<std::string> kPolicies{
      "none",      "never-evict", "timeout",  "counter", "lru",
      "lfu-decay", "deadline",    "phase",    "hybrid"};
  return kPolicies;
}

PolicySpec PolicySpec::parse(const std::string& token) {
  PolicySpec spec;
  const auto colon = token.find(':');
  spec.policy = token.substr(0, colon);
  if (colon != std::string::npos) {
    const std::string value = token.substr(colon + 1);
    std::size_t pos = 0;
    std::int64_t parsed = 0;
    try {
      parsed = std::stoll(value, &pos);
    } catch (...) {
      pos = 0;
    }
    PMX_CHECK(!value.empty() && pos == value.size(),
              "policy token parameter must be an integer");
    if (spec.policy == "timeout" || spec.policy == "phase") {
      spec.timeout_ns = parsed;
    } else if (spec.policy == "counter") {
      spec.threshold = static_cast<std::uint64_t>(parsed);
    } else if (spec.policy == "lru" || spec.policy == "lfu-decay" ||
               spec.policy == "hybrid") {
      spec.capacity = static_cast<std::uint64_t>(parsed);
    } else if (spec.policy == "deadline") {
      spec.lifetime_ns = parsed;
    } else {
      PMX_CHECK(false, "policy takes no parameter");
    }
  }
  spec.validate();
  return spec;
}

std::string PolicySpec::label() const {
  if (policy == "timeout" || policy == "phase") {
    return policy + "-" + std::to_string(timeout_ns);
  }
  if (policy == "counter") {
    return policy + "-" + std::to_string(threshold);
  }
  if (policy == "lru" || policy == "lfu-decay" || policy == "hybrid") {
    return policy + "-" + std::to_string(capacity);
  }
  if (policy == "deadline") {
    return policy + "-" + std::to_string(lifetime_ns);
  }
  return policy;  // none / never-evict take no parameter
}

void PolicySpec::validate() const {
  bool known = false;
  for (const auto& name : known_policies()) {
    known = known || name == policy;
  }
  PMX_CHECK(known, "unknown policy name");
  if (policy == "timeout" || policy == "phase") {
    PMX_CHECK(timeout_ns > 0, "policy timeout must be positive");
  }
  if (policy == "phase") {
    PMX_CHECK(phase_epoch_ns > 0, "phase epoch must be positive");
    PMX_CHECK(phase_shift_threshold >= 0.0 && phase_shift_threshold <= 1.0,
              "phase shift threshold must be in [0, 1]");
  }
  if (policy == "counter") {
    PMX_CHECK(threshold > 0, "policy threshold must be positive");
  }
  if (policy == "lru" || policy == "lfu-decay" || policy == "hybrid") {
    PMX_CHECK(capacity > 0, "policy capacity must be positive");
  }
  if (policy == "deadline") {
    PMX_CHECK(lifetime_ns > 0, "policy lifetime must be positive");
  }
}

std::unique_ptr<RankFn> make_none_rank() {
  return std::make_unique<NoneRank>();
}

std::unique_ptr<RankFn> make_never_evict_rank() {
  return std::make_unique<NeverEvictRank>();
}

std::unique_ptr<RankFn> make_timeout_rank(TimeNs timeout) {
  return std::make_unique<TimeoutRank>(timeout);
}

std::unique_ptr<RankFn> make_counter_rank(std::uint64_t threshold) {
  return std::make_unique<CounterRank>(threshold);
}

std::unique_ptr<RankFn> make_lru_rank(std::size_t capacity) {
  return std::make_unique<LruRank>(capacity);
}

std::unique_ptr<RankFn> make_lfu_decay_rank(std::size_t capacity,
                                            TimeNs half_life) {
  return std::make_unique<LfuDecayRank>(capacity, half_life);
}

std::unique_ptr<RankFn> make_deadline_rank(TimeNs lifetime) {
  return std::make_unique<DeadlineRank>(lifetime);
}

std::unique_ptr<RankFn> make_hybrid_rank(std::size_t capacity,
                                         std::uint64_t weight_recency,
                                         std::uint64_t weight_frequency,
                                         TimeNs recency_quantum,
                                         TimeNs half_life) {
  return std::make_unique<HybridRank>(capacity, weight_recency,
                                      weight_frequency, recency_quantum,
                                      half_life);
}

// The frequency policies' secondary parameters. No sweep varies them.
constexpr TimeNs kHalfLife{400};  ///< lfu-decay/hybrid: frequency decay
constexpr std::uint64_t kWeightRecency = 1;    ///< hybrid: recency weight
constexpr std::uint64_t kWeightFrequency = 4;  ///< hybrid: frequency weight
constexpr TimeNs kRecencyQuantum{100};  ///< hybrid: recency quantization

std::unique_ptr<RankFn> make_rank_fn(const PolicySpec& spec) {
  spec.validate();
  if (spec.policy == "none") {
    return make_none_rank();
  }
  if (spec.policy == "never-evict") {
    return make_never_evict_rank();
  }
  if (spec.policy == "timeout" || spec.policy == "phase") {
    // Phase-predictive = the timeout rank plus a WorkingSetTracker flush
    // trigger; the tracker is attached by make_policy().
    return make_timeout_rank(TimeNs{spec.timeout_ns});
  }
  if (spec.policy == "counter") {
    return make_counter_rank(spec.threshold);
  }
  if (spec.policy == "lru") {
    return make_lru_rank(spec.capacity);
  }
  if (spec.policy == "lfu-decay") {
    return make_lfu_decay_rank(spec.capacity, kHalfLife);
  }
  if (spec.policy == "deadline") {
    return make_deadline_rank(TimeNs{spec.lifetime_ns});
  }
  return make_hybrid_rank(spec.capacity, kWeightRecency, kWeightFrequency,
                          kRecencyQuantum, kHalfLife);
}

}  // namespace pmx
