#include "sched/tdm_scheduler.hpp"

#include <bit>
#include <cstdint>

#include "common/assert.hpp"
#include "sched/presched.hpp"

namespace pmx {

namespace {

/// Which of one slot's invariants fail.
struct SlotFaults {
  bool double_alloc = false;
  bool ai_diverged = false;
  bool ao_diverged = false;
};

void report_slot(std::size_t s, const SlotFaults& faults,
                 std::vector<std::string>& out) {
  if (faults.double_alloc) {
    out.push_back("slot " + std::to_string(s) +
                  " double-allocates a crosspoint (configuration is not "
                  "a partial permutation)");
  }
  if (faults.ai_diverged) {
    out.push_back("slot " + std::to_string(s) +
                  " AI occupancy cache diverged from its configuration");
  }
  if (faults.ao_diverged) {
    out.push_back("slot " + std::to_string(s) +
                  " AO occupancy cache diverged from its configuration");
  }
}

void report_b_star(std::vector<std::string>& out) {
  out.push_back("B* diverged from the union of the slot configurations");
}

void check_audit_shape(const SlotAuditInput& in) {
  const std::size_t n = in.established.size();
  PMX_CHECK(in.ai.size() == in.slots.size() && in.ao.size() == in.slots.size(),
            "slot audit cache count mismatch");
  for (std::size_t s = 0; s < in.slots.size(); ++s) {
    PMX_CHECK(in.slots[s].size() == n && in.ai[s].size() == n &&
                  in.ao[s].size() == n,
              "slot audit size mismatch");
  }
}

// pmx-hot
SlotFaults scan_slot(const BitMatrix& config, const BitVector& ai,
                     const BitVector& ao) {
  const std::size_t n = config.size();
  SlotFaults faults;
  // Rows: a second set bit in a row -- in the same word, or in another --
  // double-allocates its input port, and the row's OR-reduction is its AI
  // bit, compared 64 rows at a time.
  std::uint64_t ai_word = 0;
  for (std::size_t u = 0; u < n; ++u) {
    bool occupied = false;
    for (const std::uint64_t w : config.row(u).words()) {
      if (w != 0) {
        faults.double_alloc =
            faults.double_alloc || occupied || (w & (w - 1)) != 0;
        occupied = true;
      }
    }
    ai_word |= static_cast<std::uint64_t>(occupied) << (u & 63);
    if ((u & 63) == 63 || u + 1 == n) {
      faults.ai_diverged = faults.ai_diverged || ai_word != ai.words()[u >> 6];
      ai_word = 0;
    }
  }
  // Columns, one word column at a time: a bit already seen in this column
  // double-allocates its output port, and the OR of the column word is AO.
  const auto ao_words = ao.words();
  for (std::size_t wi = 0; wi < ao_words.size(); ++wi) {
    std::uint64_t seen = 0;
    for (std::size_t u = 0; u < n; ++u) {
      const std::uint64_t w = config.row(u).words()[wi];
      faults.double_alloc = faults.double_alloc || (seen & w) != 0;
      seen |= w;
    }
    faults.ao_diverged = faults.ao_diverged || seen != ao_words[wi];
  }
  return faults;
}

// pmx-hot
bool union_matches(const std::vector<BitMatrix>& slots,
                   const BitMatrix& b_star) {
  for (std::size_t u = 0; u < b_star.size(); ++u) {
    const auto want = b_star.row(u).words();
    for (std::size_t wi = 0; wi < want.size(); ++wi) {
      std::uint64_t all = 0;
      for (const BitMatrix& slot : slots) {
        all |= slot.row(u).words()[wi];
      }
      if (all != want[wi]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void audit_invariants_fast(const SlotAuditInput& in,
                           std::vector<std::string>& out) {
  check_audit_shape(in);
  for (std::size_t s = 0; s < in.slots.size(); ++s) {
    report_slot(s, scan_slot(in.slots[s], in.ai[s], in.ao[s]), out);
  }
  if (!union_matches(in.slots, in.established)) {
    report_b_star(out);
  }
}

void audit_invariants_ref(const SlotAuditInput& in,
                          std::vector<std::string>& out) {
  check_audit_shape(in);
  BitMatrix all(in.established.size());
  for (std::size_t s = 0; s < in.slots.size(); ++s) {
    const BitMatrix& config = in.slots[s];
    const SlotFaults faults{.double_alloc = !config.is_partial_permutation(),
                            .ai_diverged = in.ai[s] != config.row_or(),
                            .ao_diverged = in.ao[s] != config.col_or()};
    report_slot(s, faults, out);
    all |= config;
  }
  if (!(all == in.established)) {
    report_b_star(out);
  }
}

TdmScheduler::TdmScheduler(const Options& options)
    : n_(options.num_ports),
      k_(options.num_slots),
      multi_slot_(options.multi_slot_connections),
      skip_unrequested_(options.skip_unrequested_slots),
      requests_(n_),
      holds_(n_),
      down_ports_(n_),
      up_cols_(n_, true),
      usable_(n_),
      slots_(k_, BitMatrix(n_)),
      slot_ai_(k_, BitVector(n_)),
      slot_ao_(k_, BitVector(n_)),
      pinned_(k_, false),
      b_star_(n_),
      zero_(n_),
      pass_ws_(n_),
      r_eff_(n_),
      l_(n_),
      slot_clean_(k_, false) {
  PMX_CHECK(n_ >= 2, "scheduler needs at least two ports");
  PMX_CHECK(k_ >= 1, "scheduler needs at least one slot");
  const BitVector ones(n_, true);
  for (std::size_t u = 0; u < n_; ++u) {
    usable_.set_row(u, ones);
  }
  // A pass changes B* by at most one establish and one release per row.
  result_.established_pairs.reserve(n_);
  result_.released_pairs.reserve(n_);
}

void TdmScheduler::set_request(std::size_t u, std::size_t v, bool value) {
  PMX_CHECK(u < n_ && v < n_, "request port out of range");
  if (requests_.get(u, v) != value) {
    requests_.set(u, v, value);
    mark_all_dirty();
  }
}

void TdmScheduler::mark_all_dirty() {
  std::fill(slot_clean_.begin(), slot_clean_.end(), false);
}

// pmx-hot
void TdmScheduler::apply_toggles(std::size_t s, const BitMatrix& toggles) {
  BitMatrix& config = slots_[s];
  for (std::size_t u = 0; u < n_; ++u) {
    const BitVector& row = toggles.row(u);
    if (row.none()) {
      continue;
    }
    config.row_xor(u, row);
    slot_ao_[s] ^= row;
    if (row.count() % 2 == 1) {
      slot_ai_[s].flip(u);
    }
  }
}

void TdmScheduler::rebuild_slot_occupancy(std::size_t s) {
  slot_ai_[s] = slots_[s].row_or();
  slot_ao_[s] = slots_[s].col_or();
}

void TdmScheduler::preload(std::size_t slot, const BitMatrix& config,
                           bool pinned) {
  PMX_CHECK(slot < k_, "preload slot out of range");
  PMX_CHECK(config.size() == n_, "preload configuration size mismatch");
  PMX_CHECK(config.is_partial_permutation(),
            "preloaded configuration must be a partial permutation");
  slots_[slot] = config;
  pinned_[slot] = pinned;
  rebuild_slot_occupancy(slot);
  rebuild_b_star();
  mark_all_dirty();
}

void TdmScheduler::unload(std::size_t slot) {
  PMX_CHECK(slot < k_, "unload slot out of range");
  slots_[slot].reset();
  slot_ai_[slot].reset();
  slot_ao_[slot].reset();
  pinned_[slot] = false;
  rebuild_b_star();
  mark_all_dirty();
}

std::size_t TdmScheduler::num_pinned() const {
  std::size_t count = 0;
  for (const bool p : pinned_) {
    count += p ? 1U : 0U;
  }
  return count;
}

void TdmScheduler::flush_dynamic() {
  for (std::size_t s = 0; s < k_; ++s) {
    if (!pinned_[s]) {
      slots_[s].reset();
      slot_ai_[s].reset();
      slot_ao_[s].reset();
    }
  }
  holds_.reset();
  rebuild_b_star();
  mark_all_dirty();
  ++stats_.flushes;
}

// pmx-hot
void TdmScheduler::load_effective_requests() {
  // up_cols_ and usable_ are all ones until a port dies or a cell sticks,
  // so the masks apply unconditionally.
  const auto up = up_cols_.words();
  for (std::size_t u = 0; u < n_; ++u) {
    const auto r = requests_.row(u).words();
    const auto h = holds_.row(u).words();
    const auto ok = usable_.row(u).words();
    const std::uint64_t live = down_ports_.get(u) ? 0 : ~std::uint64_t{0};
    r_eff_.write_row(u, [&](std::size_t w) -> std::uint64_t {
      return (r[w] | h[w]) & up[w] & ok[w] & live;
    });
  }
}

void TdmScheduler::force_clear(
    std::size_t u, std::size_t v,
    std::vector<std::pair<std::size_t, std::size_t>>* released) {
  bool was_established = false;
  for (std::size_t s = 0; s < k_; ++s) {
    if (slots_[s].get(u, v)) {
      slots_[s].set(u, v, false);
      // Partial permutation: (u, v) was the only connection on either port
      // in this slot, so clearing it frees both occupancy bits.
      slot_ai_[s].clear(u);
      slot_ao_[s].clear(v);
      was_established = true;
    }
  }
  if (was_established) {
    ++stats_.forced_releases;
    if (released != nullptr) {
      released->emplace_back(u, v);
    }
  }
}

std::vector<std::pair<std::size_t, std::size_t>> TdmScheduler::set_port_fault(
    std::size_t port, bool down) {
  PMX_CHECK(port < n_, "fault port out of range");
  std::vector<std::pair<std::size_t, std::size_t>> released;
  if (down_ports_.get(port) == down) {
    return released;  // no edge
  }
  down_ports_.set(port, down);
  up_cols_.set(port, !down);
  if (down) {
    // Force-release every established connection whose input or output
    // port just died -- reusing the flush machinery's bookkeeping so the
    // slots are reclaimed immediately.
    for (std::size_t v = 0; v < n_; ++v) {
      if (v != port && b_star_.get(port, v)) {
        force_clear(port, v, &released);
      }
      if (v != port && b_star_.get(v, port)) {
        force_clear(v, port, &released);
      }
    }
    rebuild_b_star();
  }
  mark_all_dirty();
  return released;
}

bool TdmScheduler::set_stuck_cell(std::size_t u, std::size_t v) {
  PMX_CHECK(u < n_ && v < n_ && u != v, "invalid stuck cell");
  usable_.set(u, v, false);
  bool released = false;
  if (b_star_.get(u, v)) {
    force_clear(u, v, nullptr);
    rebuild_b_star();
    released = true;
  }
  mark_all_dirty();
  return released;
}

std::optional<std::size_t> TdmScheduler::next_unpinned_slot() {
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t s = (sl_cursor_ + i) % k_;
    if (!pinned_[s]) {
      sl_cursor_ = (s + 1) % k_;
      return s;
    }
  }
  return std::nullopt;
}

// pmx-hot
const TdmScheduler::PassResult& TdmScheduler::run_pass() {
  PassResult& result = result_;
  result.slot = next_unpinned_slot();
  result.establishes = 0;
  result.releases = 0;
  result.blocked = 0;
  result.established_pairs.clear();
  result.released_pairs.clear();
  if (!result.slot) {
    return result;  // every slot is pinned: nothing to schedule dynamically
  }
  const std::size_t s = *result.slot;

  if (slot_clean_[s]) {
    // Provably quiescent: the hardware pass would produce an all-zero T.
    ++stats_.passes_elided;
    return result;
  }

  load_effective_requests();
  preschedule_into(r_eff_, b_star_, slots_[s], l_);
  const std::size_t origin = priority_origin_;

  bool touched = false;
  if (l_.any()) {
    const SlPassResult& pass = sl_array_pass_fast(
        l_, slots_[s], slot_ai_[s], slot_ao_[s], origin, origin, pass_ws_);
    apply_toggles(s, pass.toggles);
    result.establishes = pass.establishes;
    result.releases = pass.releases;
    result.blocked = pass.blocked;
    touched = pass.establishes + pass.releases != 0;
  }

  if (multi_slot_) {
    // Extension 2: replicate already-established, still-requested
    // connections into this slot's idle ports for extra bandwidth. L2 =
    // R_eff & B* & ~B(s) overwrites L; B* is still the union from before
    // the pass, B(s) includes the first pass's toggles.
    for (std::size_t u = 0; u < n_; ++u) {
      const auto r = r_eff_.row(u).words();
      const auto bstar = b_star_.row(u).words();
      const auto bs = slots_[s].row(u).words();
      l_.write_row(u, [&](std::size_t w) -> std::uint64_t {
        return r[w] & bstar[w] & ~bs[w];
      });
    }
    if (l_.any()) {
      const SlPassResult& dup = sl_array_pass_fast(
          l_, slots_[s], slot_ai_[s], slot_ao_[s], origin, origin, pass_ws_);
      apply_toggles(s, dup.toggles);
      result.establishes += dup.establishes;
      touched = touched || dup.establishes != 0;
      PMX_CHECK(dup.releases == 0, "duplication pass cannot release");
    }
  }

  if (touched) {
    PMX_CHECK(!scan_slot(slots_[s], slot_ai_[s], slot_ao_[s]).double_alloc,
              "SL pass corrupted slot configuration");
    // B* feeds every slot's pre-scheduling logic. Its changes are the
    // network-level membership changes the predictor is told about.
    rebuild_b_star(&result);
    mark_all_dirty();
  } else {
    slot_clean_[s] = true;
  }

  priority_origin_ = (priority_origin_ + 1) % n_;

  ++stats_.passes;
  stats_.establishes += result.establishes;
  stats_.releases += result.releases;
  stats_.blocked += result.blocked;
  return result;
}

// pmx-hot
std::optional<std::size_t> TdmScheduler::advance_slot() {
  ++stats_.slot_advances;
  const std::size_t start = current_slot_ ? (*current_slot_ + 1) % k_ : 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t s = (start + i) % k_;
    const bool live = skip_unrequested_ ? slots_[s].intersects(requests_)
                                        : slots_[s].any();
    if (live) {
      current_slot_ = s;
      stats_.slots_skipped += i;
      return s;
    }
  }
  stats_.slots_skipped += k_;
  current_slot_ = std::nullopt;
  return std::nullopt;
}

const BitMatrix& TdmScheduler::config(std::size_t slot) const {
  PMX_CHECK(slot < k_, "slot out of range");
  return slots_[slot];
}

const BitMatrix& TdmScheduler::active_config() const {
  return current_slot_ ? slots_[*current_slot_] : zero_;
}

bool TdmScheduler::grant(std::size_t u, std::size_t v) const {
  return active_config().get(u, v);
}

std::optional<std::size_t> TdmScheduler::granted_output(std::size_t u) const {
  const std::size_t v = active_config().row(u).find_first();
  if (v < n_) {
    return v;
  }
  return std::nullopt;
}

std::size_t TdmScheduler::live_mux_degree() const {
  std::size_t degree = 0;
  for (const auto& slot : slots_) {
    degree += slot.any() ? 1U : 0U;
  }
  return degree;
}

std::vector<std::size_t> TdmScheduler::slots_of(std::size_t u,
                                                std::size_t v) const {
  std::vector<std::size_t> result;
  for (std::size_t s = 0; s < k_; ++s) {
    if (slots_[s].get(u, v)) {
      result.push_back(s);
    }
  }
  return result;
}

// pmx-hot
void TdmScheduler::rebuild_b_star(PassResult* changes) {
  for (std::size_t u = 0; u < n_; ++u) {
    const auto before = b_star_.row(u).words();
    b_star_.write_row(u, [&](std::size_t w) -> std::uint64_t {
      std::uint64_t all = 0;
      for (const BitMatrix& slot : slots_) {
        all |= slot.row(u).words()[w];
      }
      // write_row stores word w after this returns, so before[w] is still
      // the old B* word here.
      if (changes != nullptr) {
        for (std::uint64_t flips = all ^ before[w]; flips != 0;
             flips &= flips - 1) {
          const int bit = std::countr_zero(flips);
          const std::size_t v = (w << 6) + static_cast<std::size_t>(bit);
          if (((all >> bit) & 1U) != 0) {
            changes->established_pairs.emplace_back(u, v);
          } else {
            changes->released_pairs.emplace_back(u, v);
          }
        }
      }
      return all;
    });
  }
}

}  // namespace pmx
