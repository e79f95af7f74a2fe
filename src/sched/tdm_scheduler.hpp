#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmatrix.hpp"
#include "sched/sl_array.hpp"

namespace pmx {

/// Inputs of the slot-invariant audit: the K configuration registers, their
/// incrementally maintained AI/AO occupancy caches, and B*.
struct SlotAuditInput {
  const std::vector<BitMatrix>& slots;
  const std::vector<BitVector>& ai;
  const std::vector<BitVector>& ao;
  const BitMatrix& established;  ///< B*
};

/// The slot-invariant audit. For each slot in ascending order it appends
/// one line when the configuration double-allocates a crosspoint (is not a
/// partial permutation), one when the AI cache differs from the row ORs,
/// and one when the AO cache differs from the column ORs; a last line when
/// B* is not the union of the slots. The word-parallel kernel reads each
/// configuration word once per check and allocates nothing unless it
/// reports.
void audit_invariants_fast(const SlotAuditInput& in,
                           std::vector<std::string>& out);
/// Reference oracle: the same audit through BitMatrix::is_partial_permutation,
/// row_or, col_or and a union matrix, kept for the differential tests.
void audit_invariants_ref(const SlotAuditInput& in,
                          std::vector<std::string>& out);

/// Aggregate counters maintained by the scheduler.
struct SchedulerStats {
  /// SL-array evaluations. A pass elided by the quiescence memo returns
  /// before this count (see passes_elided), and so does a pass that finds
  /// every slot pinned: neither is counted here.
  std::uint64_t passes = 0;
  std::uint64_t establishes = 0;    ///< connections inserted
  std::uint64_t releases = 0;       ///< connections removed
  std::uint64_t blocked = 0;        ///< change requests that found no ports
  std::uint64_t slot_advances = 0;  ///< TDM counter increments
  std::uint64_t slots_skipped = 0;  ///< empty configurations skipped
  std::uint64_t flushes = 0;        ///< flush-dynamic commands served
  /// Connections force-released because their link died or their SL cell
  /// is stuck (degraded-mode operation, not normal scheduling).
  std::uint64_t forced_releases = 0;
  /// Passes elided because the slot was quiescent (its previous pass made
  /// no change and no scheduler input has changed since) -- a simulator
  /// optimization, not hardware behaviour: the hardware would evaluate the
  /// combinational array and produce the same all-zero T matrix.
  std::uint64_t passes_elided = 0;
};

/// The TDM connection scheduler of Section 4 (Figure 2).
///
/// Maintains K configuration registers B^(0)..B^(K-1) plus the aggregate
/// B* = B^(0) | ... | B^(K-1). NICs raise request bits R[u][v]; every SL
/// clock the scheduler runs one combinational pass (pre-scheduling logic +
/// SL array) against one slot, inserting newly requested connections and
/// releasing ones that are no longer requested. Every time-slot clock the
/// TDM counter advances to the next non-empty configuration (empty slots are
/// skipped, which is how the effective multiplexing degree shrinks).
///
/// Extensions from Section 4 that are implemented:
///  2. multi-slot connections — when enabled, a request that is already
///     realized may be inserted into additional slots if ports are idle,
///     increasing that connection's bandwidth share;
///  3. request latches ("holds") — a hold keeps a connection established
///     after the NIC drops its request; predictors drive hold/unhold;
///  4. flush — clears every unpinned slot (compiler phase-boundary hint);
///  5. preload — load a predefined configuration into a specific slot,
///     optionally pinning it so dynamic scheduling cannot alter it.
class TdmScheduler {
 public:
  struct Options {
    std::size_t num_ports = 0;
    std::size_t num_slots = 1;  ///< K, the maximum multiplexing degree
    bool multi_slot_connections = false;  ///< Section 4 extension 2
    /// TDM-counter refinement: besides all-zero configurations (Section 4),
    /// also skip slots none of whose connections has a pending request --
    /// the scheduler already holds both B(s) and R, so this is one extra
    /// AND/OR-reduction of existing signals. Held-but-idle and preloaded-
    /// but-idle connections then cost no slot time.
    bool skip_unrequested_slots = false;
  };

  explicit TdmScheduler(const Options& options);

  [[nodiscard]] std::size_t num_ports() const { return n_; }
  [[nodiscard]] std::size_t num_slots() const { return k_; }

  // --- Request interface (NIC side) -------------------------------------
  void set_request(std::size_t u, std::size_t v, bool value);
  [[nodiscard]] bool request(std::size_t u, std::size_t v) const {
    return requests_.get(u, v);
  }
  [[nodiscard]] const BitMatrix& requests() const { return requests_; }

  // --- Hold latches (extension 3, driven by predictors) ------------------
  void hold(std::size_t u, std::size_t v) {
    if (!holds_.get(u, v)) {
      holds_.set(u, v);
      mark_all_dirty();
    }
  }
  void unhold(std::size_t u, std::size_t v) {
    if (holds_.get(u, v)) {
      holds_.set(u, v, false);
      mark_all_dirty();
    }
  }
  [[nodiscard]] bool held(std::size_t u, std::size_t v) const {
    return holds_.get(u, v);
  }
  /// The full hold matrix (slot-auditor cross-check against the
  /// predictor's hold mirror).
  [[nodiscard]] const BitMatrix& holds() const { return holds_; }

  // --- Compiled communication (extension 5) ------------------------------
  /// Load a predefined configuration into `slot`. A pinned slot is excluded
  /// from dynamic scheduling passes. The configuration must be a partial
  /// permutation.
  void preload(std::size_t slot, const BitMatrix& config, bool pinned = true);
  /// Clear a slot and unpin it.
  void unload(std::size_t slot);
  [[nodiscard]] bool pinned(std::size_t slot) const { return pinned_[slot]; }
  [[nodiscard]] std::size_t num_pinned() const;

  /// Extension 4: clear every unpinned configuration (and all holds).
  void flush_dynamic();

  // --- Degraded-mode operation (fault tolerance) --------------------------
  /// Mark port `p`'s link down or repaired. Going down masks row p and
  /// column p out of every scheduling pass and force-releases established
  /// connections on the dead link from every slot (pinned included --
  /// the fabric cannot drive a dead cable); the released (u, v) pairs are
  /// returned so predictors can evict them. Repair just unmasks: pending
  /// requests re-establish on the next passes.
  std::vector<std::pair<std::size_t, std::size_t>> set_port_fault(
      std::size_t port, bool down);
  [[nodiscard]] bool port_failed(std::size_t port) const {
    return down_ports_.get(port);
  }
  /// Model SL cell (u, v) stuck at zero: the cell can never toggle, so the
  /// connection cannot be established (or released) reactively. If the
  /// connection is currently established it is force-released. Preloading
  /// still works -- configuration registers are written directly, bypassing
  /// the SL array. Returns true when a live connection was released.
  bool set_stuck_cell(std::size_t u, std::size_t v);
  [[nodiscard]] bool cell_stuck(std::size_t u, std::size_t v) const {
    return !usable_.get(u, v);
  }

  // --- Scheduling pass (SL clock edge) ------------------------------------
  struct PassResult {
    std::optional<std::size_t> slot;  ///< slot scheduled, nullopt if none
    std::size_t establishes = 0;
    std::size_t releases = 0;
    std::size_t blocked = 0;
    /// Connections that entered/left the network as a whole (B* changes),
    /// for predictor bookkeeping. A multi-slot duplicate insertion or a
    /// release of one replica of a multi-slot connection does not appear
    /// here.
    std::vector<std::pair<std::size_t, std::size_t>> established_pairs;
    std::vector<std::pair<std::size_t, std::size_t>> released_pairs;
  };
  /// Run one SL-array pass against the next unpinned slot (round robin).
  /// The result lives in the scheduler, like SlPassWorkspace::result: it is
  /// valid until the next pass, which overwrites it. A pass allocates
  /// nothing.
  const PassResult& run_pass();

  // --- TDM rotation (time-slot clock edge) --------------------------------
  /// Advance the TDM counter to the next non-empty slot (with
  /// skip_unrequested_slots: next slot with a requested connection).
  /// Returns the new active slot, or nullopt when every configuration is
  /// empty (fabric idles). Pinned and dynamic slots rotate together.
  std::optional<std::size_t> advance_slot();
  [[nodiscard]] std::optional<std::size_t> current_slot() const {
    return current_slot_;
  }

  // --- State inspection ----------------------------------------------------
  [[nodiscard]] const BitMatrix& config(std::size_t slot) const;
  /// Configuration driving the fabric right now (all-zero when idle).
  [[nodiscard]] const BitMatrix& active_config() const;
  /// B*: every connection established in any slot.
  [[nodiscard]] const BitMatrix& established() const { return b_star_; }
  [[nodiscard]] bool is_established(std::size_t u, std::size_t v) const {
    return b_star_.get(u, v);
  }
  /// Grant signal G[u][v]: connection (u,v) is live in the active slot.
  [[nodiscard]] bool grant(std::size_t u, std::size_t v) const;
  /// Output granted to input u in the active slot, if any.
  [[nodiscard]] std::optional<std::size_t> granted_output(std::size_t u) const;

  /// Number of currently non-empty slots (the live multiplexing degree).
  [[nodiscard]] std::size_t live_mux_degree() const;
  /// Slots in which connection (u,v) is realized.
  [[nodiscard]] std::vector<std::size_t> slots_of(std::size_t u,
                                                  std::size_t v) const;

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }

  /// Slot-auditor hook: verify every configuration is a partial permutation
  /// (no crosspoint double-allocation), the incrementally maintained AI/AO
  /// occupancy caches match their configurations (XOR-parity bookkeeping),
  /// and B* equals the union of the slots. Appends one line per violation.
  void audit_invariants(std::vector<std::string>& out) const {
    audit_invariants_fast(audit_input(), out);
  }
  /// The invariant audit's inputs, live.
  [[nodiscard]] SlotAuditInput audit_input() const {
    return {slots_, slot_ai_, slot_ao_, b_star_};
  }

 private:
  /// B* = the union of the slots, rebuilt a word at a time. With `changes`,
  /// each entry that flips is appended, in row-major order, to its
  /// established_pairs (0 -> 1) or released_pairs (1 -> 0).
  void rebuild_b_star(PassResult* changes = nullptr);
  /// Flip the toggled entries of slot `s` word-wise and update its cached
  /// AI/AO occupancy vectors incrementally (XOR parity: in a partial
  /// permutation every row/column holds 0 or 1 connections, so a row or
  /// column is occupied after the pass iff its occupancy XOR'd with the
  /// parity of its toggle count is 1).
  void apply_toggles(std::size_t s, const BitMatrix& toggles);
  /// Recompute slot `s`'s cached AI/AO from scratch (preload/unload paths).
  void rebuild_slot_occupancy(std::size_t s);
  [[nodiscard]] std::optional<std::size_t> next_unpinned_slot();
  /// Write the effective request matrix of a scheduling pass into r_eff_:
  /// (R | holds) with the rows and columns of dead ports and the stuck
  /// cells masked out.
  void load_effective_requests();
  /// Clear (u, v) from every slot; appends the pair to `released` when it
  /// was established. Caller rebuilds B* and marks dirty.
  void force_clear(std::size_t u, std::size_t v,
                   std::vector<std::pair<std::size_t, std::size_t>>* released);

  std::size_t n_;
  std::size_t k_;
  bool multi_slot_;
  bool skip_unrequested_;

  BitMatrix requests_;
  BitMatrix holds_;
  BitVector down_ports_;  ///< ports whose link is currently dead
  BitVector up_cols_;     ///< complement of down_ports_ (column mask)
  BitMatrix usable_;      ///< all-ones minus stuck SL cells
  std::vector<BitMatrix> slots_;
  /// Cached per-slot occupancy reductions, maintained incrementally:
  /// slot_ai_[s] == slots_[s].row_or() and slot_ao_[s] == slots_[s].col_or()
  /// at all times. Seeds every SL pass without an O(N^2/64) recomputation.
  std::vector<BitVector> slot_ai_;
  std::vector<BitVector> slot_ao_;
  std::vector<bool> pinned_;
  BitMatrix b_star_;
  BitMatrix zero_;
  /// Storage of every scheduling pass, sized at construction and
  /// overwritten by each pass: the SL array's workspace, R_eff, L (which the
  /// multi-slot pass reuses for its L2), and the returned result, whose pair
  /// lists hold their worst case of N each.
  SlPassWorkspace pass_ws_;
  BitMatrix r_eff_;
  BitMatrix l_;
  PassResult result_;

  /// Quiescence memo: slot_clean_[s] means the last pass on s produced no
  /// toggles and no request/hold/configuration input has changed since, so
  /// re-evaluating the SL array would provably produce no change.
  void mark_all_dirty();
  std::vector<bool> slot_clean_;

  std::optional<std::size_t> current_slot_;
  std::size_t sl_cursor_ = 0;        ///< round-robin slot selector (SL counter)
  std::size_t priority_origin_ = 0;  ///< rotating wavefront origin (a == b)

  SchedulerStats stats_;
};

}  // namespace pmx
