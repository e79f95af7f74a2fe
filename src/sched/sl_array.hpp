#pragma once

#include <cstddef>

#include "common/bitmatrix.hpp"
#include "common/bitvector.hpp"

namespace pmx {

/// One scheduling-logic cell SL(u,v) — Table 2 of the paper.
///
/// Inputs:
///   l     — change request from the pre-scheduling logic (Table 1)
///   b_s   — current state of the connection (u,v) in the slot being
///           scheduled. Table 2 leaves the release/establish distinction
///           implicit (a release always sees A=D=1 *because of its own
///           connection*); the cell needs b_s to tell "release" apart from
///           "establish blocked on both ports", otherwise a blocked
///           establish with A=D=1 would toggle 0->1 and create a conflict.
///   a_in  — output-port availability arriving from the previous row
///           (0 = output v free so far)
///   d_in  — input-port availability arriving from the previous column
///           (0 = input u free so far)
/// Outputs:
///   toggle — T(u,v): flip B(s)[u][v]
///   a_out / d_out — availability propagated onward
struct SlCellOut {
  bool toggle;
  bool a_out;
  bool d_out;
};

[[nodiscard]] SlCellOut sl_cell(bool l, bool b_s, bool a_in, bool d_in);

/// Result of one combinational pass through the whole SL array.
struct SlPassResult {
  BitMatrix toggles;        ///< T matrix: entries of B(s) to flip
  std::size_t establishes;  ///< connections inserted into slot s
  std::size_t releases;     ///< connections removed from slot s
  std::size_t blocked;      ///< requested but a port was already taken
};

/// Evaluate the NxN SL array (Figure 3) for slot configuration `slot_config`
/// and change matrix `l`.
///
/// Availability signals propagate through rows in the rotated order
/// a, a+1, ..., N-1, 0, ..., a-1 and through columns in the order starting
/// at b, mirroring the priority-rotation scheme of Section 4: the wavefront
/// start (a,b) determines which requests see free ports first. AO/AI are
/// derived internally from the slot configuration (column/row ORs).
///
/// This is the word-parallel implementation (it calls sl_array_pass_fast
/// below); sl_array_pass_ref is the gate-accurate cell-by-cell oracle the
/// differential tests compare against. Both produce bit-identical
/// SlPassResults for any `slot_config` that is a partial permutation.
[[nodiscard]] SlPassResult sl_array_pass(const BitMatrix& l,
                                         const BitMatrix& slot_config,
                                         std::size_t a, std::size_t b);

/// Reference oracle: evaluates every SL cell of Figure 3 one at a time,
/// exactly as the hardware wavefront would. O(N^2) sl_cell evaluations --
/// kept for differential testing and as executable documentation of Table 2.
[[nodiscard]] SlPassResult sl_array_pass_ref(const BitMatrix& l,
                                             const BitMatrix& slot_config,
                                             std::size_t a, std::size_t b);

/// Caller-owned storage of sl_array_pass_fast, sized once for n ports and
/// reused across passes, so a pass allocates nothing.
struct SlPassWorkspace {
  explicit SlPassWorkspace(std::size_t n)
      : result{BitMatrix(n), 0, 0, 0}, col_occ(n) {}
  SlPassResult result;
  /// Occupied-column state threaded through the wavefront.
  BitVector col_occ;
};

/// Word-parallel pass with precomputed port-occupancy vectors:
/// `ai` must equal slot_config.row_or() (input-port occupancy AI) and
/// `ao` must equal slot_config.col_or() (output-port occupancy AO).
/// The TDM scheduler maintains these incrementally across passes, so the
/// O(N^2/64) reduction is not repaid on every SL clock.
///
/// Instead of evaluating N cells per row, each requesting row is resolved
/// with word operations: pass-through rows are skipped wholesale, a row
/// whose input port stays busy is popcount-blocked in one step, and the
/// winning establish column is found by a masked find-first-set scan over
/// the request word ANDed with the complement of the occupancy vector.
///
/// The result overwrites `ws.result` (the returned reference), so it is
/// valid until the next pass on the same workspace.
const SlPassResult& sl_array_pass_fast(const BitMatrix& l,
                                       const BitMatrix& slot_config,
                                       const BitVector& ai, const BitVector& ao,
                                       std::size_t a, std::size_t b,
                                       SlPassWorkspace& ws);

}  // namespace pmx
