#pragma once

#include "common/bitmatrix.hpp"

namespace pmx {

/// Pre-scheduling logic (Table 1 of the paper).
///
/// Compares the request matrix R, the aggregate of established connections
/// B* (OR of all slot configurations), and the configuration of the slot
/// currently being scheduled B^(s), and emits the "change needed" matrix L:
///
///   L[u][v] = 1  when the connection (u,v) is realized in slot s but no
///                longer requested (should be released), or requested but not
///                realized in any slot (should be established);
///   L[u][v] = 0  otherwise.
///
/// The truth table (X = don't care):
///   R=0, B(s)=0          -> L=0   not requested, not in this slot
///   R=0, B(s)=1          -> L=1   release from this slot
///   R=1, B*=1            -> L=0   already realized in some slot
///   R=1, B*=0, B(s)=0    -> L=1   establish in this slot
/// (R=1, B*=0, B(s)=1 cannot occur because B(s) is a subset of B*.)
///
/// This is the word-parallel form the scheduler runs: it writes every word
/// of `out` as (~R & B(s)) | (R & ~B*), so nothing `out` held before the
/// call survives, and allocates nothing. All four matrices must be n x n.
void preschedule_into(const BitMatrix& requests, const BitMatrix& established,
                      const BitMatrix& slot_config, BitMatrix& out);

/// Reference oracle: L built one cell at a time through preschedule_cell,
/// kept for the differential tests and as executable documentation of
/// Table 1.
[[nodiscard]] BitMatrix preschedule_ref(const BitMatrix& requests,
                                        const BitMatrix& established,
                                        const BitMatrix& slot_config);

/// Single-cell version, exposed so tests can exercise each Table-1 row.
[[nodiscard]] bool preschedule_cell(bool r, bool b_star, bool b_s);

}  // namespace pmx
