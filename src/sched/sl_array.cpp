#include "sched/sl_array.hpp"

#include <utility>

#include "common/assert.hpp"

namespace pmx {

SlCellOut sl_cell(bool l, bool b_s, bool a_in, bool d_in) {
  if (!l) {
    return {false, a_in, d_in};  // row 1 of Table 2: pass through
  }
  if (b_s) {
    // Release: the connection (u,v) itself holds both ports, so a_in and
    // d_in are necessarily 1 here; releasing frees them for later cells.
    PMX_CHECK(a_in && d_in, "release cell must see both ports occupied");
    return {true, false, false};  // row 2: release, free the ports
  }
  if (!a_in && !d_in) {
    return {true, true, true};  // row 5: establish, occupy the ports
  }
  return {false, a_in, d_in};  // rows 3-4: blocked, resources unavailable
}

SlPassResult sl_array_pass_ref(const BitMatrix& l,
                               const BitMatrix& slot_config, std::size_t a,
                               std::size_t b) {
  const std::size_t n = l.size();
  PMX_CHECK(slot_config.size() == n, "SL array matrix size mismatch");
  PMX_CHECK(a < n && b < n, "priority rotation origin out of range");

  SlPassResult result{BitMatrix(n), 0, 0, 0};

  // A_{0,v} = AO_v (output-port occupancy), D_{u,0} = AI_u (input-port
  // occupancy) in rotated coordinates: the wavefront starts at row a /
  // column b and wraps. AO is one column reduction of the configuration,
  // not N separate col_any probes.
  BitVector col_avail = slot_config.col_or();

  for (std::size_t du = 0; du < n; ++du) {
    const std::size_t u = (a + du) % n;
    if (l.row(u).none()) {
      // Every cell in this row is the Table-2 pass-through case: the
      // availability signals cross it unchanged, so skip it wholesale.
      continue;
    }
    bool row_avail = slot_config.row_any(u);  // AI_u
    for (std::size_t dv = 0; dv < n; ++dv) {
      const std::size_t v = (b + dv) % n;
      const SlCellOut out = sl_cell(l.get(u, v), slot_config.get(u, v),
                                    col_avail.get(v), row_avail);
      if (out.toggle) {
        result.toggles.set(u, v);
        if (slot_config.get(u, v)) {
          ++result.releases;
        } else {
          ++result.establishes;
        }
      } else if (l.get(u, v)) {
        ++result.blocked;
      }
      col_avail.set(v, out.a_out);
      row_avail = out.d_out;
    }
  }
  return result;
}

// pmx-hot
const SlPassResult& sl_array_pass_fast(const BitMatrix& l,
                                       const BitMatrix& slot_config,
                                       const BitVector& ai, const BitVector& ao,
                                       std::size_t a, std::size_t b,
                                       SlPassWorkspace& ws) {
  const std::size_t n = l.size();
  PMX_CHECK(slot_config.size() == n, "SL array matrix size mismatch");
  PMX_CHECK(ai.size() == n && ao.size() == n,
            "SL array occupancy vector size mismatch");
  PMX_CHECK(ws.result.toggles.size() == n && ws.col_occ.size() == n,
            "SL array workspace size mismatch");
  PMX_CHECK(a < n && b < n, "priority rotation origin out of range");

  SlPassResult& result = ws.result;
  result.toggles.reset();
  result.establishes = 0;
  result.releases = 0;
  result.blocked = 0;
  // Occupied-column state threaded through the wavefront, seeded from the
  // caller-maintained AO reduction. 1 = output port taken so far. Same-size
  // copy assignment reuses the workspace's words.
  BitVector& col_occ = ws.col_occ;
  col_occ = ao;

  for (std::size_t du = 0; du < n; ++du) {
    const std::size_t u = (a + du) % n;
    const BitVector& row_l = l.row(u);
    if (row_l.none()) {
      continue;  // pass-through row: availability crosses it unchanged
    }
    const BitVector& slot_row = slot_config.row(u);
    const bool row_occ = ai.get(u);  // AI_u: input port already driving?

    if (!row_occ) {
      // Input port free and (partial permutation) no connection to release
      // in this row: the first change request in rotated column order whose
      // output port is free establishes; every other request is blocked.
      const std::size_t requests = row_l.count();
      std::size_t win = row_l.find_next_and_not(col_occ, b);
      if (win >= n) {
        const std::size_t wrapped = row_l.find_next_and_not(col_occ, 0);
        win = wrapped < b ? wrapped : n;
      }
      if (win < n) {
        result.toggles.set(u, win);
        ++result.establishes;
        col_occ.set(win);
        result.blocked += requests - 1;
      } else {
        result.blocked += requests;
      }
      continue;
    }

    if (!row_l.intersects(slot_row)) {
      // Input port busy and its connection is not being released this pass:
      // every change request in the row is blocked on D, no state changes.
      result.blocked += row_l.count();
      continue;
    }

    // Release path (rare: at most one row per pass releases in a valid
    // configuration). Walk only the set bits of L in rotated order; each
    // step is the exact Table-2 cell on the threaded availability state.
    bool row_busy = true;
    const auto cell = [&](std::size_t v) {
      const bool col_busy = col_occ.get(v);
      if (slot_row.get(v)) {
        PMX_CHECK(col_busy && row_busy,
                  "release cell must see both ports occupied");
        result.toggles.set(u, v);
        ++result.releases;
        col_occ.clear(v);
        row_busy = false;
      } else if (!col_busy && !row_busy) {
        result.toggles.set(u, v);
        ++result.establishes;
        col_occ.set(v);
        row_busy = true;
      } else {
        ++result.blocked;
      }
    };
    for (std::size_t v = row_l.find_next(b); v < n;
         v = row_l.find_next(v + 1)) {
      cell(v);
    }
    for (std::size_t v = row_l.find_first(); v < b;
         v = row_l.find_next(v + 1)) {
      cell(v);
    }
  }
  return result;
}

SlPassResult sl_array_pass(const BitMatrix& l, const BitMatrix& slot_config,
                           std::size_t a, std::size_t b) {
  SlPassWorkspace ws(l.size());
  sl_array_pass_fast(l, slot_config, slot_config.row_or(),
                     slot_config.col_or(), a, b, ws);
  return std::move(ws.result);
}

}  // namespace pmx
