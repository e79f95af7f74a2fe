#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/bitvector.hpp"

namespace pmx {

/// Square Boolean matrix, the paper's representation of requests (R),
/// configurations (B^(s)) and the established-connection aggregate (B*).
///
/// B[u][v] == 1 means "input port u drives output port v" (configuration) or
/// "NIC u requests a connection to NIC v" (request matrix). Rows are stored
/// as BitVectors so the scheduler's row/column OR-reductions (the AI/AO
/// availability vectors of Section 4) are single bit-parallel passes.
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] bool get(std::size_t u, std::size_t v) const {
    return rows_[u].get(v);
  }
  void set(std::size_t u, std::size_t v, bool value = true) {
    rows_[u].set(v, value);
  }
  void toggle(std::size_t u, std::size_t v) { rows_[u].flip(v); }
  void reset();

  [[nodiscard]] const BitVector& row(std::size_t u) const { return rows_[u]; }
  void set_row(std::size_t u, const BitVector& r);
  /// Overwrite row u in place, a word at a time: word w of the row becomes
  /// fn(w) for every w, and the bits past size() in the last word are
  /// cleared. The row keeps its size and can hold no bit past N, and no
  /// word keeps a value from before the call.
  template <typename Fn>
  void write_row(std::size_t u, Fn&& fn) {
    PMX_CHECK(u < n_, "BitMatrix::write_row row out of range");
    BitVector& row = rows_[u];
    for (std::size_t w = 0; w < row.words_.size(); ++w) {
      row.words_[w] = fn(w);
    }
    row.trim_tail();
  }
  /// XOR `r` into row u word-wise -- applies a whole row of an SL toggle
  /// matrix in one bit-parallel pass.
  void row_xor(std::size_t u, const BitVector& r);

  /// Number of set entries.
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool none() const;
  [[nodiscard]] bool any() const { return !none(); }
  /// True when (*this & rhs) has at least one set entry: one row-wise
  /// BitVector::intersects per row with early exit, no temporary matrix.
  [[nodiscard]] bool intersects(const BitMatrix& rhs) const;

  /// OR-reduction of row u — AI_u in the paper: 1 iff input u is in use.
  [[nodiscard]] bool row_any(std::size_t u) const { return rows_[u].any(); }
  /// OR-reduction of column v — AO_v in the paper: 1 iff output v is in use.
  [[nodiscard]] bool col_any(std::size_t v) const;

  /// Vector of row reductions: AI_u for all u.
  [[nodiscard]] BitVector row_or() const;
  /// Vector of column reductions: AO_v for all v.
  [[nodiscard]] BitVector col_or() const;

  /// True when every row and every column has at most one set bit —
  /// the crossbar constraint on a configuration matrix (Section 4).
  [[nodiscard]] bool is_partial_permutation() const;

  /// Bit-wise OR (the paper's B* = B^(0) + ... + B^(K-1)).
  BitMatrix& operator|=(const BitMatrix& rhs);
  friend BitMatrix operator|(BitMatrix a, const BitMatrix& b) {
    a |= b;
    return a;
  }
  BitMatrix& operator&=(const BitMatrix& rhs);
  friend BitMatrix operator&(BitMatrix a, const BitMatrix& b) {
    a &= b;
    return a;
  }

  bool operator==(const BitMatrix& rhs) const = default;

  /// Multi-line dump, one row per line, for debugging and golden tests.
  [[nodiscard]] std::string to_string() const;

 private:
  std::size_t n_ = 0;
  std::vector<BitVector> rows_;
};

}  // namespace pmx
