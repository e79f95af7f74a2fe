#include "common/bitmatrix.hpp"

namespace pmx {

BitMatrix::BitMatrix(std::size_t n) : n_(n), rows_(n, BitVector(n)) {}

void BitMatrix::reset() {
  for (auto& r : rows_) {
    r.reset();
  }
}

void BitMatrix::set_row(std::size_t u, const BitVector& r) {
  PMX_CHECK(u < n_ && r.size() == n_, "BitMatrix::set_row shape mismatch");
  rows_[u] = r;
}

void BitMatrix::row_xor(std::size_t u, const BitVector& r) {
  PMX_CHECK(u < n_ && r.size() == n_, "BitMatrix::row_xor shape mismatch");
  rows_[u] ^= r;
}

std::size_t BitMatrix::count() const {
  std::size_t total = 0;
  for (const auto& r : rows_) {
    total += r.count();
  }
  return total;
}

bool BitMatrix::none() const {
  for (const auto& r : rows_) {
    if (r.any()) {
      return false;
    }
  }
  return true;
}

bool BitMatrix::intersects(const BitMatrix& rhs) const {
  PMX_CHECK(n_ == rhs.n_, "BitMatrix size mismatch in intersects");
  for (std::size_t u = 0; u < n_; ++u) {
    if (rows_[u].intersects(rhs.rows_[u])) {
      return true;
    }
  }
  return false;
}

bool BitMatrix::col_any(std::size_t v) const {
  for (const auto& r : rows_) {
    if (r.get(v)) {
      return true;
    }
  }
  return false;
}

BitVector BitMatrix::row_or() const {
  BitVector ai(n_);
  for (std::size_t u = 0; u < n_; ++u) {
    ai.set(u, rows_[u].any());
  }
  return ai;
}

BitVector BitMatrix::col_or() const {
  BitVector ao(n_);
  for (const auto& r : rows_) {
    ao |= r;
  }
  return ao;
}

bool BitMatrix::is_partial_permutation() const {
  BitVector seen_cols(n_);
  for (const auto& r : rows_) {
    if (r.count() > 1) {
      return false;
    }
    const std::size_t v = r.find_first();
    if (v < n_) {
      if (seen_cols.get(v)) {
        return false;
      }
      seen_cols.set(v);
    }
  }
  return true;
}

BitMatrix& BitMatrix::operator|=(const BitMatrix& rhs) {
  PMX_CHECK(n_ == rhs.n_, "BitMatrix size mismatch in |=");
  for (std::size_t u = 0; u < n_; ++u) {
    rows_[u] |= rhs.rows_[u];
  }
  return *this;
}

BitMatrix& BitMatrix::operator&=(const BitMatrix& rhs) {
  PMX_CHECK(n_ == rhs.n_, "BitMatrix size mismatch in &=");
  for (std::size_t u = 0; u < n_; ++u) {
    rows_[u] &= rhs.rows_[u];
  }
  return *this;
}

std::string BitMatrix::to_string() const {
  std::string s;
  s.reserve(n_ * (n_ + 1));
  for (const auto& r : rows_) {
    s += r.to_string();
    s += '\n';
  }
  return s;
}

}  // namespace pmx
