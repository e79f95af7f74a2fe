#pragma once

#include <bit>
#include <cstddef>
#include <span>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace pmx {

/// Dynamically sized bit vector backed by 64-bit words.
///
/// Used for the scheduler's availability vectors (AO, AI), per-NIC request
/// and grant signals, and the rows of configuration matrices. The hardware
/// these model is plain wires/registers, so the operations here are the
/// bit-parallel equivalents (OR, AND, population count, reductions).
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t size, bool value = false);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const {
    PMX_CHECK(i < size_, "BitVector index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1U;
  }
  void set(std::size_t i, bool value = true) {
    PMX_CHECK(i < size_, "BitVector index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }
  void clear(std::size_t i) { set(i, false); }
  /// In-place toggle of bit i -- one XOR instead of the read-modify-write a
  /// get()+set() pair would cost (the SL array applies toggle matrices on
  /// every scheduling pass, so this is on the hot path).
  void flip(std::size_t i) {
    PMX_CHECK(i < size_, "BitVector index out of range");
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }
  void reset();  ///< Clear all bits.
  void fill();   ///< Set all bits.

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;
  /// True if no bit is set.
  [[nodiscard]] bool none() const;
  /// True if at least one bit is set (the OR-reduction a hardware tree does).
  [[nodiscard]] bool any() const { return !none(); }

  /// Index of the first set bit, or size() when none is set.
  [[nodiscard]] std::size_t find_first() const;
  /// Index of the first set bit at position >= from, or size().
  [[nodiscard]] std::size_t find_next(std::size_t from) const;
  /// Index of the first set bit at or after `from`, wrapping around;
  /// size() when the vector is all zero. Used for round-robin scans.
  [[nodiscard]] std::size_t find_next_wrap(std::size_t from) const;

  /// Masked scan: index of the first bit at position >= `from` that is set
  /// here but clear in `mask`, or size(). Equivalent to
  /// (*this & ~mask).find_next(from) without materializing the temporary --
  /// this is the word-parallel SL array's "first requesting column whose
  /// output port is free" lookup.
  [[nodiscard]] std::size_t find_next_and_not(const BitVector& mask,
                                              std::size_t from) const;

  /// True when (*this & rhs) has at least one set bit, computed word-wise
  /// with early exit.
  [[nodiscard]] bool intersects(const BitVector& rhs) const;

  /// In-place AND with the complement of rhs (this &= ~rhs).
  BitVector& and_not(const BitVector& rhs);

  /// Invoke fn(index) for every set bit in increasing index order, scanning
  /// whole zero words at a time.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      for (std::uint64_t bits = words_[wi]; bits != 0; bits &= bits - 1) {
        fn((wi << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  BitVector& operator|=(const BitVector& rhs);
  BitVector& operator&=(const BitVector& rhs);
  BitVector& operator^=(const BitVector& rhs);
  // `a op= b` is an lvalue: returning it would copy the result out, so the
  // by-value parameter is returned by name and moved.
  friend BitVector operator|(BitVector a, const BitVector& b) {
    a |= b;
    return a;
  }
  friend BitVector operator&(BitVector a, const BitVector& b) {
    a &= b;
    return a;
  }
  friend BitVector operator^(BitVector a, const BitVector& b) {
    a ^= b;
    return a;
  }

  bool operator==(const BitVector& rhs) const = default;

  /// "0"/"1" characters, index 0 first.
  [[nodiscard]] std::string to_string() const;

  /// Raw 64-bit words (low bit = index 0); tail bits beyond size() are zero.
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return words_;
  }

 private:
  friend class BitMatrix;  // BitMatrix::write_row fills rows word by word

  void trim_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pmx
