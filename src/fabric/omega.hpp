#pragma once

#include <cstddef>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/bitvector.hpp"
#include "common/message.hpp"

namespace pmx {

/// Omega multistage interconnection network model.
///
/// Section 4 notes that the passive fabric "can represent a crossbar
/// interconnection, a multistage fabric, a fat tree organization ..." and
/// that "more complicated constraints may be derived for fabrics that have
/// limited permutation capabilities (e.g. multistage networks)". This class
/// derives those constraints for the classic Omega network: log2(N) stages
/// of 2x2 switches with a perfect shuffle between stages, destination-tag
/// (self-routing) paths.
///
/// A configuration is realizable exactly when no two connections share an
/// internal line at any stage. Because the Omega network is blocking, a
/// partial permutation that a crossbar realizes in one slot may need
/// several slots here -- decompose_greedy(omega, conns) computes such a
/// slot assignment and quantifies the multiplexing-degree cost of the
/// cheaper fabric.
class OmegaNetwork {
 public:
  /// The Omega constraint of one configuration: the internal lines its
  /// connections occupy, stage by stage. The crossbar's port constraint is
  /// the caller's to check. Must not outlive the network it was made for.
  class Slot {
   public:
    explicit Slot(const OmegaNetwork& omega);

    /// True when none of `c`'s internal lines is taken.
    [[nodiscard]] bool admits(const Conn& c) const;
    /// Occupy `c`'s internal lines.
    void add(const Conn& c);

   private:
    const OmegaNetwork* omega_;
    std::vector<BitVector> used_;  ///< per stage: lines occupied
  };

  /// `n` must be a power of two (>= 2).
  explicit OmegaNetwork(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t stages() const { return stages_; }

  /// The internal line (0..n-1) occupied by connection (src,dst) entering
  /// stage `s+1`; i.e. after s+1 shuffle+switch steps, s in [0, stages).
  [[nodiscard]] std::size_t line_after_stage(std::size_t src, std::size_t dst,
                                             std::size_t stage) const;

  /// Full per-stage line trace for one connection (length == stages()).
  [[nodiscard]] std::vector<std::size_t> route(std::size_t src,
                                               std::size_t dst) const;

  /// True when the two connections share a line at some stage. The last
  /// stage's line is the destination, so identical destinations always
  /// conflict.
  [[nodiscard]] bool conflict(const Conn& a, const Conn& b) const;

  /// True when every pair of connections in `config` is conflict-free.
  /// `config` must be a partial permutation (crossbar-feasible); this
  /// checks the *additional* Omega constraint.
  [[nodiscard]] bool routable(const BitMatrix& config) const;

 private:
  /// The line a connection to `dst` leaves stage `stage` on, having entered
  /// it on `line`.
  [[nodiscard]] std::size_t next_line(std::size_t line, std::size_t dst,
                                      std::size_t stage) const;

  std::size_t n_;
  std::size_t stages_;
};

}  // namespace pmx
