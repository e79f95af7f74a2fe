#include "fabric/omega.hpp"

#include <bit>

#include "common/assert.hpp"

namespace pmx {

OmegaNetwork::Slot::Slot(const OmegaNetwork& omega)
    : omega_(&omega), used_(omega.stages(), BitVector(omega.size())) {}

bool OmegaNetwork::Slot::admits(const Conn& c) const {
  std::size_t line = c.src;
  for (std::size_t s = 0; s < used_.size(); ++s) {
    line = omega_->next_line(line, c.dst, s);
    if (used_[s].get(line)) {
      return false;
    }
  }
  return true;
}

void OmegaNetwork::Slot::add(const Conn& c) {
  std::size_t line = c.src;
  for (std::size_t s = 0; s < used_.size(); ++s) {
    line = omega_->next_line(line, c.dst, s);
    used_[s].set(line);
  }
}

OmegaNetwork::OmegaNetwork(std::size_t n)
    : n_(n), stages_(static_cast<std::size_t>(std::countr_zero(n))) {
  PMX_CHECK(n >= 2 && std::has_single_bit(n),
            "Omega network size must be a power of two");
}

std::size_t OmegaNetwork::next_line(std::size_t line, std::size_t dst,
                                    std::size_t stage) const {
  // Destination-tag self-routing: before each stage the lines are
  // perfect-shuffled (rotate-left of the line index), then the 2x2 switch
  // outputs the line whose LSB is the destination bit consumed at that
  // stage (MSB first).
  return ((line << 1) & (n_ - 1)) | ((dst >> (stages_ - 1 - stage)) & 1);
}

std::size_t OmegaNetwork::line_after_stage(std::size_t src, std::size_t dst,
                                           std::size_t stage) const {
  PMX_CHECK(src < n_ && dst < n_, "port out of range");
  PMX_CHECK(stage < stages_, "stage out of range");
  return route(src, dst)[stage];
}

std::vector<std::size_t> OmegaNetwork::route(std::size_t src,
                                             std::size_t dst) const {
  std::vector<std::size_t> lines(stages_);
  std::size_t line = src;
  for (std::size_t s = 0; s < stages_; ++s) {
    line = next_line(line, dst, s);
    lines[s] = line;
  }
  PMX_CHECK(lines.back() == dst, "destination-tag routing must end at dst");
  return lines;
}

bool OmegaNetwork::conflict(const Conn& a, const Conn& b) const {
  Slot slot(*this);
  slot.add(a);
  return !slot.admits(b);
}

bool OmegaNetwork::routable(const BitMatrix& config) const {
  PMX_CHECK(config.size() == n_, "configuration size mismatch");
  PMX_CHECK(config.is_partial_permutation(),
            "Omega routability is checked on top of the crossbar constraint");
  Slot slot(*this);
  for (std::size_t u = 0; u < n_; ++u) {
    const Conn c{u, config.row(u).find_first()};
    if (c.dst >= n_) {
      continue;
    }
    if (!slot.admits(c)) {
      return false;
    }
    slot.add(c);
  }
  return true;
}

}  // namespace pmx
