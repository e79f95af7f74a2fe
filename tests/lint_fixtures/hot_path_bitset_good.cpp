// Good: the hot kernel reads bitsets through references and word spans and
// threads its state through caller-owned scratch sized once, up front; a
// same-size copy assignment into that scratch reuses its words. Only the
// cold constructor builds owning bitsets and reductions.
#include <cstddef>
#include <cstdint>

#include "common/bitmatrix.hpp"

namespace pmx {

class PortScan {
 public:
  explicit PortScan(const BitMatrix& config)
      : occupied_(config.size()), ai_(config.row_or()) {}

  // pmx-hot
  std::size_t busy_ports(const BitMatrix& config, const BitVector& ao) {
    occupied_ = ao;
    std::size_t hits = 0;
    for (std::size_t u = 0; u < config.size(); ++u) {
      const BitVector& row = config.row(u);
      if (row.intersects(occupied_) && ai_.get(u)) {
        ++hits;
      }
      for (const std::uint64_t w : row.words()) {
        hits += w != 0 ? 1 : 0;
      }
    }
    return hits;
  }

 private:
  BitVector occupied_;
  BitVector ai_;
};

}  // namespace pmx
