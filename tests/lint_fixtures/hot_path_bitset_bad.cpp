// Bad: a `// pmx-hot` kernel over owning bitsets that allocates on every
// call without a single `new`. Each of the five lines marked below builds
// fresh words -- a by-value BitMatrix, a BitVector copy, a BitVector
// temporary, a row_or() and a col_or() reduction -- and must trip
// hot-path-alloc. The identical cold() twin carries no annotation and must
// not be flagged.
#include <cstddef>

#include "common/bitmatrix.hpp"

namespace pmx {

// pmx-hot
std::size_t busy_ports(const BitMatrix& config, const BitVector& ao) {
  BitMatrix scratch(config.size());               // by-value declaration
  BitVector occupied = ao;                        // copy
  occupied |= BitVector(ao.size(), true);         // temporary
  const std::size_t rows = config.row_or().count();  // reduction
  const std::size_t cols = config.col_or().count();  // reduction
  return rows + cols + scratch.count() + occupied.count();
}

std::size_t cold(const BitMatrix& config, const BitVector& ao) {
  BitMatrix scratch(config.size());
  BitVector occupied = ao;
  occupied |= BitVector(ao.size(), true);
  const std::size_t rows = config.row_or().count();
  const std::size_t cols = config.col_or().count();
  return rows + cols + scratch.count() + occupied.count();
}

}  // namespace pmx
