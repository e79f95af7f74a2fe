#include "fabric/fattree.hpp"

#include "common/assert.hpp"

namespace pmx {

FatTree::Slot::Slot(const FatTree& tree)
    : tree_(&tree), up_(tree.num_leaves(), 0), down_(tree.num_leaves(), 0) {}

bool FatTree::Slot::admits(const Conn& c) const {
  return tree_->is_local(c) ||
         (up_[tree_->leaf_of(c.src)] < tree_->num_spines() &&
          down_[tree_->leaf_of(c.dst)] < tree_->num_spines());
}

void FatTree::Slot::add(const Conn& c) {
  if (!tree_->is_local(c)) {
    ++up_[tree_->leaf_of(c.src)];
    ++down_[tree_->leaf_of(c.dst)];
  }
}

FatTree::FatTree(std::size_t num_leaves, std::size_t leaf_ports,
                 std::size_t num_spines)
    : num_leaves_(num_leaves),
      leaf_ports_(leaf_ports),
      num_spines_(num_spines) {
  PMX_CHECK(num_leaves_ >= 1 && leaf_ports_ >= 1 && num_spines_ >= 1,
            "degenerate fat tree");
}

bool FatTree::routable(const BitMatrix& config) const {
  PMX_CHECK(config.size() == size(), "configuration size mismatch");
  PMX_CHECK(config.is_partial_permutation(),
            "fat-tree routability is checked on top of the crossbar "
            "constraint");
  Slot slot(*this);
  for (std::size_t u = 0; u < size(); ++u) {
    const Conn c{u, config.row(u).find_first()};
    if (c.dst >= size()) {
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
