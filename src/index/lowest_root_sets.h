#ifndef DISC_INDEX_LOWEST_ROOT_SETS_H_
#define DISC_INDEX_LOWEST_ROOT_SETS_H_

#include <cstddef>
#include <numeric>
#include <vector>

namespace disc {

/// Union-find over the rows [0, n) whose root is always the lowest row of
/// its set: Union links the larger root under the smaller, and Find halves
/// the path it walks. The sets — hence every root — depend only on which
/// pairs were joined, never on the order they were joined in. The state of
/// NeighborIndex::CoreComponents, one per call.
class LowestRootSets {
 public:
  explicit LowestRootSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t Find(std::size_t row) {
    while (parent_[row] != row) {
      parent_[row] = parent_[parent_[row]];
      row = parent_[row];
    }
    return row;
  }

  /// Joins the sets of `a` and `b`; false when they were already one.
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
    return true;
  }

  /// Every row's root, indexed by row.
  std::vector<std::size_t> Roots() {
    std::vector<std::size_t> roots(parent_.size());
    for (std::size_t row = 0; row < roots.size(); ++row) roots[row] = Find(row);
    return roots;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace disc

#endif  // DISC_INDEX_LOWEST_ROOT_SETS_H_
