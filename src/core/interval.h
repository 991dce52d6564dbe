// Intervals over the target namespace and the paper's binary interval tree.
//
// Section 2.1: "imagine a binary tree in which each vertex is labeled with
// an interval; the root is labeled [1, n]. For a vertex labeled I = [l, r]
// with more than one integer, the left child is bot(I) = [l, floor((l+r)/2)]
// and the right child is top(I) = [floor((l+r)/2)+1, r]."
//
// Interval is a small regular value type; every protocol that halves
// intervals (the crash-resilient renaming and both interval-halving
// baselines) uses exactly these operations.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.h"

namespace renaming {

struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  constexpr Interval() = default;
  constexpr Interval(std::uint64_t l, std::uint64_t h) : lo(l), hi(h) {
    RENAMING_CHECK(l <= h, "interval endpoints out of order");
  }

  constexpr std::uint64_t size() const { return hi - lo + 1; }
  constexpr bool singleton() const { return lo == hi; }
  constexpr bool contains(std::uint64_t x) const { return lo <= x && x <= hi; }
  constexpr bool subset_of(const Interval& other) const {
    return other.lo <= lo && hi <= other.hi;
  }
  constexpr bool disjoint_from(const Interval& other) const {
    return hi < other.lo || other.hi < lo;
  }

  /// Left child in the interval tree: [l, floor((l+r)/2)].
  constexpr Interval bot() const {
    RENAMING_CHECK(!singleton(), "a singleton interval has no children");
    return Interval(lo, lo + (hi - lo) / 2);
  }

  /// Right child in the interval tree: [floor((l+r)/2)+1, r].
  constexpr Interval top() const {
    RENAMING_CHECK(!singleton(), "a singleton interval has no children");
    return Interval(lo + (hi - lo) / 2 + 1, hi);
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;

  std::string to_string() const {
    // Appended, not `"[" + std::string`: GCC 12's -Wrestrict misfires on
    // the front insertion that operator+(const char*, string&&) inlines.
    std::string s = "[";
    s += std::to_string(lo);
    s += ',';
    s += std::to_string(hi);
    s += ']';
    return s;
  }
};

/// Depth of interval `leaf_of` inside the tree rooted at `root`, or the
/// number of halvings needed to go from `root` to an interval; used only by
/// tests to validate the d_v bookkeeping of the crash algorithm.
inline std::uint32_t tree_depth(Interval root, const Interval& target) {
  std::uint32_t d = 0;
  while (root != target) {
    RENAMING_CHECK(!root.singleton(), "target is not inside this tree");
    root = target.subset_of(root.bot()) ? root.bot() : root.top();
    ++d;
  }
  return d;
}

}  // namespace renaming
