// k-nearest-neighbour search over a PH-tree. The paper lists NN search as a
// desirable extension whose prototype "indicates that such searches can be
// performed efficiently" (Sect. 5); this module implements it as best-first
// search: a priority queue holds nodes (keyed by the minimum distance of
// their region to the query point) and points (keyed by their exact
// distance), and results are emitted whenever a point reaches the front —
// the standard optimal branch-and-bound traversal.
#ifndef PHTREE_PHTREE_KNN_H_
#define PHTREE_PHTREE_KNN_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "phtree/phtree.h"

namespace phtree {

/// One kNN result: entry key, payload, squared distance.
struct KnnResult {
  PhKey key;
  uint64_t value;
  double dist2;
};

/// Distance semantics for kNN over integer keys.
enum class KnnMetric {
  /// Squared Euclidean distance on the raw uint64 coordinates.
  kL2Integer,
  /// Squared Euclidean distance after decoding coordinates as doubles
  /// (SortableBitsToDouble); use for PhTreeD-encoded trees.
  kL2Double,
};

/// Returns the `n` entries of `tree` closest to `center`, ordered by
/// ascending distance; exact distance ties are broken deterministically by
/// the z-order of the keys, so the result sequence is a pure function of
/// the tree contents (the sharded fan-out reproduces it exactly). Only
/// entries with dist2 <= `max_dist2` qualify: the result is the unbounded
/// one cut after its last entry within the bound, exact ties kept. Returns
/// fewer than `n` results iff fewer entries qualify.
std::vector<KnnResult> KnnSearch(
    const PhTree& tree, std::span<const uint64_t> center, size_t n,
    KnnMetric metric = KnnMetric::kL2Integer,
    double max_dist2 = std::numeric_limits<double>::infinity());

/// Convenience overload for double-encoded trees: converts `center`, uses
/// the kL2Double metric and decodes nothing (result keys stay encoded).
std::vector<KnnResult> KnnSearchD(const PhTree& tree,
                                  std::span<const double> center, size_t n);

}  // namespace phtree

#endif  // PHTREE_PHTREE_KNN_H_
