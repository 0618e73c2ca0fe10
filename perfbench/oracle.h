// Brute-force answers for the benchmark's correctness checks. Nothing here
// uses the PH-tree: points stay in a plain array, with one order of the
// point ids per dimension sorted by that coordinate. A box query scans the
// slab of whichever dimension's order has the fewest points inside the
// box's range there; kNN expands outward along dimension 0.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phtree/phtree.h"

namespace perfbench {

/// Order-preserving encoding of a double point into a PH-tree key.
phtree::PhKey Encode(std::span<const double> point);

/// Squared Euclidean distance accumulated over dimensions 0..k-1, the
/// same expression the library's kL2Double kNN metric uses, so results
/// compare bit for bit.
double Dist2(std::span<const double> a, std::span<const double> b);

/// A static point set; point i has payload i.
class BruteIndex {
 public:
  BruteIndex(uint32_t dim, std::span<const double> coords);

  /// Payload of the point equal to `p`, if any.
  std::optional<uint64_t> Find(std::span<const double> p) const;

  /// Number of points in the closed box [lo, hi].
  size_t CountBox(std::span<const double> lo,
                  std::span<const double> hi) const;

  /// Payloads of the points in the closed box [lo, hi], ascending.
  std::vector<uint32_t> IdsInBox(std::span<const double> lo,
                                 std::span<const double> hi) const;

  /// The `k` smallest squared distances from `center`, ascending.
  std::vector<double> KnnDist2(std::span<const double> center,
                               size_t k) const;

 private:
  /// Point ids sorted by one coordinate, with that coordinate alongside.
  struct Axis {
    std::vector<uint32_t> ids;
    std::vector<double> keys;
    size_t FirstAtLeast(double x) const;
  };

  std::span<const double> Point(uint32_t id) const {
    return {coords_.data() + size_t{id} * dim_, dim_};
  }
  template <typename Fn>
  void ScanBox(std::span<const double> lo, std::span<const double> hi,
               Fn&& fn) const;

  uint32_t dim_;
  std::vector<double> coords_;  ///< row-major, by id
  std::vector<Axis> axes_;      ///< one per dimension
};

/// Order-independent digest of a key -> payload multiset, to compare a
/// tree's full content with a model without sorting either.
struct ContentDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xor_ = 0;

  void Add(std::span<const uint64_t> key, uint64_t value);
  bool operator==(const ContentDigest&) const = default;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
