// Shard routing table of PhTreeSharded (internal; see sharded.h and
// DESIGN.md "Shard routing"). Maps a key to one of S shards by S-1
// ascending z-order split keys: shard s owns the z-range between split s-1
// and split s. It also holds each range's exact cover by aligned boxes (the
// z-blocks of the range), so query clipping and kNN shard pruning are
// exact.
#ifndef PHTREE_PHTREE_SHARD_ROUTING_H_
#define PHTREE_PHTREE_SHARD_ROUTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "phtree/knn.h"
#include "phtree/phtree.h"

namespace phtree {

/// Immutable once built. Split keys and cover boxes are stored flat, `dim`
/// words per key.
class RoutingTable {
 public:
  /// Prefix splits: shard s owns the keys whose top log2(S) z-bits are s.
  /// `shards` is a power of two.
  static RoutingTable Prefix(uint32_t dim, uint32_t shards);

  /// Splits at the z-order quantiles of a deterministic sample of at most
  /// 64k of `entries` (at least `shards` of them). Each split is the
  /// shortest z-prefix (zero-padded) above the sample key before the
  /// quantile and not above the quantile key.
  static RoutingTable Quantiles(uint32_t dim, uint32_t shards,
                                std::span<const PhEntry> entries);

  uint32_t ShardOf(std::span<const uint64_t> key) const;

  /// True iff a box of shard `s`'s cover intersects [min, max]. For a
  /// point box [k, k] that is: k lies in s's range.
  bool Intersects(uint32_t s, std::span<const uint64_t> min,
                  std::span<const uint64_t> max) const;

  /// Minimum squared distance from `center` to shard `s`'s cover in the
  /// metric's coordinate space; infinity for an empty range.
  double MinDist2(uint32_t s, std::span<const uint64_t> center,
                  KnnMetric metric) const;

  /// The bounding box of shard `s`'s cover (lo > hi for an empty range).
  void Bounds(uint32_t s, PhKey* lo, PhKey* hi) const;

 private:
  RoutingTable(uint32_t dim, uint32_t shards, std::vector<uint64_t> splits);

  std::span<const uint64_t> Split(uint32_t i) const {
    return {&splits_[i * size_t{dim_}], dim_};
  }

  /// Appends the z-blocks under `block` (its first `p` z-bits fixed, the
  /// rest zero) that lie in shard s's range [Split(s-1), Split(s)), largest
  /// first and in z-order.
  void CoverRange(uint32_t s, PhKey& block, uint32_t p);

  uint32_t dim_;
  uint32_t shards_;
  std::vector<uint64_t> splits_;        // shards_ - 1 keys, z-ascending
  std::vector<uint32_t> cover_begin_;   // shard s: boxes [begin[s], begin[s+1])
  std::vector<uint64_t> cover_lo_;      // box corners
  std::vector<uint64_t> cover_hi_;
  std::vector<uint64_t> bound_lo_;      // per-shard bounding box of the cover
  std::vector<uint64_t> bound_hi_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_SHARD_ROUTING_H_
