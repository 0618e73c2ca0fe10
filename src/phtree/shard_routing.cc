#include "phtree/shard_routing.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "common/bits.h"

namespace phtree {
namespace {

double MetricCoordDelta(uint64_t a, uint64_t b, KnnMetric metric) {
  if (metric == KnnMetric::kL2Double) {
    return SortableBitsToDouble(a) - SortableBitsToDouble(b);
  }
  const uint64_t delta = a > b ? a - b : b - a;
  return static_cast<double>(delta);
}

// Z-bit j of a key (0 = the most significant bit of its z-address) is bit
// 63 - j / dim of dimension j % dim.

/// Number of leading z-bits that `a` and `b` share (64 * dim if equal).
uint32_t CommonZPrefix(std::span<const uint64_t> a,
                       std::span<const uint64_t> b) {
  const uint32_t dim = static_cast<uint32_t>(a.size());
  uint32_t level = 64;  // leading equal bits of the first differing dim
  uint32_t first = 0;
  for (uint32_t d = 0; d < dim; ++d) {
    const uint32_t equal = static_cast<uint32_t>(std::countl_zero(a[d] ^ b[d]));
    if (equal < level) {
      level = equal;
      first = d;
    }
  }
  return level == 64 ? 64 * dim : level * dim + first;
}

/// Fixed bits of dimension d in a z-block whose first `p` z-bits are fixed.
uint32_t FixedBits(uint32_t p, uint32_t dim, uint32_t d) {
  return p / dim + (d < p % dim ? 1 : 0);
}

/// Keeps the first `p` z-bits of `key` and clears the rest.
void TruncateZ(std::span<uint64_t> key, uint32_t p) {
  const uint32_t dim = static_cast<uint32_t>(key.size());
  for (uint32_t d = 0; d < dim; ++d) {
    key[d] &= ~LowMask(64 - FixedBits(p, dim, d));
  }
}

bool BoxesMeet(const uint64_t* lo, const uint64_t* hi,
               std::span<const uint64_t> min, std::span<const uint64_t> max) {
  for (size_t d = 0; d < min.size(); ++d) {
    if (lo[d] > max[d] || hi[d] < min[d]) {
      return false;
    }
  }
  return true;
}

}  // namespace

RoutingTable RoutingTable::Prefix(uint32_t dim, uint32_t shards) {
  const uint32_t bits = static_cast<uint32_t>(std::countr_zero(shards));
  std::vector<uint64_t> splits((shards - 1) * size_t{dim}, 0);
  for (uint32_t s = 1; s < shards; ++s) {
    uint64_t* key = &splits[(s - 1) * size_t{dim}];
    for (uint32_t j = 0; j < bits; ++j) {
      key[j % dim] |= ((s >> (bits - 1 - j)) & uint64_t{1}) << (63 - j / dim);
    }
  }
  return RoutingTable(dim, shards, std::move(splits));
}

RoutingTable RoutingTable::Quantiles(uint32_t dim, uint32_t shards,
                                     std::span<const PhEntry> entries) {
  constexpr size_t kMaxSample = size_t{1} << 16;
  const size_t n = entries.size();
  const size_t m = std::min(n, kMaxSample);
  assert(m >= shards);
  std::vector<std::span<const uint64_t>> sample(m);
  for (size_t i = 0; i < m; ++i) {
    sample[i] = entries[i * n / m].key;
  }
  std::sort(sample.begin(), sample.end(),
            [](std::span<const uint64_t> a, std::span<const uint64_t> b) {
              return ZOrderLess(a, b);
            });
  std::vector<uint64_t> splits;
  splits.reserve((shards - 1) * size_t{dim});
  for (uint32_t q = 1; q < shards; ++q) {
    const size_t at = q * m / shards;  // >= 1 because m >= shards
    const std::span<const uint64_t> key = sample[at];
    const size_t first = splits.size();
    splits.insert(splits.end(), key.begin(), key.end());
    const uint32_t common = CommonZPrefix(sample[at - 1], key);
    if (common < 64 * dim) {
      TruncateZ(std::span<uint64_t>(&splits[first], dim), common + 1);
    }
  }
  return RoutingTable(dim, shards, std::move(splits));
}

uint32_t RoutingTable::ShardOf(std::span<const uint64_t> key) const {
  assert(key.size() == dim_);
  // Number of splits <= key.
  uint32_t lo = 0;
  uint32_t hi = shards_ - 1;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (ZOrderLess(key, Split(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool RoutingTable::Intersects(uint32_t s, std::span<const uint64_t> min,
                              std::span<const uint64_t> max) const {
  if (!BoxesMeet(&bound_lo_[s * size_t{dim_}], &bound_hi_[s * size_t{dim_}],
                 min, max)) {
    return false;
  }
  for (uint32_t b = cover_begin_[s]; b < cover_begin_[s + 1]; ++b) {
    if (BoxesMeet(&cover_lo_[b * size_t{dim_}], &cover_hi_[b * size_t{dim_}],
                  min, max)) {
      return true;
    }
  }
  return false;
}

double RoutingTable::MinDist2(uint32_t s, std::span<const uint64_t> center,
                              KnnMetric metric) const {
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t b = cover_begin_[s]; b < cover_begin_[s + 1]; ++b) {
    const uint64_t* lo = &cover_lo_[b * size_t{dim_}];
    const uint64_t* hi = &cover_hi_[b * size_t{dim_}];
    double sum = 0;
    for (uint32_t d = 0; d < dim_ && sum < best; ++d) {
      // Clamping commutes with the order-preserving double encoding, so
      // the nearest box point in encoded space is the nearest in metric
      // space.
      const uint64_t clamped = std::clamp(center[d], lo[d], hi[d]);
      const double delta = MetricCoordDelta(center[d], clamped, metric);
      sum += delta * delta;
    }
    best = std::min(best, sum);
  }
  return best;
}

void RoutingTable::Bounds(uint32_t s, PhKey* lo, PhKey* hi) const {
  const size_t at = s * size_t{dim_};
  lo->assign(bound_lo_.begin() + at, bound_lo_.begin() + at + dim_);
  hi->assign(bound_hi_.begin() + at, bound_hi_.begin() + at + dim_);
}

RoutingTable::RoutingTable(uint32_t dim, uint32_t shards,
                           std::vector<uint64_t> splits)
    : dim_(dim), shards_(shards), splits_(std::move(splits)) {
  bound_lo_.assign(shards * size_t{dim}, ~uint64_t{0});
  bound_hi_.assign(shards * size_t{dim}, 0);
  cover_begin_.push_back(0);
  PhKey block(dim, 0);
  for (uint32_t s = 0; s < shards; ++s) {
    std::fill(block.begin(), block.end(), 0);
    CoverRange(s, block, 0);
    cover_begin_.push_back(static_cast<uint32_t>(cover_lo_.size() / dim));
  }
}

// Only blocks straddling a range end recurse, so the cover has at most two
// blocks per z-bit of the split keys.
void RoutingTable::CoverRange(uint32_t s, PhKey& block, uint32_t p) {
  PhKey hi = block;
  for (uint32_t d = 0; d < dim_; ++d) {
    hi[d] |= LowMask(64 - FixedBits(p, dim_, d));
  }
  const bool has_lo = s > 0;
  const bool has_hi = s + 1 < shards_;
  if ((has_lo && ZOrderLess(hi, Split(s - 1))) ||
      (has_hi && !ZOrderLess(block, Split(s)))) {
    return;  // disjoint
  }
  if ((!has_lo || !ZOrderLess(block, Split(s - 1))) &&
      (!has_hi || ZOrderLess(hi, Split(s)))) {
    cover_lo_.insert(cover_lo_.end(), block.begin(), block.end());
    cover_hi_.insert(cover_hi_.end(), hi.begin(), hi.end());
    for (uint32_t d = 0; d < dim_; ++d) {
      uint64_t& blo = bound_lo_[s * size_t{dim_} + d];
      uint64_t& bhi = bound_hi_[s * size_t{dim_} + d];
      blo = std::min(blo, block[d]);
      bhi = std::max(bhi, hi[d]);
    }
    return;
  }
  // Straddles a range end, so it is not a single key: split on z-bit p.
  assert(p < 64 * dim_);
  const uint64_t bit = uint64_t{1} << (63 - p / dim_);
  CoverRange(s, block, p + 1);
  block[p % dim_] |= bit;
  CoverRange(s, block, p + 1);
  block[p % dim_] &= ~bit;
}

}  // namespace phtree
