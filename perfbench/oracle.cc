#include "oracle.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/bits.h"

namespace perfbench {

phtree::PhKey Encode(std::span<const double> point) {
  phtree::PhKey key(point.size());
  for (size_t d = 0; d < point.size(); ++d) {
    key[d] = phtree::SortableDoubleBits(point[d]);
  }
  return key;
}

double Dist2(std::span<const double> a, std::span<const double> b) {
  double sum = 0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double delta = a[d] - b[d];
    sum += delta * delta;
  }
  return sum;
}

BruteIndex::BruteIndex(uint32_t dim, std::span<const double> coords)
    : dim_(dim), coords_(coords.begin(), coords.end()), axes_(dim) {
  const size_t n = coords.size() / dim;
  for (uint32_t d = 0; d < dim; ++d) {
    Axis& axis = axes_[d];
    axis.ids.resize(n);
    std::iota(axis.ids.begin(), axis.ids.end(), 0u);
    std::sort(axis.ids.begin(), axis.ids.end(), [&](uint32_t a, uint32_t b) {
      return coords_[size_t{a} * dim + d] < coords_[size_t{b} * dim + d];
    });
    axis.keys.resize(n);
    for (size_t r = 0; r < n; ++r) {
      axis.keys[r] = coords_[size_t{axis.ids[r]} * dim + d];
    }
  }
}

size_t BruteIndex::Axis::FirstAtLeast(double x) const {
  return static_cast<size_t>(std::lower_bound(keys.begin(), keys.end(), x) -
                             keys.begin());
}

template <typename Fn>
void BruteIndex::ScanBox(std::span<const double> lo,
                         std::span<const double> hi, Fn&& fn) const {
  // Scan the dimension whose [lo, hi] slab holds the fewest points.
  uint32_t best = 0;
  size_t best_first = 0, best_end = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    const Axis& axis = axes_[d];
    const size_t first = axis.FirstAtLeast(lo[d]);
    const size_t end = static_cast<size_t>(
        std::upper_bound(axis.keys.begin(), axis.keys.end(), hi[d]) -
        axis.keys.begin());
    if (d == 0 || end - std::min(first, end) < best_end - best_first) {
      best = d;
      best_first = std::min(first, end);
      best_end = end;
    }
  }
  const Axis& axis = axes_[best];
  for (size_t r = best_first; r < best_end; ++r) {
    const auto p = Point(axis.ids[r]);
    bool inside = true;
    for (uint32_t d = 0; d < dim_ && inside; ++d) {
      inside = p[d] >= lo[d] && p[d] <= hi[d];
    }
    if (inside) {
      fn(axis.ids[r]);
    }
  }
}

std::optional<uint64_t> BruteIndex::Find(std::span<const double> p) const {
  std::optional<uint64_t> found;
  ScanBox(p, p, [&](uint32_t id) { found = id; });
  return found;
}

size_t BruteIndex::CountBox(std::span<const double> lo,
                            std::span<const double> hi) const {
  size_t n = 0;
  ScanBox(lo, hi, [&](uint32_t) { ++n; });
  return n;
}

std::vector<uint32_t> BruteIndex::IdsInBox(std::span<const double> lo,
                                           std::span<const double> hi) const {
  std::vector<uint32_t> ids;
  ScanBox(lo, hi, [&](uint32_t id) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<double> BruteIndex::KnnDist2(std::span<const double> center,
                                         size_t k) const {
  // Expand outward from the center's rank along dimension 0; a side stops
  // once its gap in that coordinate alone exceeds the k-th best distance.
  const Axis& axis = axes_[0];
  std::priority_queue<double> best;  // max-heap of the k best so far
  size_t right = axis.FirstAtLeast(center[0]);
  size_t left = right;  // ranks [left, right) are done
  for (;;) {
    const bool can_left = left > 0;
    const bool can_right = right < axis.keys.size();
    if (!can_left && !can_right) {
      break;
    }
    const double gap_left = can_left ? center[0] - axis.keys[left - 1] : 0;
    const double gap_right = can_right ? axis.keys[right] - center[0] : 0;
    const bool take_left = can_left && (!can_right || gap_left <= gap_right);
    const double gap = take_left ? gap_left : gap_right;
    if (best.size() == k && gap * gap > best.top()) {
      break;  // the nearer side is already out of range, so both are
    }
    const double d2 =
        Dist2(center, Point(axis.ids[take_left ? --left : right++]));
    if (best.size() < k) {
      best.push(d2);
    } else if (d2 < best.top()) {
      best.pop();
      best.push(d2);
    }
  }
  std::vector<double> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

void ContentDigest::Add(std::span<const uint64_t> key, uint64_t value) {
  uint64_t h = value * 0x9e3779b97f4a7c15ULL + key.size();
  for (uint64_t w : key) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  ++count;
  sum += h;
  xor_ ^= h;
}

}  // namespace perfbench
