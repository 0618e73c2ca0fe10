// The oracle of the differential test harness: a sorted std::map over
// z-ordered encoded keys whose every operation is brute-force-obvious. The
// paper's evaluation (Sect. 4) rests on all index variants returning the
// same result sets for the same workload; this model is the executable
// definition of "the same result set" that PhTree, PhTreeSharded, both
// kd-trees and the crit-bit baseline are replayed against.
//
// Ordering the map by ZOrderLess buys two things: ForEach and QueryWindow
// enumerate in exactly the z-order a PH-tree produces (so sequences, not
// just sets, can be compared), and window queries scan only the z-range
// [min, max] — every point of the box lies between the corners in z-order
// because the z-address is monotone in each coordinate — instead of the
// whole map.
#ifndef PHTREE_TESTLIB_REFERENCE_MODEL_H_
#define PHTREE_TESTLIB_REFERENCE_MODEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"

namespace phtree {
namespace testlib {

/// std::map comparator wrapping ZOrderLess.
struct ZLess {
  bool operator()(const PhKey& a, const PhKey& b) const {
    return ZOrderLess(a, b);
  }
};

/// Brute-force reference index over encoded (uint64) keys. Mirrors the
/// PhTree API surface the differential runner exercises.
class ReferenceModel {
 public:
  explicit ReferenceModel(uint32_t dim) : dim_(dim) {}

  uint32_t dim() const { return dim_; }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  bool Insert(const PhKey& key, uint64_t value) {
    return map_.emplace(key, value).second;
  }

  /// Returns true iff the key was newly inserted (PhTree semantics).
  bool InsertOrAssign(const PhKey& key, uint64_t value) {
    auto [it, inserted] = map_.insert_or_assign(key, value);
    return inserted;
  }

  bool Erase(const PhKey& key) { return map_.erase(key) > 0; }

  /// Relocation oracle, the executable definition of Update's observable
  /// semantics: old-missing beats new-occupied, old == new is a payload
  /// rewrite, and the moved entry keeps its payload unless `value`
  /// overrides it.
  UpdateOutcome Update(const PhKey& old_key, const PhKey& new_key,
                       std::optional<uint64_t> value) {
    const auto it = map_.find(old_key);
    if (it == map_.end()) {
      return UpdateOutcome::kOldMissing;
    }
    if (old_key != new_key && map_.count(new_key) > 0) {
      return UpdateOutcome::kNewOccupied;
    }
    const uint64_t v = value.has_value() ? *value : it->second;
    map_.erase(it);
    map_[new_key] = v;
    return UpdateOutcome::kMoved;
  }

  std::optional<uint64_t> Find(const PhKey& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? std::nullopt : std::optional(it->second);
  }

  bool Contains(const PhKey& key) const { return map_.count(key) > 0; }

  void Clear() { map_.clear(); }

  /// All entries inside the closed box [min, max], in z-order — the exact
  /// sequence PhTree::QueryWindow yields. min[d] > max[d] on any axis
  /// yields the empty set (the uniform degenerate-window contract).
  std::vector<std::pair<PhKey, uint64_t>> QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max) const;

  size_t CountWindow(std::span<const uint64_t> min,
                     std::span<const uint64_t> max) const;

  /// Paginated-window oracle: up to `page_size` in-window entries strictly
  /// z-after `resume_after` (empty = from the window start), the exact
  /// has-more flag, and the token — precisely the page every tree
  /// variant's QueryWindowPage must produce.
  WindowPage QueryWindowPage(std::span<const uint64_t> min,
                             std::span<const uint64_t> max, size_t page_size,
                             std::span<const uint64_t> resume_after) const;

  /// Brute-force kNN with the canonical total order (ascending dist2,
  /// z-order of the key on exact ties) — the sequence KnnSearch on any
  /// PH-tree variant must reproduce. Distances are accumulated dimension
  /// 0..k-1 with the same expression knn.cc uses, so the doubles are
  /// bit-identical, not merely close.
  std::vector<KnnResult> KnnSearch(std::span<const uint64_t> center, size_t n,
                                   KnnMetric metric) const;

  /// Entries in z-order.
  void ForEach(
      const std::function<void(const PhKey&, uint64_t)>& fn) const {
    for (const auto& [key, value] : map_) {
      fn(key, value);
    }
  }

 private:
  uint32_t dim_;
  std::map<PhKey, uint64_t, ZLess> map_;
};

/// The canonical kNN result order (ascending dist2, z-order tie-break),
/// shared by the model and the result comparisons of the runner.
bool KnnResultLess(const KnnResult& a, const KnnResult& b);

}  // namespace testlib
}  // namespace phtree

#endif  // PHTREE_TESTLIB_REFERENCE_MODEL_H_
