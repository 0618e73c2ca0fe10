#include "phtree/knn.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/bits.h"
#include "phtree/cursor.h"

namespace phtree {
namespace {

double CoordDelta(uint64_t a, uint64_t b, KnnMetric metric) {
  if (metric == KnnMetric::kL2Double) {
    return SortableBitsToDouble(a) - SortableBitsToDouble(b);
  }
  const uint64_t delta = a > b ? a - b : b - a;
  return static_cast<double>(delta);
}

double PointDist2(std::span<const uint64_t> center,
                  std::span<const uint64_t> point, KnnMetric metric) {
  double sum = 0;
  for (size_t d = 0; d < center.size(); ++d) {
    const double delta = CoordDelta(center[d], point[d], metric);
    sum += delta * delta;
  }
  return sum;
}

/// Minimum squared distance from `center` to the box spanned by clearing /
/// setting the low `low_bits` bits of each dimension of `path_key`.
double BoxDist2(std::span<const uint64_t> center,
                std::span<const uint64_t> path_key, uint32_t low_bits,
                KnnMetric metric) {
  double sum = 0;
  for (size_t d = 0; d < center.size(); ++d) {
    uint64_t lo;
    uint64_t hi;
    RegionBounds(path_key[d], low_bits, &lo, &hi);
    const uint64_t clamped = std::clamp(center[d], lo, hi);
    const double delta = CoordDelta(center[d], clamped, metric);
    sum += delta * delta;
  }
  return sum;
}

struct QueueItem {
  double dist2;
  const Node* node;  // nullptr for point items
  PhKey key;         // node: path bits; point: full key
  uint64_t value;    // point items only
};

// Min-heap order: ascending distance; on exact distance ties, nodes pop
// before points (so every tied point is enqueued before any is emitted)
// and tied points pop in z-order of their keys. This makes the result
// sequence a pure function of the tree contents — sharded fan-out merges
// (sharded.cc) sort with the same (dist2, z-order) key and therefore
// reproduce it exactly.
struct ItemGreater {
  bool operator()(const QueueItem& a, const QueueItem& b) const {
    if (a.dist2 != b.dist2) {
      return a.dist2 > b.dist2;
    }
    const bool a_point = a.node == nullptr;
    const bool b_point = b.node == nullptr;
    if (a_point != b_point) {
      return a_point;  // the node sorts first: it may hold more tied points
    }
    return ZOrderLess(b.key, a.key);
  }
};

}  // namespace

std::vector<KnnResult> KnnSearch(const PhTree& tree,
                                 std::span<const uint64_t> center, size_t n,
                                 KnnMetric metric, double max_dist2) {
  assert(center.size() == tree.dim());
  std::vector<KnnResult> results;
  const Node* root = tree.root();
  if (root == nullptr || n == 0) {
    return results;
  }
  results.reserve(std::min(n, tree.size()));
  std::priority_queue<QueueItem, std::vector<QueueItem>, ItemGreater> queue;
  // The n smallest point distances pushed so far (a max-heap). Once it is
  // full its top bounds the answer, so any push beyond it (or beyond
  // max_dist2) cannot reach the result; exact ties still go in, the
  // z-order tie-break needs them.
  std::priority_queue<double> nearest;
  double bound = max_dist2;
  auto push_point = [&](double d2, PhKey&& key, uint64_t payload) {
    if (d2 > bound) {
      return;
    }
    queue.push(QueueItem{d2, nullptr, std::move(key), payload});
    if (nearest.size() == n) {
      nearest.pop();
    }
    nearest.push(d2);
    if (nearest.size() == n) {
      bound = std::min(bound, nearest.top());
    }
  };
  queue.push(QueueItem{0.0, root, PhKey(tree.dim(), 0), 0});
  while (!queue.empty() && results.size() < n) {
    QueueItem item = std::move(const_cast<QueueItem&>(queue.top()));
    queue.pop();
    if (item.node == nullptr) {
      results.push_back(KnnResult{std::move(item.key), item.value,
                                  item.dist2});
      continue;
    }
    const Node* node = item.node;
    const uint32_t pl = node->postfix_len();
    NodeCursor cursor;
    for (cursor.BindAll(node); cursor.valid(); cursor.Next()) {
      const uint64_t ord = cursor.ordinal();
      PhKey key = item.key;
      ApplyHcAddress(cursor.addr(), pl, key);
      if (node->OrdinalIsSub(ord)) {
        const Node* child = tree.arena()->NodeAt(node->OrdinalSub(ord));
        // Handle provenance: every reachable node must live in the tree's
        // arena (catches stale handles after Clear()/moves in debug).
        assert(tree.arena()->Owns(child));
        child->ReadInfixInto(key);
        const double d2 =
            BoxDist2(center, key, child->postfix_len() + 1, metric);
        if (d2 <= bound) {
          queue.push(QueueItem{d2, child, std::move(key), 0});
        }
      } else {
        const uint64_t payload = node->ReadPostfixAndPayload(ord, key);
        push_point(PointDist2(center, key, metric), std::move(key), payload);
      }
    }
  }
  return results;
}

std::vector<KnnResult> KnnSearchD(const PhTree& tree,
                                  std::span<const double> center, size_t n) {
  PhKey encoded(center.size());
  for (size_t i = 0; i < center.size(); ++i) {
    encoded[i] = SortableDoubleBits(center[i]);
  }
  return KnnSearch(tree, encoded, n, KnnMetric::kL2Double);
}

}  // namespace phtree
