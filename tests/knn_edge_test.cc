// kNN edge cases, identical across PhTree and PhTreeSharded (one shard and
// eight): k = 0, k larger than the tree, exact distance ties
// (which must be broken deterministically by the z-order of the keys — the
// whole result SEQUENCE is a pure function of the tree content), the
// max_dist2 bound that cuts a result inside a tie group, and repeated
// queries while a tree is erased down to empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/sharded.h"
#include "testlib/reference_model.h"

namespace phtree {
namespace {

using testlib::KnnResultLess;
using testlib::ReferenceModel;

struct KnnVariant {
  std::string name;
  std::function<bool(const PhKey&, uint64_t)> insert;
  std::function<bool(const PhKey&)> erase;
  std::function<std::vector<KnnResult>(const PhKey&, size_t)> knn;
};

/// All variants, freshly constructed, plus the oracle. The fixture owns the
/// trees; every mutation goes through all of them.
class KnnEdgeTest : public testing::Test {
 protected:
  KnnEdgeTest()
      : model_(2),
        tree_(2),
        sharded_1_(2, 1),
        sharded_8_(2, 8) {
    variants_.push_back(
        {"PhTree",
         [this](const PhKey& k, uint64_t v) { return tree_.Insert(k, v); },
         [this](const PhKey& k) { return tree_.Erase(k); },
         [this](const PhKey& c, size_t n) {
           return KnnSearch(tree_, c, n, KnnMetric::kL2Double);
         }});
    for (PhTreeSharded* sharded : {&sharded_1_, &sharded_8_}) {
      variants_.push_back(
          {sharded == &sharded_1_ ? "PhTreeSharded/z1" : "PhTreeSharded/z8",
           [sharded](const PhKey& k, uint64_t v) {
             return sharded->Insert(k, v);
           },
           [sharded](const PhKey& k) { return sharded->Erase(k); },
           [sharded](const PhKey& c, size_t n) {
             return sharded->KnnSearch(c, n, KnnMetric::kL2Double);
           }});
    }
  }

  void InsertEverywhere(const PhKeyD& point, uint64_t value) {
    const PhKey key = EncodeKeyD(point);
    ASSERT_TRUE(model_.Insert(key, value));
    for (const KnnVariant& v : variants_) {
      ASSERT_TRUE(v.insert(key, value)) << v.name;
    }
  }

  void EraseEverywhere(const PhKeyD& point) {
    const PhKey key = EncodeKeyD(point);
    ASSERT_TRUE(model_.Erase(key));
    for (const KnnVariant& v : variants_) {
      ASSERT_TRUE(v.erase(key)) << v.name;
    }
  }

  /// Asserts every variant reproduces the oracle's exact result sequence
  /// (keys, values AND bit-identical distances).
  void ExpectKnn(const PhKeyD& center, size_t n) {
    const PhKey c = EncodeKeyD(center);
    const std::vector<KnnResult> expect =
        model_.KnnSearch(c, n, KnnMetric::kL2Double);
    for (const KnnVariant& v : variants_) {
      const std::vector<KnnResult> got = v.knn(c, n);
      ASSERT_EQ(got.size(), expect.size()) << v.name << " n=" << n;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i].key, expect[i].key)
            << v.name << " n=" << n << " result " << i;
        EXPECT_EQ(got[i].value, expect[i].value)
            << v.name << " n=" << n << " result " << i;
        EXPECT_EQ(got[i].dist2, expect[i].dist2)
            << v.name << " n=" << n << " result " << i;
      }
    }
  }

  ReferenceModel model_;
  PhTree tree_;
  PhTreeSharded sharded_1_;
  PhTreeSharded sharded_8_;
  std::vector<KnnVariant> variants_;
};

TEST_F(KnnEdgeTest, ZeroKIsEmptyOnEmptyAndNonEmptyTrees) {
  ExpectKnn({0.0, 0.0}, 0);
  InsertEverywhere({1.0, 1.0}, 1);
  InsertEverywhere({2.0, 2.0}, 2);
  ExpectKnn({0.0, 0.0}, 0);
  for (const KnnVariant& v : variants_) {
    EXPECT_TRUE(v.knn(EncodeKeyD(PhKeyD{1.0, 1.0}), 0).empty()) << v.name;
  }
}

TEST_F(KnnEdgeTest, KLargerThanSizeReturnsEverythingOrdered) {
  for (int i = 0; i < 7; ++i) {
    InsertEverywhere({static_cast<double>(i), static_cast<double>(-i)}, i);
  }
  ExpectKnn({0.5, 0.5}, 7);      // exactly size
  ExpectKnn({0.5, 0.5}, 8);      // size + 1
  ExpectKnn({0.5, 0.5}, 10000);  // far beyond
}

TEST_F(KnnEdgeTest, ExactTiesAreBrokenByZOrderDeterministically) {
  // 4 corner points at squared distance 2 from the origin plus 4 axis
  // points at distance 1 — every distance is exactly representable, so the
  // ties are exact and the (dist2, z-order) order determines the sequence.
  const std::vector<PhKeyD> ring = {
      {1.0, 1.0},  {1.0, -1.0}, {-1.0, 1.0}, {-1.0, -1.0},
      {1.0, 0.0},  {-1.0, 0.0}, {0.0, 1.0},  {0.0, -1.0},
  };
  for (size_t i = 0; i < ring.size(); ++i) {
    InsertEverywhere(ring[i], i);
  }
  for (size_t n = 0; n <= ring.size() + 1; ++n) {
    ExpectKnn({0.0, 0.0}, n);
  }
  // n = 6 cuts straight through the four-way dist2 == 2 tie group (the
  // axis points fill ranks 0-3, the corners 4-7): the cut must keep the
  // z-smallest keys of the group, exactly like the oracle.
  const std::vector<KnnResult> six =
      model_.KnnSearch(EncodeKeyD(PhKeyD{0.0, 0.0}), 6, KnnMetric::kL2Double);
  ASSERT_EQ(six.size(), 6u);
  EXPECT_EQ(six[4].dist2, 2.0);
  EXPECT_EQ(six[5].dist2, 2.0);  // the cut lands inside this tie group
  for (size_t i = 0; i + 1 < six.size(); ++i) {
    EXPECT_TRUE(KnnResultLess(six[i], six[i + 1]));  // strict total order
  }
}

TEST_F(KnnEdgeTest, RepeatedQueryWhileErasingToEmpty) {
  const std::vector<PhKeyD> points = {
      {0.0, 0.0}, {1.0, 2.0}, {-2.0, 1.0}, {3.0, -3.0}, {-1.0, -1.0}};
  for (size_t i = 0; i < points.size(); ++i) {
    InsertEverywhere(points[i], i);
  }
  for (size_t removed = 0; removed < points.size(); ++removed) {
    ExpectKnn({0.25, -0.25}, 3);
    EraseEverywhere(points[removed]);
  }
  // Empty again: every k yields the empty sequence, repeatably.
  for (int repeat = 0; repeat < 2; ++repeat) {
    ExpectKnn({0.25, -0.25}, 0);
    ExpectKnn({0.25, -0.25}, 1);
    ExpectKnn({0.25, -0.25}, 5);
  }
}

// A 21 x 21 integer grid: squared distances from grid and half-grid
// centres repeat many times over, so every cut lands in a tie group.
std::vector<PhKeyD> TieGrid() {
  std::vector<PhKeyD> grid;
  for (int x = -10; x <= 10; ++x) {
    for (int y = -10; y <= 10; ++y) {
      grid.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  return grid;
}

TEST_F(KnnEdgeTest, BoundCutsTheUnboundedResultKeepingTies) {
  const std::vector<PhKeyD> grid = TieGrid();
  for (size_t i = 0; i < grid.size(); ++i) {
    InsertEverywhere(grid[i], i);
  }
  const std::vector<PhKeyD> centers = {
      {0.0, 0.0}, {0.5, 0.5}, {3.0, -2.0}, {-9.5, 10.0}, {20.0, 0.25}};
  for (const KnnMetric metric :
       {KnnMetric::kL2Integer, KnnMetric::kL2Double}) {
    for (const PhKeyD& center : centers) {
      const PhKey c = EncodeKeyD(center);
      for (const size_t n : {1u, 4u, 13u, 60u}) {
        const std::vector<KnnResult> full = KnnSearch(tree_, c, n, metric);
        // Bounds at, just below and just above every distance of the
        // unbounded result, plus the extremes.
        std::vector<double> bounds = {0.0,
                                      std::numeric_limits<double>::infinity()};
        for (const KnnResult& r : full) {
          bounds.push_back(r.dist2);
          bounds.push_back(std::nextafter(r.dist2, 0.0));
          bounds.push_back(std::nextafter(r.dist2, bounds[1]));
        }
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
        for (const double bound : bounds) {
          std::vector<KnnResult> expect;
          for (const KnnResult& r : full) {
            if (r.dist2 <= bound) {
              expect.push_back(r);
            }
          }
          const std::vector<KnnResult> got =
              KnnSearch(tree_, c, n, metric, bound);
          ASSERT_EQ(got.size(), expect.size())
              << "n=" << n << " bound=" << bound;
          for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].key, expect[i].key) << "n=" << n << " rank " << i;
            EXPECT_EQ(got[i].dist2, expect[i].dist2);
          }
        }
      }
    }
  }
}

TEST_F(KnnEdgeTest, ShardedMatchesSingleTreeOnTies) {
  const std::vector<PhKeyD> grid = TieGrid();
  std::vector<PhEntry> entries;
  for (size_t i = 0; i < grid.size(); ++i) {
    InsertEverywhere(grid[i], i);
    entries.push_back(PhEntry{EncodeKeyD(grid[i]), i});
  }
  // The inserting variants route by the default prefix table; a bulk load
  // into an empty tree routes by splits chosen from the grid itself.
  PhTreeSharded bulk(2, 8);
  ASSERT_EQ(bulk.BulkLoad(entries), entries.size());
  variants_.push_back({"PhTreeSharded/z8-bulk", nullptr, nullptr,
                       [&bulk](const PhKey& c, size_t n) {
                         return bulk.KnnSearch(c, n, KnnMetric::kL2Double);
                       }});
  for (const PhKeyD& center : std::vector<PhKeyD>{
           {0.0, 0.0}, {0.5, 0.5}, {-0.5, 2.0}, {10.0, 10.0}, {-30.0, 1.0}}) {
    for (const size_t n : {1u, 5u, 12u, 21u, 45u, 500u}) {
      ExpectKnn(center, n);
    }
  }
  variants_.pop_back();
}

}  // namespace
}  // namespace phtree
