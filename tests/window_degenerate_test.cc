// Degenerate window-query semantics, uniformly across every index variant:
// a window with min[d] > max[d] on ANY axis selects the empty set (it is
// not reordered, not clamped, never an error), and a point window
// (min == max) selects exactly the entries at that point. PhTree, PhTreeD,
// PhTreeSharded (one shard, the prefix table, a table chosen by a bulk
// load) and both kd-trees must agree byte-for-byte; CritBit1 rides along
// through the same harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "critbit/critbit1.h"
#include "kdtree/kdtree1.h"
#include "kdtree/kdtree2.h"
#include "phtree/phtree.h"
#include "phtree/phtree_d.h"
#include "phtree/sharded.h"

namespace phtree {
namespace {

using EncodedEntries = std::vector<std::pair<PhKey, uint64_t>>;

/// One variant reduced to the two observables under test, with results in
/// the shared encoded key space, z-sorted for set comparison.
struct WindowVariant {
  std::string name;
  std::function<EncodedEntries(const PhKeyD&, const PhKeyD&)> query;
  std::function<size_t(const PhKeyD&, const PhKeyD&)> count;
};

void SortEntries(EncodedEntries* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) {
              return ZOrderLess(a.first, b.first);
            });
}

/// The fixed 2-d point set: a 4x4 grid over negative and positive
/// coordinates (value = index), exercising the sign-crossing encoding.
std::vector<PhKeyD> TestPoints() {
  std::vector<PhKeyD> points;
  for (const double x : {-3.0, -1.0, 1.0, 3.0}) {
    for (const double y : {-3.0, -1.0, 1.0, 3.0}) {
      points.push_back({x, y});
    }
  }
  return points;
}

/// Brute-force expectation over the double points.
EncodedEntries Expect(const std::vector<PhKeyD>& points, const PhKeyD& lo,
                      const PhKeyD& hi) {
  EncodedEntries out;
  for (size_t i = 0; i < points.size(); ++i) {
    bool in = true;
    for (size_t d = 0; d < lo.size(); ++d) {
      in = in && points[i][d] >= lo[d] && points[i][d] <= hi[d];
    }
    if (in) {
      out.emplace_back(EncodeKeyD(points[i]), i);
    }
  }
  SortEntries(&out);
  return out;
}

class WindowDegenerateTest : public testing::Test {
 protected:
  WindowDegenerateTest()
      : points_(TestPoints()),
        tree_(2),
        tree_d_(2),
        sharded_1_(2, 1),
        sharded_z_(2, 4),
        sharded_bulk_(2, 4),
        kd1_(2),
        kd2_(2),
        cb1_(2) {
    std::vector<PhEntry> entries;
    for (size_t i = 0; i < points_.size(); ++i) {
      const PhKey key = EncodeKeyD(points_[i]);
      entries.push_back(PhEntry{key, i});
      tree_.Insert(key, i);
      tree_d_.Insert(points_[i], i);
      sharded_1_.Insert(key, i);
      sharded_z_.Insert(key, i);
      kd1_.Insert(points_[i], i);
      kd2_.Insert(points_[i], i);
      cb1_.Insert(points_[i], i);
    }
    sharded_bulk_.BulkLoad(entries);

    const auto add = [this](std::string name, auto query, auto count) {
      variants_.push_back(
          WindowVariant{std::move(name), std::move(query), std::move(count)});
    };
    add("PhTree",
        [this](const PhKeyD& lo, const PhKeyD& hi) {
          EncodedEntries out =
              tree_.QueryWindow(EncodeKeyD(lo), EncodeKeyD(hi));
          SortEntries(&out);
          return out;
        },
        [this](const PhKeyD& lo, const PhKeyD& hi) {
          return tree_.CountWindow(EncodeKeyD(lo), EncodeKeyD(hi));
        });
    add("PhTreeD",
        [this](const PhKeyD& lo, const PhKeyD& hi) {
          EncodedEntries out;
          for (const auto& [key, value] : tree_d_.QueryWindow(lo, hi)) {
            out.emplace_back(EncodeKeyD(key), value);
          }
          SortEntries(&out);
          return out;
        },
        [this](const PhKeyD& lo, const PhKeyD& hi) {
          return tree_d_.CountWindow(lo, hi);
        });
    for (PhTreeSharded* sharded : {&sharded_1_, &sharded_z_, &sharded_bulk_}) {
      add(sharded == &sharded_1_   ? "PhTreeSharded/1"
          : sharded == &sharded_z_ ? "PhTreeSharded/z"
                                   : "PhTreeSharded/bulk",
          [sharded](const PhKeyD& lo, const PhKeyD& hi) {
            EncodedEntries out =
                sharded->QueryWindow(EncodeKeyD(lo), EncodeKeyD(hi));
            SortEntries(&out);
            return out;
          },
          [sharded](const PhKeyD& lo, const PhKeyD& hi) {
            return sharded->CountWindow(EncodeKeyD(lo), EncodeKeyD(hi));
          });
    }
    const auto add_baseline = [&add](std::string name, auto* tree) {
      add(std::move(name),
          [tree](const PhKeyD& lo, const PhKeyD& hi) {
            EncodedEntries out;
            tree->QueryWindow(
                lo, hi, [&out](std::span<const double> key, uint64_t value) {
                  out.emplace_back(EncodeKeyD(key), value);
                });
            SortEntries(&out);
            return out;
          },
          [tree](const PhKeyD& lo, const PhKeyD& hi) {
            return tree->CountWindow(lo, hi);
          });
    };
    add_baseline("KD1", &kd1_);
    add_baseline("KD2", &kd2_);
    add_baseline("CB1", &cb1_);
  }

  void ExpectWindow(const PhKeyD& lo, const PhKeyD& hi) {
    const EncodedEntries expect = Expect(points_, lo, hi);
    for (const WindowVariant& v : variants_) {
      EXPECT_EQ(v.query(lo, hi), expect) << v.name << " window result";
      EXPECT_EQ(v.count(lo, hi), expect.size()) << v.name << " count";
    }
  }

  std::vector<PhKeyD> points_;
  PhTree tree_;
  PhTreeD tree_d_;
  PhTreeSharded sharded_1_;
  PhTreeSharded sharded_z_;
  PhTreeSharded sharded_bulk_;
  KdTree1 kd1_;
  KdTree2 kd2_;
  CritBit1 cb1_;
  std::vector<WindowVariant> variants_;
};

TEST_F(WindowDegenerateTest, MinAboveMaxOnOneAxisIsEmpty) {
  ExpectWindow({3.0, -3.0}, {-3.0, 3.0});  // x inverted
  ExpectWindow({-3.0, 3.0}, {3.0, -3.0});  // y inverted
  // Inverted by the smallest possible margin around an existing point.
  ExpectWindow({1.0 + 1e-9, -3.0}, {1.0, 3.0});
}

TEST_F(WindowDegenerateTest, MinAboveMaxOnAllAxesIsEmpty) {
  ExpectWindow({3.0, 3.0}, {-3.0, -3.0});
}

TEST_F(WindowDegenerateTest, DegenerateWindowOnEmptyTreesIsEmpty) {
  // Fresh empty variants: same contract with no data at all.
  PhTree tree(2);
  EXPECT_TRUE(tree.QueryWindow(EncodeKeyD(PhKeyD{1.0, 1.0}),
                               EncodeKeyD(PhKeyD{-1.0, -1.0}))
                  .empty());
  KdTree1 kd(2);
  EXPECT_EQ(kd.CountWindow(PhKeyD{1.0, 1.0}, PhKeyD{-1.0, -1.0}), 0u);
}

TEST_F(WindowDegenerateTest, PointWindowSelectsExactlyThatPoint) {
  for (const PhKeyD& p : TestPoints()) {
    ExpectWindow(p, p);
  }
}

TEST_F(WindowDegenerateTest, PointWindowOnAbsentPointIsEmpty) {
  ExpectWindow({0.0, 0.0}, {0.0, 0.0});
  ExpectWindow({-2.0, 2.0}, {-2.0, 2.0});
}

TEST_F(WindowDegenerateTest, RegularWindowsStillAgree) {
  ExpectWindow({-3.0, -3.0}, {3.0, 3.0});   // everything
  ExpectWindow({-1.0, -1.0}, {3.0, 1.0});   // partial box
  ExpectWindow({-100.0, -100.0}, {100.0, 100.0});
}

}  // namespace
}  // namespace phtree
