// Tests for the key-only set mode (paper Sect. 3.1 storage model) and the
// serialisation module.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/phtree_d.h"
#include "phtree/phtree_set.h"
#include "phtree/serialize.h"
#include "phtree/validate.h"
#include "testdata/golden_v2_streams.h"

namespace phtree {
namespace {

TEST(PhTreeSet, BasicSetSemantics) {
  PhTreeSet set(2);
  EXPECT_TRUE(set.Insert(PhKey{1, 2}));
  EXPECT_FALSE(set.Insert(PhKey{1, 2}));
  EXPECT_TRUE(set.Contains(PhKey{1, 2}));
  EXPECT_FALSE(set.Contains(PhKey{2, 1}));
  EXPECT_EQ(set.CountWindow(PhKey{0, 0}, PhKey{9, 9}), 1u);
  EXPECT_TRUE(set.Erase(PhKey{1, 2}));
  EXPECT_EQ(set.size(), 0u);
}

TEST(PhTreeSet, SavesSpaceVsValueTree) {
  // The whole point of set mode: strictly fewer bytes per entry, same shape
  // of all other statistics.
  const Dataset ds = GenerateCube(50000, 3, 42);
  PhTreeD map_tree(3);
  PhTreeConfig set_cfg;
  set_cfg.store_values = false;
  PhTreeD set_tree(3, set_cfg);
  for (size_t i = 0; i < ds.n(); ++i) {
    map_tree.Insert(ds.point(i), i);
    set_tree.Insert(ds.point(i), 0);
  }
  const auto ms = map_tree.ComputeStats();
  const auto ss = set_tree.ComputeStats();
  EXPECT_EQ(ms.n_entries, ss.n_entries);
  EXPECT_EQ(ms.n_nodes, ss.n_nodes);
  EXPECT_EQ(ms.max_depth, ss.max_depth);
  // Close to one 8-byte payload word per entry cheaper. The gap is a bit
  // under 8: the word-pool's power-of-two size classes absorb part of the
  // per-node difference, and the BHC packed leaf already strips empty
  // payload slots from the value tree.
  EXPECT_LT(ss.BytesPerEntry() + 6.5, ms.BytesPerEntry());
  EXPECT_EQ(ValidatePhTree(set_tree.tree()), "");
}

TEST(PhTreeSet, WindowQueriesMatchValueTree) {
  const Dataset ds = GenerateCluster(20000, 3, 0.5, 7);
  PhTreeD map_tree(3);
  PhTreeConfig set_cfg;
  set_cfg.store_values = false;
  PhTreeD set_tree(3, set_cfg);
  for (size_t i = 0; i < ds.n(); ++i) {
    map_tree.InsertOrAssign(ds.point(i), i);
    set_tree.InsertOrAssign(ds.point(i), 0);
  }
  Rng rng(8);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.NextDouble(0.0, 0.9);
    const PhKeyD lo{x, 0.0, 0.0};
    const PhKeyD hi{x + 0.05, 1.0, 1.0};
    ASSERT_EQ(map_tree.CountWindow(lo, hi), set_tree.CountWindow(lo, hi));
  }
}

TEST(Serialize, EmptyTreeRoundTrips) {
  PhTree tree(4);
  const auto bytes = SerializePhTree(tree);
  const auto back = DeserializePhTreeOr(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(back->dim(), 4u);
}

TEST(Serialize, RoundTripPreservesEntriesAndShape) {
  Rng rng(9);
  PhTree tree(3);
  for (int i = 0; i < 5000; ++i) {
    tree.InsertOrAssign(PhKey{rng.NextU64() & 0xFFFFFF, rng.NextU64(),
                              rng.NextU64() & 0xFF},
                        i);
  }
  const auto bytes = SerializePhTree(tree);
  const auto back = DeserializePhTreeOr(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), tree.size());
  const auto a = tree.ComputeStats();
  const auto b = back->ComputeStats();
  EXPECT_EQ(a.n_nodes, b.n_nodes);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  // Contents identical.
  tree.ForEach([&](const PhKey& k, uint64_t v) {
    const auto found = back->Find(k);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, v);
  });
  EXPECT_EQ(ValidatePhTree(*back), "");
}

TEST(Serialize, GoldenPreRefactorV2StreamsLoadBitIdentically) {
  // Compatibility anchor for node-layout refactors: these two streams were
  // captured byte-for-byte from the pre-BHC build (see
  // testdata/golden_v2_streams.h). The v2 format is entry-wise, so a layout
  // change inside Node must neither reject the old bytes nor change what a
  // re-save of the loaded tree produces.
  const std::vector<uint8_t> golden_value(
      testdata::kGoldenV2Value,
      testdata::kGoldenV2Value + sizeof(testdata::kGoldenV2Value));
  const std::vector<uint8_t> golden_set(
      testdata::kGoldenV2Set,
      testdata::kGoldenV2Set + sizeof(testdata::kGoldenV2Set));

  const auto value_tree = DeserializePhTreeOr(golden_value);
  ASSERT_TRUE(value_tree.has_value());
  EXPECT_EQ(value_tree->dim(), 3u);
  EXPECT_EQ(ValidatePhTree(*value_tree), "");
  // The stream was produced by exactly this insertion sequence; the loaded
  // tree must hold exactly these entries with these payloads.
  {
    Rng rng(77);
    PhTree expect(3);
    for (int i = 0; i < 200; ++i) {
      expect.InsertOrAssign(
          PhKey{rng.NextU64() & 0xFFFFF, rng.NextU64(), rng.NextU64() & 0xFF},
          static_cast<uint64_t>(i));
    }
    EXPECT_EQ(value_tree->size(), expect.size());
    expect.ForEach([&](const PhKey& k, uint64_t v) {
      const auto found = value_tree->Find(k);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(*found, v);
    });
  }
  EXPECT_EQ(SerializePhTree(*value_tree), golden_value);

  const auto set_tree = DeserializePhTreeOr(golden_set);
  ASSERT_TRUE(set_tree.has_value());
  EXPECT_EQ(set_tree->dim(), 2u);
  EXPECT_FALSE(set_tree->config().store_values);
  EXPECT_EQ(ValidatePhTree(*set_tree), "");
  {
    Rng rng(78);
    PhTreeConfig cfg;
    cfg.store_values = false;
    PhTree expect(2, cfg);
    for (int i = 0; i < 150; ++i) {
      expect.InsertOrAssign(PhKey{rng.NextU64() & 0xFFFFFF, rng.NextU64()}, 0);
    }
    EXPECT_EQ(set_tree->size(), expect.size());
    expect.ForEach([&](const PhKey& k, uint64_t) {
      EXPECT_TRUE(set_tree->Contains(k));
    });
  }
  EXPECT_EQ(SerializePhTree(*set_tree), golden_set);
}

TEST(Serialize, ZOrderDeltaCompressionBeatsRawDump) {
  // Clustered data yields long shared prefixes -> small deltas.
  const Dataset ds = GenerateCluster(20000, 3, 0.4, 11);
  PhTreeD tree(3);
  for (size_t i = 0; i < ds.n(); ++i) {
    tree.InsertOrAssign(ds.point(i), 0);
  }
  const auto bytes = SerializePhTree(tree.tree());
  const size_t raw = tree.size() * (3 * 8 + 8);  // keys + values
  EXPECT_LT(bytes.size(), raw);
}

TEST(Serialize, RejectsCorruptStreamsWithTypedErrors) {
  PhTree tree(2);
  tree.Insert(PhKey{1, 2}, 3);
  auto bytes = SerializePhTree(tree);
  // Truncation.
  for (size_t cut : {size_t{0}, size_t{3}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::vector<uint8_t> trunc(bytes.begin(),
                               bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DeserializePhTreeOr(trunc).has_value()) << cut;
    const auto result = DeserializePhTreeOr(trunc);
    ASSERT_FALSE(result.has_value()) << cut;
    EXPECT_EQ(result.error().code(), StatusCode::kTruncated)
        << cut << ": " << result.error().ToString();
  }
  // Bad magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(DeserializePhTreeOr(bad).has_value());
  EXPECT_EQ(DeserializePhTreeOr(bad).error().code(), StatusCode::kBadMagic);
  // Unknown version: known "PHT" prefix, unreadable version byte.
  auto bad_version = bytes;
  bad_version[3] = '9';
  EXPECT_EQ(DeserializePhTreeOr(bad_version).error().code(),
            StatusCode::kUnsupportedVersion);
  // The retired v1 format is just another unknown version.
  auto v1_magic = bytes;
  v1_magic[3] = '1';
  const auto v1 = DeserializePhTreeOr(v1_magic);
  ASSERT_FALSE(v1.has_value());
  EXPECT_EQ(v1.error().code(), StatusCode::kUnsupportedVersion)
      << v1.error().ToString();
  EXPECT_EQ(v1.error().offset(), 3u);
  // Trailing garbage.
  auto long_stream = bytes;
  long_stream.push_back(0);
  EXPECT_FALSE(DeserializePhTreeOr(long_stream).has_value());
  EXPECT_EQ(DeserializePhTreeOr(long_stream).error().code(),
            StatusCode::kTrailerCorrupt);
  // Corrupted header field (the header-length byte) is caught by the
  // header checks even before CRC verification would.
  auto bad_dim = bytes;
  bad_dim[4] = 200;
  EXPECT_FALSE(DeserializePhTreeOr(bad_dim).has_value());
  EXPECT_EQ(DeserializePhTreeOr(bad_dim).error().code(),
            StatusCode::kHeaderCorrupt);
}

TEST(Serialize, FileRoundTrip) {
  PhTree tree(2);
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    tree.InsertOrAssign(PhKey{rng.NextU64(), rng.NextU64()}, i);
  }
  const std::string path = "/tmp/phtree_serialize_test.bin";
  ASSERT_TRUE(SavePhTreeOr(tree, path).ok());
  const auto back = LoadPhTreeOr(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), tree.size());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadPhTreeOr("/tmp/does_not_exist_phtree.bin").has_value());
}

TEST(Serialize, PreservesConfig) {
  PhTreeConfig cfg;
  cfg.repr = NodeRepr::kLhcOnly;
  cfg.store_values = false;
  cfg.hysteresis = 0.9;
  PhTree tree(2, cfg);
  tree.Insert(PhKey{1, 1}, 0);
  const auto back = DeserializePhTreeOr(SerializePhTree(tree));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->config().repr, NodeRepr::kLhcOnly);
  EXPECT_EQ(back->config().store_values, false);
  EXPECT_EQ(back->config().hysteresis, 0.9);
}

}  // namespace
}  // namespace phtree
