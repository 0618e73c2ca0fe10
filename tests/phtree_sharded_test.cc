// Functional tests for the lock-striped sharded PH-tree: shard routing
// under the prefix table and under tables chosen from loaded data, region
// clipping, equivalence with a single PhTree on every query type, bulk
// load, persistence, and per-shard structural invariants.
#include "phtree/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "phtree/phtree_d.h"
#include "phtree/serialize.h"
#include "phtree/shard_routing.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

std::vector<PhKey> RandomKeys(size_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<PhKey> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(PhTreeSharded, ShardRoutingMatchesShardRegions) {
  for (const uint32_t dim : {1u, 2u, 3u, 5u}) {
    for (const uint32_t shards : {1u, 2u, 4u, 8u, 16u}) {
      PhTreeSharded tree(dim, shards);
      PhKey lo;
      PhKey hi;
      for (uint32_t s = 0; s < shards; ++s) {
        tree.ShardRegion(s, &lo, &hi);
        // The region's corners route back to the shard, so the region is
        // exactly the preimage of s (the routing is a prefix of z-order).
        EXPECT_EQ(tree.ShardOf(lo), s);
        EXPECT_EQ(tree.ShardOf(hi), s);
      }
      const auto keys = RandomKeys(200, dim, 7 + dim + shards);
      for (const auto& key : keys) {
        const uint32_t s = tree.ShardOf(key);
        ASSERT_LT(s, shards);
        tree.ShardRegion(s, &lo, &hi);
        for (uint32_t d = 0; d < dim; ++d) {
          EXPECT_GE(key[d], lo[d]);
          EXPECT_LE(key[d], hi[d]);
        }
      }
    }
  }
}

TEST(PhTreeSharded, ShardRegionsAreOrderedAndDisjoint) {
  PhTreeSharded tree(2, 8);
  PhKey prev_hi;
  for (uint32_t s = 0; s < 8; ++s) {
    PhKey lo;
    PhKey hi;
    tree.ShardRegion(s, &lo, &hi);
    for (uint32_t d = 0; d < 2; ++d) {
      EXPECT_LE(lo[d], hi[d]);
    }
    if (s > 0) {
      // Regions of consecutive shards are distinct boxes (routing is a
      // partition; full disjointness is implied by the preimage property
      // checked above).
      EXPECT_NE(lo, prev_hi);
    }
    prev_hi = hi;
  }
}

TEST(PhTreeSharded, BasicOperations) {
  PhTreeSharded tree(2, 4);
  EXPECT_EQ(tree.dim(), 2u);
  EXPECT_EQ(tree.num_shards(), 4u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Insert(PhKey{1, 2}, 3));
  EXPECT_FALSE(tree.Insert(PhKey{1, 2}, 4));  // duplicate
  EXPECT_EQ(tree.Find(PhKey{1, 2}), std::optional<uint64_t>(3));
  EXPECT_FALSE(tree.InsertOrAssign(PhKey{1, 2}, 9));  // assigned, not new
  EXPECT_EQ(tree.Find(PhKey{1, 2}), std::optional<uint64_t>(9));
  EXPECT_FALSE(tree.Contains(PhKey{2, 1}));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Erase(PhKey{1, 2}));
  EXPECT_FALSE(tree.Erase(PhKey{1, 2}));
  EXPECT_TRUE(tree.empty());
}

TEST(PhTreeSharded, MatchesPlainTreeOnEveryQueryType) {
  const uint32_t dim = 3;
  const auto keys = RandomKeys(4000, dim, 11);
  PhTree plain(dim);
  PhTreeSharded sharded(dim, 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(plain.Insert(keys[i], i), sharded.Insert(keys[i], i));
  }
  EXPECT_EQ(plain.size(), sharded.size());

  for (const auto& key : keys) {
    EXPECT_EQ(plain.Find(key), sharded.Find(key));
  }

  // Window queries: identical result *sequences* — the sharded fan-out
  // must preserve global z-order when concatenating per-shard results.
  Rng rng(12);
  for (int q = 0; q < 40; ++q) {
    PhKey lo(dim);
    PhKey hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      uint64_t a = rng.NextU64();
      uint64_t b = rng.NextU64();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const auto expect = plain.QueryWindow(lo, hi);
    const auto got = sharded.QueryWindow(lo, hi);
    EXPECT_EQ(expect, got) << "window query " << q;
    EXPECT_EQ(plain.CountWindow(lo, hi), sharded.CountWindow(lo, hi));

    // Visitor form agrees with the vector form.
    std::vector<std::pair<PhKey, uint64_t>> visited;
    sharded.QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
      visited.emplace_back(k, v);
    });
    EXPECT_EQ(expect, visited);
  }

  // ForEach: same global z-order enumeration.
  std::vector<std::pair<PhKey, uint64_t>> plain_all;
  std::vector<std::pair<PhKey, uint64_t>> sharded_all;
  plain.ForEach([&](const PhKey& k, uint64_t v) { plain_all.emplace_back(k, v); });
  sharded.ForEach(
      [&](const PhKey& k, uint64_t v) { sharded_all.emplace_back(k, v); });
  EXPECT_EQ(plain_all, sharded_all);

  // kNN: same distances for the same query (keys may differ on exact
  // ties, so compare the distance sequences).
  for (int q = 0; q < 20; ++q) {
    PhKey center(dim);
    for (auto& c : center) {
      c = rng.NextU64();
    }
    for (const size_t n : {1u, 5u, 32u}) {
      const auto expect = KnnSearch(plain, center, n);
      const auto got = sharded.KnnSearch(center, n);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_DOUBLE_EQ(expect[i].dist2, got[i].dist2)
            << "query " << q << " n " << n << " rank " << i;
      }
    }
  }

  // Aggregated stats count every entry exactly once.
  const PhTreeStats stats = sharded.ComputeStats();
  EXPECT_EQ(stats.n_entries, plain.size());
  EXPECT_EQ(stats.n_postfix_entries, plain.size());

  // Erase half and re-check equivalence plus per-shard invariants.
  for (size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_EQ(plain.Erase(keys[i]), sharded.Erase(keys[i]));
  }
  EXPECT_EQ(plain.size(), sharded.size());
  for (const auto& key : keys) {
    EXPECT_EQ(plain.Find(key), sharded.Find(key));
  }
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(sharded.UnsafeShard(s)), "");
  }
}

TEST(PhTreeSharded, ZOrderLessMatchesTreeEnumerationOrder) {
  const uint32_t dim = 3;
  const auto keys = RandomKeys(500, dim, 21);
  PhTree plain(dim);
  for (size_t i = 0; i < keys.size(); ++i) {
    plain.Insert(keys[i], i);
  }
  std::vector<PhKey> enumerated;
  plain.ForEach([&](const PhKey& k, uint64_t) { enumerated.push_back(k); });
  // Sorting by ZOrderLess reproduces the tree's own enumeration order.
  std::vector<PhKey> sorted = keys;
  std::sort(sorted.begin(), sorted.end(),
            [](const PhKey& a, const PhKey& b) { return ZOrderLess(a, b); });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(enumerated, sorted);
  // Strict weak ordering basics.
  EXPECT_FALSE(ZOrderLess(keys[0], keys[0]));
  EXPECT_NE(ZOrderLess(keys[0], keys[1]), ZOrderLess(keys[1], keys[0]));
}

TEST(PhTreeSharded, DataSplitRoutingMatchesPlainTreeAndBalancesSkewedKeys) {
  const uint32_t dim = 3;
  // Keys confined to a narrow band: the top 16 bits of every word are
  // identical, mimicking SortableDoubleBits-encoded uniform doubles (shared
  // sign + exponent). The prefix table sends ALL of them to one shard; a
  // bulk load into an empty tree splits them at their z-order quantiles.
  Rng rng(31);
  auto band_word = [&rng]() {
    return 0x3ff0000000000000ULL | (rng.NextU64() >> 16);
  };
  std::vector<PhEntry> entries;
  entries.reserve(4000);
  for (size_t i = 0; i < 4000; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = band_word();
    }
    entries.push_back(PhEntry{std::move(key), i});
  }
  PhTree plain(dim);
  PhTreeSharded zp(dim, 8);  // control: demonstrates the skew
  for (const PhEntry& e : entries) {
    plain.Insert(e.key, e.value);
    zp.Insert(e.key, e.value);
  }
  PhTreeSharded split(dim, 8);
  ASSERT_EQ(split.BulkLoad(entries), entries.size());
  uint32_t zp_nonempty = 0;
  for (uint32_t s = 0; s < 8; ++s) {
    zp_nonempty += zp.UnsafeShard(s).size() > 0 ? 1 : 0;
  }
  EXPECT_EQ(zp_nonempty, 1u);  // the skew the data splits exist to fix
  for (uint32_t s = 0; s < 8; ++s) {
    // Every data-split shard within [mean/2, 2*mean].
    EXPECT_GT(split.UnsafeShard(s).size(), plain.size() / 16);
    EXPECT_LT(split.UnsafeShard(s).size(), plain.size() / 4);
  }

  for (const PhEntry& e : entries) {
    EXPECT_EQ(plain.Find(e.key), split.Find(e.key));
  }

  // Both window forms come out in global z-order: the shards are visited
  // in index order, which is z-order.
  for (int q = 0; q < 20; ++q) {
    PhKey lo(dim);
    PhKey hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      const uint64_t a = band_word();
      const uint64_t b = band_word();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const auto expect = plain.QueryWindow(lo, hi);
    EXPECT_EQ(expect, split.QueryWindow(lo, hi)) << "window query " << q;
    EXPECT_EQ(plain.CountWindow(lo, hi), split.CountWindow(lo, hi));
    std::vector<std::pair<PhKey, uint64_t>> visited;
    split.QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
      visited.emplace_back(k, v);
    });
    EXPECT_EQ(expect, visited);
  }

  // kNN prunes by the shard covers and still returns the globally nearest
  // distances.
  for (int q = 0; q < 10; ++q) {
    PhKey center(dim);
    for (auto& c : center) {
      c = band_word();
    }
    const auto expect = KnnSearch(plain, center, 10);
    const auto got = split.KnnSearch(center, 10);
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_DOUBLE_EQ(expect[i].dist2, got[i].dist2)
          << "query " << q << " rank " << i;
    }
  }

  // Snapshots are canonical regardless of the table: a data-split tree
  // round-trips through Save/Load (which re-partitions with the table the
  // reloading tree chooses).
  const std::string path = TempPath("sharded_split.phtree");
  ASSERT_TRUE(split.Save(path).ok());
  PhTreeSharded reload(dim, 4);
  ASSERT_TRUE(reload.Load(path).ok());
  EXPECT_EQ(reload.size(), plain.size());
  std::vector<std::pair<PhKey, uint64_t>> plain_all;
  std::vector<std::pair<PhKey, uint64_t>> reload_all;
  plain.ForEach(
      [&](const PhKey& k, uint64_t v) { plain_all.emplace_back(k, v); });
  reload.ForEach(
      [&](const PhKey& k, uint64_t v) { reload_all.emplace_back(k, v); });
  EXPECT_EQ(plain_all, reload_all);
  for (uint32_t s = 0; s < reload.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(reload.UnsafeShard(s)), "");
  }
  std::remove(path.c_str());
}

TEST(PhTreeSharded, KnnExceedingTreeSizeReturnsEverything) {
  PhTreeSharded tree(2, 8);
  const auto keys = RandomKeys(50, 2, 99);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  const auto all = tree.KnnSearch(PhKey{0, 0}, 1000);
  EXPECT_EQ(all.size(), tree.size());
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const KnnResult& a, const KnnResult& b) { return a.dist2 < b.dist2; }));
}

TEST(PhTreeSharded, BulkLoadMatchesSequentialInsert) {
  const uint32_t dim = 2;
  const auto keys = RandomKeys(5000, dim, 21);
  std::vector<PhEntry> entries;
  entries.reserve(keys.size() + 100);
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.push_back(PhEntry{keys[i], i});
  }
  // Duplicates: first occurrence wins, later ones dropped (Insert
  // semantics) — also across the bulk-load partition.
  for (size_t i = 0; i < 100; ++i) {
    entries.push_back(PhEntry{keys[i], 999999 + i});
  }

  PhTreeSharded bulk(dim, 8);
  const size_t inserted = bulk.BulkLoad(entries);
  EXPECT_EQ(inserted, keys.size());
  EXPECT_EQ(bulk.size(), keys.size());

  // Reference: one plain tree per shard, filled by sequential inserts of
  // the entries the bulk-loaded tree's routing assigns to that shard.
  std::vector<PhTree> seq;
  for (uint32_t s = 0; s < bulk.num_shards(); ++s) {
    seq.emplace_back(dim);
  }
  for (const PhEntry& e : entries) {
    seq[bulk.ShardOf(e.key)].Insert(e.key, e.value);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(bulk.Find(keys[i]), std::optional<uint64_t>(i));
    EXPECT_EQ(bulk.Find(keys[i]), seq[bulk.ShardOf(keys[i])].Find(keys[i]));
  }
  // Structure is a pure function of the entries, so each shard is
  // byte-identical in stats to its reference however it was built.
  for (uint32_t s = 0; s < bulk.num_shards(); ++s) {
    const PhTreeStats a = bulk.UnsafeShard(s).ComputeStats();
    const PhTreeStats b = seq[s].ComputeStats();
    EXPECT_EQ(a.n_entries, b.n_entries) << "shard " << s;
    EXPECT_EQ(a.n_nodes, b.n_nodes) << "shard " << s;
    EXPECT_EQ(a.memory_bytes, b.memory_bytes) << "shard " << s;
    EXPECT_EQ(ValidatePhTree(bulk.UnsafeShard(s)), "");
  }
}

// ---- Routing tables ------------------------------------------------------

std::vector<PhEntry> EncodedEntries(const Dataset& ds) {
  std::vector<PhEntry> entries;
  entries.reserve(ds.n());
  PhKeyD point(ds.dim);
  for (size_t i = 0; i < ds.n(); ++i) {
    for (uint32_t d = 0; d < ds.dim; ++d) {
      point[d] = ds.coords[i * ds.dim + d];
    }
    entries.push_back(PhEntry{EncodeKeyD(point), i});
  }
  return entries;
}

double MaxShardShare(const PhTreeSharded& tree) {
  size_t largest = 0;
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    largest = std::max(largest, tree.UnsafeShard(s).size());
  }
  return static_cast<double>(largest) / static_cast<double>(tree.size());
}

/// Every key lies in exactly one shard's cover of `table` — the point box
/// [key, key] meets that shard's cover only — and that shard is the one
/// `tree` routes it to; routing is monotone in z-order.
void ExpectCoversPartition(const RoutingTable& table,
                           const PhTreeSharded& tree,
                           std::vector<PhKey> keys) {
  for (const PhKey& key : keys) {
    uint32_t owners = 0;
    uint32_t owner = 0;
    for (uint32_t s = 0; s < tree.num_shards(); ++s) {
      if (table.Intersects(s, key, key)) {
        ++owners;
        owner = s;
      }
    }
    ASSERT_EQ(owners, 1u);
    EXPECT_EQ(owner, tree.ShardOf(key));
    EXPECT_EQ(table.ShardOf(key), tree.ShardOf(key));
  }
  std::sort(keys.begin(), keys.end(),
            [](const PhKey& a, const PhKey& b) { return ZOrderLess(a, b); });
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(tree.ShardOf(keys[i - 1]), tree.ShardOf(keys[i]));
  }
}

TEST(PhTreeSharded, BulkLoadBalancesEncodedDoubles) {
  const size_t n = 20000;
  for (const bool tiger : {false, true}) {
    const Dataset ds = tiger ? GenerateTigerLike(n, 5) : GenerateCube(n, 3, 5);
    const std::vector<PhEntry> entries = EncodedEntries(ds);
    PhTreeSharded tree(ds.dim, 8);
    ASSERT_EQ(tree.BulkLoad(entries), entries.size());
    EXPECT_LE(MaxShardShare(tree), 0.2) << (tiger ? "TIGER" : "CUBE");
    // A Load into an empty tree chooses the same table.
    const std::string path = TempPath("balanced.pht");
    ASSERT_TRUE(tree.Save(path).ok());
    PhTreeSharded loaded(ds.dim, 8);
    ASSERT_TRUE(loaded.Load(path).ok());
    EXPECT_LE(MaxShardShare(loaded), 0.2) << (tiger ? "TIGER" : "CUBE");
    std::remove(path.c_str());
  }
}

TEST(PhTreeSharded, CoversPartitionTheKeySpace) {
  for (const uint32_t dim : {1u, 2u, 3u, 6u}) {
    const auto keys = RandomKeys(2000, dim, 100 + dim);
    for (const uint32_t shards : {1u, 2u, 8u, 16u}) {
      PhTreeSharded prefix(dim, shards);
      ExpectCoversPartition(RoutingTable::Prefix(dim, shards), prefix, keys);
      // Data-chosen splits, from keys confined to a narrow band as encoded
      // doubles are (and from some the probe keys themselves share).
      Rng rng(dim * 31 + shards);
      std::vector<PhEntry> band;
      std::vector<PhKey> probes = keys;
      for (size_t i = 0; i < 3000; ++i) {
        PhKey key(dim);
        for (auto& v : key) {
          v = 0x3ff0000000000000ULL | (rng.NextU64() >> 20);
        }
        probes.push_back(key);
        band.push_back(PhEntry{std::move(key), i});
      }
      PhTreeSharded data(dim, shards);
      data.BulkLoad(band);
      // The table BulkLoad chose is a pure function of the loaded keys.
      ExpectCoversPartition(RoutingTable::Quantiles(dim, shards, band), data,
                            probes);
      for (uint32_t s = 0; s < shards; ++s) {
        data.UnsafeShard(s).ForEach([&](const PhKey& key, uint64_t) {
          EXPECT_EQ(data.ShardOf(key), s);
        });
      }
    }
  }
}

/// Every query type of `sharded` equals the plain tree's over random boxes
/// spanned by pairs of stored keys and random centres. `doubles`: the keys
/// are encoded doubles, so kNN also runs under kL2Double.
void ExpectQueriesMatchPlain(const PhTreeSharded& sharded, const PhTree& plain,
                             const std::vector<PhKey>& keys, bool doubles,
                             uint64_t seed) {
  ASSERT_EQ(sharded.size(), plain.size());
  const uint32_t dim = plain.dim();
  Rng rng(seed);
  for (int q = 0; q < 40; ++q) {
    PhKey lo(dim);
    PhKey hi(dim);
    const PhKey& a = keys[rng.NextBounded(keys.size())];
    const PhKey& b = keys[rng.NextBounded(keys.size())];
    for (uint32_t d = 0; d < dim; ++d) {
      lo[d] = std::min(a[d], b[d]);
      hi[d] = std::max(a[d], b[d]);
    }
    const auto expect = plain.QueryWindow(lo, hi);
    EXPECT_EQ(sharded.QueryWindow(lo, hi), expect) << "window " << q;
    EXPECT_EQ(sharded.CountWindow(lo, hi), expect.size()) << "count " << q;
    const size_t page_size = 1 + rng.NextBounded(40);
    std::vector<std::pair<PhKey, uint64_t>> paged;
    PhKey token;
    for (;;) {
      const WindowPage got =
          sharded.QueryWindowPage(lo, hi, page_size, token);
      const WindowPage want = plain.QueryWindowPage(lo, hi, page_size, token);
      ASSERT_EQ(got.entries, want.entries) << "page of window " << q;
      ASSERT_EQ(got.more, want.more);
      paged.insert(paged.end(), got.entries.begin(), got.entries.end());
      if (!got.more) {
        break;
      }
      ASSERT_EQ(got.token, want.token);
      token = got.token;
    }
    EXPECT_EQ(paged, expect);
  }
  for (int q = 0; q < 40; ++q) {
    PhKey center = keys[rng.NextBounded(keys.size())];
    if (q % 2 == 0) {
      for (auto& c : center) {
        c ^= rng.NextU64() >> (8 + rng.NextBounded(48));
      }
    }
    for (const size_t n : {1u, 7u, 50u}) {
      for (const KnnMetric metric :
           {KnnMetric::kL2Integer, KnnMetric::kL2Double}) {
        if (metric == KnnMetric::kL2Double && !doubles) {
          continue;
        }
        const auto expect = KnnSearch(plain, center, n, metric);
        const auto got = sharded.KnnSearch(center, n, metric);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(got[i].key, expect[i].key) << "kNN " << q << " rank " << i;
          EXPECT_EQ(got[i].dist2, expect[i].dist2);
        }
      }
    }
  }
}

TEST(PhTreeSharded, QueriesMatchPlainTreeUnderDefaultAndDataTables) {
  const Dataset cube = GenerateCube(6000, 3, 9);
  const std::vector<PhEntry> entries = EncodedEntries(cube);
  std::vector<PhKey> keys;
  PhTree plain(3);
  for (const PhEntry& e : entries) {
    keys.push_back(e.key);
    plain.Insert(e.key, e.value);
  }
  // Default prefix table: inserted one by one.
  PhTreeSharded by_insert(3, 8);
  for (const PhEntry& e : entries) {
    by_insert.Insert(e.key, e.value);
  }
  ExpectQueriesMatchPlain(by_insert, plain, keys, true, 1);
  // Data-chosen table: bulk-loaded into an empty tree.
  PhTreeSharded by_bulk(3, 8);
  by_bulk.BulkLoad(entries);
  EXPECT_LE(MaxShardShare(by_bulk), 0.2);
  ExpectQueriesMatchPlain(by_bulk, plain, keys, true, 2);
  // Full-range keys under both tables.
  const auto wide = RandomKeys(4000, 2, 3);
  PhTree plain_wide(2);
  PhTreeSharded wide_insert(2, 16);
  std::vector<PhEntry> wide_entries;
  for (size_t i = 0; i < wide.size(); ++i) {
    plain_wide.Insert(wide[i], i);
    wide_insert.Insert(wide[i], i);
    wide_entries.push_back(PhEntry{wide[i], i});
  }
  ExpectQueriesMatchPlain(wide_insert, plain_wide, wide, false, 4);
  PhTreeSharded wide_bulk(2, 16);
  wide_bulk.BulkLoad(wide_entries);
  ExpectQueriesMatchPlain(wide_bulk, plain_wide, wide, false, 5);
}

TEST(PhTreeSharded, BulkLoadIntoNonEmptyTreeKeepsTheTable) {
  PhTreeSharded tree(2, 8);
  ASSERT_TRUE(tree.Insert(PhKey{1, 1}, 0));
  const Dataset ds = GenerateCube(5000, 2, 11);
  tree.BulkLoad(EncodedEntries(ds));
  // Prefix splits still route every encoded [0,1)^2 point to one shard.
  EXPECT_EQ(tree.size(), ds.n() + 1);
  EXPECT_GT(MaxShardShare(tree), 0.99);
  tree.Clear();
  // Empty again: the next bulk load chooses a table from its data.
  tree.BulkLoad(EncodedEntries(ds));
  EXPECT_LE(MaxShardShare(tree), 0.2);
  EXPECT_TRUE(tree.Insert(PhKey{1, 1}, 0));
  EXPECT_EQ(tree.Find(PhKey{1, 1}), std::optional<uint64_t>(0));
  // Clear keeps the data splits: single inserts of the same kind of keys
  // spread over the shards instead of piling into one.
  tree.Clear();
  for (const PhEntry& e : EncodedEntries(GenerateCube(5000, 2, 12))) {
    tree.Insert(e.key, e.value);
  }
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_LE(MaxShardShare(tree), 0.2);
}

TEST(PhTreeSharded, ClearEmptiesEveryShard) {
  PhTreeSharded tree(2, 4);
  const auto keys = RandomKeys(500, 2, 31);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  EXPECT_GT(tree.size(), 0u);
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  for (const auto& key : keys) {
    EXPECT_FALSE(tree.Contains(key));
  }
  // Still usable after Clear.
  EXPECT_TRUE(tree.Insert(keys[0], 1));
}

TEST(PhTreeSharded, SingleShardDegeneratesToPlainTree) {
  const auto keys = RandomKeys(1000, 2, 41);
  PhTree plain(2);
  PhTreeSharded sharded(2, 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    plain.Insert(keys[i], i);
    sharded.Insert(keys[i], i);
  }
  const PhTreeStats a = plain.ComputeStats();
  const PhTreeStats b = sharded.ComputeStats();
  EXPECT_EQ(a.n_nodes, b.n_nodes);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.max_depth, b.max_depth);
}

TEST(PhTreeSharded, SaveLoadRoundTripAcrossShardCounts) {
  const uint32_t dim = 2;
  const auto keys = RandomKeys(2000, dim, 51);
  PhTreeSharded original(dim, 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    original.Insert(keys[i], i);
  }
  const std::string path = TempPath("sharded_snapshot.pht");
  ASSERT_TRUE(original.Save(path).ok());

  // Reload into a different shard count: content must be identical.
  PhTreeSharded reloaded(dim, 2);
  ASSERT_TRUE(reloaded.Load(path).ok());
  EXPECT_EQ(reloaded.size(), original.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reloaded.Find(keys[i]), std::optional<uint64_t>(i));
  }
  for (uint32_t s = 0; s < reloaded.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(reloaded.UnsafeShard(s)), "");
  }

  // The sharded snapshot is a plain v2 stream: a single tree loads it too,
  // byte-identically to a tree built from the same entries.
  auto plain = LoadPhTreeOr(path);
  ASSERT_TRUE(plain.has_value()) << plain.error().ToString();
  EXPECT_EQ(plain->size(), original.size());
  PhTree rebuilt(dim);
  std::vector<PhEntry> entries;
  for (size_t i = 0; i < keys.size(); ++i) {
    rebuilt.Insert(keys[i], i);
    entries.push_back(PhEntry{keys[i], i});
  }
  EXPECT_EQ(SerializePhTree(*plain), SerializePhTree(rebuilt));

  // Save writes the shards straight into the stream, in index order: the
  // file holds exactly the bytes of the plain tree's stream, under the
  // prefix table, under a table chosen from the data, and with one shard.
  const std::vector<uint8_t> expect_bytes = SerializePhTree(rebuilt);
  EXPECT_EQ(ReadFileBytes(path), expect_bytes) << "prefix-split, 8 shards";
  PhTreeSharded data_split(dim, 8);
  data_split.BulkLoad(entries);
  PhTreeSharded one_shard(dim, 1);
  for (size_t i = 0; i < keys.size(); ++i) {
    one_shard.Insert(keys[i], i);
  }
  const std::string other_path = TempPath("sharded_snapshot_other.pht");
  ASSERT_TRUE(data_split.Save(other_path).ok());
  EXPECT_EQ(ReadFileBytes(other_path), expect_bytes)
      << "data-split, 8 shards";
  ASSERT_TRUE(one_shard.Save(other_path).ok());
  EXPECT_EQ(ReadFileBytes(other_path), expect_bytes) << "1 shard";
  std::remove(other_path.c_str());

  // And the other direction: a plain SavePhTreeOr snapshot loads sharded.
  const std::string plain_path = TempPath("plain_snapshot.pht");
  ASSERT_TRUE(SavePhTreeOr(rebuilt, plain_path).ok());
  PhTreeSharded from_plain(dim, 16);
  ASSERT_TRUE(from_plain.Load(plain_path).ok());
  EXPECT_EQ(from_plain.size(), rebuilt.size());

  std::remove(path.c_str());
  std::remove(plain_path.c_str());
}

TEST(PhTreeSharded, LoadRejectsDimensionMismatch) {
  PhTree tree3(3);
  tree3.Insert(PhKey{1, 2, 3}, 4);
  const std::string path = TempPath("dim3_snapshot.pht");
  ASSERT_TRUE(SavePhTreeOr(tree3, path).ok());
  PhTreeSharded tree2(2, 4);
  tree2.Insert(PhKey{7, 7}, 1);
  const Status st = tree2.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Failed load leaves the tree untouched.
  EXPECT_EQ(tree2.size(), 1u);
  EXPECT_TRUE(tree2.Contains(PhKey{7, 7}));
  std::remove(path.c_str());
}

TEST(PhTreeSharded, LoadReportsIoErrorForMissingFile) {
  PhTreeSharded tree(2, 4);
  const Status st = tree.Load(TempPath("does_not_exist.pht"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(PhTreeShardedOneShard, SaveLoadRoundTrip) {
  PhTreeSharded tree(2, 1);
  const auto keys = RandomKeys(1000, 2, 61);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(keys[i], i);
  }
  const std::string path = TempPath("sync_snapshot.pht");
  ASSERT_TRUE(tree.Save(path).ok());

  PhTreeSharded reloaded(2, 1);
  ASSERT_TRUE(reloaded.Load(path).ok());
  EXPECT_EQ(reloaded.size(), tree.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reloaded.Find(keys[i]), std::optional<uint64_t>(i));
  }

  PhTreeSharded wrong_dim(3, 1);
  const Status st = wrong_dim.Load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PhTreeShardedOneShard, VisitorWindowQueryMatchesVector) {
  PhTreeSharded tree(2, 1);
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(PhKey{i, i * 2}, i);
  }
  const PhKey lo{10, 0};
  const PhKey hi{50, ~uint64_t{0}};
  const auto expect = tree.QueryWindow(lo, hi);
  std::vector<std::pair<PhKey, uint64_t>> visited;
  tree.QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
    visited.emplace_back(k, v);
  });
  EXPECT_EQ(expect, visited);
}

}  // namespace
}  // namespace phtree
