// Multithreaded stress tests for the thread-safe PH-tree, PhTreeSharded:
// one shard (a single writer mutex, lock-free readers) and lock-striped
// shards. Designed to run under the Tsan build preset
// (-DCMAKE_BUILD_TYPE=Tsan): every test mixes concurrent insert, erase,
// point and window reads, then checks structural invariants with
// validate.h after the threads join. Thread and op counts are sized so
// the whole file stays in seconds even at TSan's slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "phtree/sharded.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

std::vector<PhEntry> RandomEntries(size_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<PhEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    entries.push_back(PhEntry{std::move(key), i});
  }
  return entries;
}

// Shared stress scenario: `kWriters` threads churn random keys in a small
// key space (maximising node splits/merges and arena recycling), while
// `kReaders` threads run point lookups and window/count queries over a
// protected key range that is never erased. Works for any tree type with
// the common concurrent interface.
template <typename Tree>
void MixedChurnStress(Tree& tree, int writers, int readers, int ops) {
  // Protected keys: high bit patterns spread across shards; never erased.
  constexpr uint64_t kProtected = 256;
  for (uint64_t i = 0; i < kProtected; ++i) {
    const PhKey key{i << 56, i << 48};
    tree.InsertOrAssign(key, i);
  }
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&tree, t, ops] {
      Rng rng(1000 + t);
      for (int i = 0; i < ops; ++i) {
        // Low-entropy churn keys, disjoint from the protected range
        // (protected keys have low 48 bits zero; churn keys are odd).
        const PhKey key{rng.NextBounded(512) * 2 + 1,
                        rng.NextBounded(512) * 2 + 1};
        if (rng.NextBool(0.5)) {
          tree.InsertOrAssign(key, static_cast<uint64_t>(t));
        } else {
          tree.Erase(key);
        }
      }
    });
  }
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&tree, &reader_failed, t, ops] {
      Rng rng(2000 + t);
      for (int i = 0; i < ops; ++i) {
        const uint64_t k = rng.NextBounded(kProtected);
        const PhKey key{k << 56, k << 48};
        if (!tree.Contains(key)) {
          reader_failed = true;
        }
        if (i % 32 == 0) {
          const PhKey lo{0, 0};
          const PhKey hi{~uint64_t{0}, ~uint64_t{0}};
          if (tree.CountWindow(lo, hi) < kProtected) {
            reader_failed = true;
          }
        }
        if (i % 64 == 0) {
          size_t seen = 0;
          tree.QueryWindow(PhKey{0, 0}, PhKey{~uint64_t{0}, ~uint64_t{0}},
                           [&seen](const PhKey&, uint64_t) { ++seen; });
          if (seen < kProtected) {
            reader_failed = true;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(reader_failed.load());
}

TEST(PhTreeShardedConcurrency, OneShardMixedChurnStress) {
  PhTreeSharded tree(2, 1);
  MixedChurnStress(tree, 3, 2, 2000);
  // Quiescent now; nothing to validate beyond stats consistency. Nodes
  // retired by copy-on-write publications may still await their epoch
  // grace period, so the live-byte meter carries them alongside the
  // reachable bytes.
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.n_entries, 256u);
  EXPECT_EQ(stats.memory_bytes + stats.arena_retired_bytes,
            stats.arena_live_bytes);
}

TEST(PhTreeShardedOneShard, BasicOperations) {
  PhTreeSharded tree(2, 1);
  EXPECT_TRUE(tree.Insert(PhKey{1, 2}, 3));
  EXPECT_FALSE(tree.Insert(PhKey{1, 2}, 4));
  EXPECT_EQ(tree.Find(PhKey{1, 2}), std::optional<uint64_t>(3));
  EXPECT_EQ(tree.CountWindow(PhKey{0, 0}, PhKey{5, 5}), 1u);
  EXPECT_TRUE(tree.Erase(PhKey{1, 2}));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(PhTreeShardedOneShard, ConcurrentDisjointWriters) {
  PhTreeSharded tree(2, 1);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        // Disjoint key ranges per thread.
        const PhKey key{(static_cast<uint64_t>(t) << 32) | rng.NextU64() %
                            0xFFFFFFFF,
                        rng.NextU64()};
        tree.InsertOrAssign(key, t);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(tree.size(), 0u);
  EXPECT_LE(tree.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(PhTreeShardedOneShard, ReadersDuringWrites) {
  PhTreeSharded tree(2, 1);
  for (uint64_t i = 0; i < 1000; ++i) {
    tree.Insert(PhKey{i, i}, i);
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      Rng rng(7);
      // Bounded iterations: the readers stop on their own even if the
      // writer is slow to get scheduled on a single-core machine.
      for (int iter = 0; iter < 3000 && !stop.load(); ++iter) {
        const uint64_t i = rng.NextBounded(1000);
        // Keys 0..999 are never removed; they must always be visible.
        if (!tree.Contains(PhKey{i, i})) {
          failed = true;
        }
        if (iter % 64 == 0 &&
            tree.CountWindow(PhKey{0, 0}, PhKey{~0ULL, ~0ULL}) < 1000) {
          failed = true;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }
  // Writer churns extra keys above the protected range.
  std::thread writer([&] {
    Rng rng(8);
    for (int i = 0; i < 5000; ++i) {
      const PhKey key{1000 + rng.NextBounded(500), rng.NextBounded(500)};
      if (rng.NextBool(0.5)) {
        tree.InsertOrAssign(key, i);
      } else {
        tree.Erase(key);
      }
    }
  });
  writer.join();
  stop = true;
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads.load(), 0u);
}

TEST(PhTreeShardedOneShard, ConcurrentChurnRecyclesArenaSafely) {
  // Insert/erase churn from several writers hammers the arena freelists
  // (node slots and word blocks are recycled constantly). The wrapper's
  // writer lock must make that safe: under ASan this is the test that
  // catches a double-free or use-after-recycle in the slab allocator.
  PhTreeSharded tree(2, 1);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      Rng rng(200 + t);
      for (int i = 0; i < kOps; ++i) {
        // Small shared key space => high collision rate => constant node
        // splits and merges across threads.
        const PhKey key{rng.NextBounded(256), rng.NextBounded(256)};
        if (rng.NextBool(0.5)) {
          tree.InsertOrAssign(key, static_cast<uint64_t>(t));
        } else {
          tree.Erase(key);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_LE(stats.n_entries, 256u * 256u);
  // Accounting stayed exact through the churn: copy-on-write publications
  // may leave nodes retired but not yet past their grace period, and the
  // arena's live-byte meter carries them alongside the reachable bytes.
  EXPECT_EQ(stats.memory_bytes + stats.arena_retired_bytes,
            stats.arena_live_bytes);
}

TEST(PhTreeShardedConcurrency, MixedChurnStress) {
  PhTreeSharded tree(2, 8);
  MixedChurnStress(tree, 3, 2, 2000);
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_GE(stats.n_entries, 256u);
  EXPECT_EQ(stats.memory_bytes + stats.arena_retired_bytes,
            stats.arena_live_bytes);
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(tree.UnsafeShard(s)), "") << "shard " << s;
  }
}

TEST(PhTreeShardedConcurrency, ParallelWritersOnDisjointShards) {
  // One writer per shard, writing only keys that route to its shard: no
  // writer ever contends, and every shard ends internally consistent.
  PhTreeSharded tree(2, 4);
  std::vector<std::thread> threads;
  constexpr int kPerThread = 3000;
  for (uint32_t s = 0; s < 4; ++s) {
    threads.emplace_back([&tree, s] {
      PhKey lo;
      PhKey hi;
      tree.ShardRegion(s, &lo, &hi);
      Rng rng(300 + s);
      for (int i = 0; i < kPerThread; ++i) {
        // Random key inside the shard's box: the region is a power-of-two
        // aligned box, so hi - lo is a mask of the free bits.
        PhKey key(2);
        for (uint32_t d = 0; d < 2; ++d) {
          key[d] = lo[d] | (rng.NextU64() & (hi[d] - lo[d]));
        }
        EXPECT_EQ(tree.ShardOf(key), s);
        tree.InsertOrAssign(key, s);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(tree.size(), 0u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ValidatePhTree(tree.UnsafeShard(s)), "") << "shard " << s;
  }
}

TEST(PhTreeShardedConcurrency, BulkLoadRacesWithReaders) {
  // BulkLoad holds only per-shard writer locks, so concurrent readers must
  // stay safe (they see each shard either before or after its build).
  PhTreeSharded tree(2, 8);
  const auto warm = RandomEntries(512, 2, 71);
  tree.BulkLoad(warm);
  const auto entries = RandomEntries(20000, 2, 72);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(400 + t);
      while (!stop.load()) {
        // Warm keys were fully loaded before the race began.
        const auto& e = warm[rng.NextBounded(warm.size())];
        if (tree.Find(e.key) != std::optional<uint64_t>(e.value)) {
          failed = true;
        }
        std::this_thread::yield();
      }
    });
  }
  const size_t inserted = tree.BulkLoad(entries);
  stop = true;
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_LE(inserted, entries.size());
  EXPECT_EQ(tree.size(), warm.size() + inserted);
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(tree.UnsafeShard(s)), "") << "shard " << s;
  }
}

TEST(PhTreeShardedConcurrency, SaveWhileWritersChurn) {
  // Save takes all reader locks together: it must produce a loadable,
  // internally consistent snapshot no matter how writers interleave
  // before/after it.
  PhTreeSharded tree(2, 4);
  const auto base = RandomEntries(2000, 2, 81);
  tree.BulkLoad(base);
  const std::string path = testing::TempDir() + "/churn_snapshot.pht";
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(82);
    while (!stop.load()) {
      const PhKey key{rng.NextBounded(1024), rng.NextBounded(1024)};
      if (rng.NextBool(0.5)) {
        tree.InsertOrAssign(key, 7);
      } else {
        tree.Erase(key);
      }
    }
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree.Save(path).ok());
    PhTreeSharded reloaded(2, 8);
    ASSERT_TRUE(reloaded.Load(path).ok());
    // Base entries use the full 64-bit key space; the churn keys live in
    // [0, 1024)^2, so collisions are vanishingly unlikely — every base
    // entry must be in the snapshot.
    size_t missing = 0;
    for (const auto& e : base) {
      missing += reloaded.Contains(e.key) ? 0 : 1;
    }
    EXPECT_EQ(missing, 0u);
    for (uint32_t s = 0; s < reloaded.num_shards(); ++s) {
      EXPECT_EQ(ValidatePhTree(reloaded.UnsafeShard(s)), "");
    }
  }
  stop = true;
  writer.join();
  std::remove(path.c_str());
}

TEST(PhTreeShardedConcurrency, ConcurrentMixedQueriesDuringChurn) {
  // Window fan-out, count fan-out and kNN all run while writers churn;
  // nothing here asserts cross-shard snapshot semantics (there are none),
  // only memory safety and per-shard consistency — the TSan target.
  PhTreeSharded tree(3, 8);
  const auto base = RandomEntries(3000, 3, 91);
  tree.BulkLoad(base);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&tree, t, &stop] {
      Rng rng(500 + t);
      while (!stop.load()) {
        PhKey key(3);
        for (auto& v : key) {
          v = rng.NextU64();
        }
        if (rng.NextBool(0.7)) {
          tree.InsertOrAssign(key, t);
        } else {
          tree.Erase(key);
        }
      }
    });
  }
  Rng rng(510);
  for (int q = 0; q < 60; ++q) {
    PhKey lo(3);
    PhKey hi(3);
    for (uint32_t d = 0; d < 3; ++d) {
      const uint64_t a = rng.NextU64();
      const uint64_t b = rng.NextU64();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const size_t count = tree.CountWindow(lo, hi);
    const auto results = tree.QueryWindow(lo, hi);
    // Both ran against a churning tree; only sanity, not equality.
    (void)count;
    for (const auto& [key, value] : results) {
      for (uint32_t d = 0; d < 3; ++d) {
        EXPECT_GE(key[d], lo[d]);
        EXPECT_LE(key[d], hi[d]);
      }
    }
    const auto knn = tree.KnnSearch(lo, 8);
    EXPECT_LE(knn.size(), 8u);
  }
  stop = true;
  for (auto& th : threads) {
    th.join();
  }
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    EXPECT_EQ(ValidatePhTree(tree.UnsafeShard(s)), "") << "shard " << s;
  }
}

TEST(PhTreeShardedConcurrency, ReRouteRacesWithWritersAndReaders) {
  // Each round empties the tree, then bulk-loads it while writers insert
  // and readers look up what the writers already inserted. The bulk load
  // replaces the routing table when it finds the tree still empty under
  // all writer mutexes, and merges into the writers' content otherwise;
  // alternating large and tiny loads makes both outcomes likely.
  constexpr int kRounds = 6;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr size_t kPerWriter = 1500;
  // Keys in a narrow band like encoded doubles, so a table chosen from the
  // data differs from the prefix table. The low two bits keep the sets
  // disjoint: bulk keys end in 0, writer t's in 1 + 2t.
  Rng rng(601);
  auto band_key = [&rng](uint64_t tag) {
    const uint64_t x = 0x3ff0000000000000ULL | (rng.NextU64() >> 12);
    return PhKey{(x & ~3ULL) | tag,
                 0x3ff0000000000000ULL | (rng.NextU64() >> 12)};
  };
  std::vector<PhEntry> bulk;
  for (size_t i = 0; i < 8000; ++i) {
    bulk.push_back(PhEntry{band_key(0), i});
  }
  std::vector<std::vector<PhKey>> own(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      own[t].push_back(band_key(1 + 2 * t));
    }
  }
  PhTreeSharded tree(2, 8);
  for (int round = 0; round < kRounds; ++round) {
    tree.Clear();
    const std::span<const PhEntry> load =
        round % 2 == 0 ? std::span<const PhEntry>(bulk)
                       : std::span<const PhEntry>(bulk).first(64);
    std::atomic<bool> go{false};
    std::atomic<int> writers_left{kWriters};
    std::atomic<bool> failed{false};
    std::vector<std::atomic<size_t>> published(kWriters);
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) {
          std::this_thread::yield();
        }
        for (size_t i = 0; i < kPerWriter; ++i) {
          if (!tree.Insert(own[t][i], i)) {
            failed = true;  // the key is new to the tree
          }
          published[t].store(i + 1, std::memory_order_release);
        }
        --writers_left;
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        Rng pick(700 + round * kReaders + t);
        while (writers_left.load() > 0) {
          const size_t w = pick.NextBounded(kWriters);
          const size_t n = published[w].load(std::memory_order_acquire);
          if (n == 0) {
            std::this_thread::yield();
            continue;
          }
          // Inserted before this Find began: visible under any table.
          const size_t i = pick.NextBounded(n);
          if (tree.Find(own[w][i]) != std::optional<uint64_t>(i)) {
            failed = true;
          }
        }
      });
    }
    go = true;
    const size_t loaded = tree.BulkLoad(load);
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_FALSE(failed.load()) << "round " << round;
    EXPECT_EQ(loaded, load.size());
    EXPECT_EQ(tree.size(), load.size() + kWriters * kPerWriter);
    for (int t = 0; t < kWriters; ++t) {
      for (size_t i = 0; i < kPerWriter; ++i) {
        ASSERT_EQ(tree.Find(own[t][i]), std::optional<uint64_t>(i));
      }
    }
    for (const PhEntry& e : load) {
      ASSERT_EQ(tree.Find(e.key), std::optional<uint64_t>(e.value));
    }
    for (uint32_t s = 0; s < tree.num_shards(); ++s) {
      size_t misrouted = 0;
      tree.UnsafeShard(s).ForEach([&](const PhKey& key, uint64_t) {
        misrouted += tree.ShardOf(key) != s ? 1 : 0;
      });
      EXPECT_EQ(misrouted, 0u) << "round " << round << " shard " << s;
      EXPECT_EQ(ValidatePhTree(tree.UnsafeShard(s)), "");
    }
  }
}

TEST(PhTreeShardedConcurrency, ReRoutesWhileWritersChurnToEmpty) {
  // The tree keeps falling empty: writers insert and erase their own
  // temporary keys, and a re-router bulk-loads, then erases, one of two
  // loads from different bands, so every load into the empty tree
  // installs a table unlike the last one. A writer that routed by the old
  // table and then waited on its shard mutex across the swap must
  // re-route; if it did not, its key would land in a shard the next
  // lookup does not search, and its own Erase would miss it. Readers
  // check that full-space windows and ForEach visits stay strictly
  // z-ordered across swaps: each read sees one table and its trees.
  constexpr int kCycles = 1000;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  Rng rng(611);
  auto band_key = [](Rng& r, uint64_t band, uint64_t tag) {
    const uint64_t x = band | (r.NextU64() >> 12);
    return PhKey{(x & ~3ULL) | tag, band | (r.NextU64() >> 12)};
  };
  constexpr uint64_t kBands[2] = {0x3ff0000000000000ULL,
                                  0xbff0000000000000ULL};
  std::vector<PhEntry> loads[2];
  for (int b = 0; b < 2; ++b) {
    for (size_t i = 0; i < 64; ++i) {
      loads[b].push_back(PhEntry{band_key(rng, kBands[b], 0), i});
    }
  }
  PhTreeSharded tree(2, 8);
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng own(620 + t);
      while (!done.load()) {
        const PhKey key =
            band_key(own, kBands[own.NextBounded(2)], 1 + 2 * t);
        if (!tree.Insert(key, 1) || !tree.Erase(key)) {
          failed = true;
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      const PhKey lo{0, 0};
      const PhKey hi{~uint64_t{0}, ~uint64_t{0}};
      std::vector<PhKey> seen;
      auto visit = [&seen](const PhKey& key, uint64_t) {
        seen.push_back(key);
      };
      for (uint64_t i = 0; !done.load(); ++i) {
        seen.clear();
        switch ((i + t) % 3) {
          case 0:
            for (auto& [key, value] : tree.QueryWindow(lo, hi)) {
              seen.push_back(std::move(key));
            }
            break;
          case 1:
            tree.QueryWindow(lo, hi, visit);
            break;
          default:
            tree.ForEach(visit);
            break;
        }
        for (size_t k = 1; k < seen.size(); ++k) {
          if (!ZOrderLess(seen[k - 1], seen[k])) {
            failed = true;
          }
        }
      }
    });
  }
  for (int c = 0; c < kCycles && !failed.load(); ++c) {
    const std::vector<PhEntry>& load = loads[c % 2];
    if (tree.BulkLoad(load) != load.size()) {
      failed = true;
    }
    for (const PhEntry& e : load) {
      if (!tree.Erase(e.key)) {
        failed = true;
      }
    }
  }
  done = true;
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(PhTreeShardedConcurrency, MoreWritersThanEpochSlotsOnOneShard) {
  // Narrow-range keys under the prefix table all route to one shard, so
  // every writer queues on one mutex. A writer waiting there must hold no
  // epoch slot: with more waiters than slots, the mutex holder's own write
  // could otherwise never claim one.
  constexpr int kWriters = static_cast<int>(EpochManager::kSlots) + 32;
  constexpr size_t kPerWriter = 64;
  PhTreeSharded tree(2, 8);
  std::atomic<int> ready{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      std::vector<PhKey> keys;
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t x = 0x3ff0000000000000ULL | (rng.NextU64() >> 12);
        keys.push_back(PhKey{(x & ~uint64_t{127}) | static_cast<uint64_t>(t),
                             0x3ff0000000000000ULL | (rng.NextU64() >> 12)});
      }
      ++ready;
      while (ready.load() < kWriters) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < kPerWriter; ++i) {
        if (!tree.Insert(keys[i], i)) {
          failed = true;
        }
      }
      for (size_t i = 0; i < kPerWriter; i += 2) {
        if (!tree.Erase(keys[i])) {
          failed = true;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(tree.size(), kWriters * kPerWriter / 2);
  size_t largest = 0;
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    largest = std::max(largest, tree.UnsafeShard(s).size());
    EXPECT_EQ(ValidatePhTree(tree.UnsafeShard(s)), "");
  }
  EXPECT_EQ(largest, tree.size());  // one shard took every write
}

}  // namespace
}  // namespace phtree
