// Epoch-based reclamation: EpochManager advance rules, the deferred-free
// ordering contract (a retired node's memory stays intact — and is never
// recycled — while any read guard that could see it is open), the fault
// sweep over the copy-on-write allocation sites, and the equivalence of
// plain and MVCC trees under one op stream. The read-after-
// retire checks double as ASan canaries: if the arena freed (and poisoned)
// a retired node before its grace period, the reads here would abort the
// Asan tier-1 leg.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "phtree/arena.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/sharded.h"
#include "phtree/validate.h"
#include "testlib/fault_sweep.h"

namespace phtree {
namespace {

TEST(EpochManager, AdvancesFreelyWhenIdle) {
  EpochManager mgr;
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.epoch(), 3u);
}

TEST(EpochManager, OpenGuardBoundsAdvanceToOne) {
  EpochManager mgr;
  {
    EpochManager::ReadGuard guard(mgr);
    // The guard announced epoch 1. One advance (to 2) is allowed — the
    // reader provably entered no later than 1 — but a second would let a
    // node retired at 2 be freed under the reader's feet.
    EXPECT_TRUE(mgr.TryAdvance());
    EXPECT_EQ(mgr.epoch(), 2u);
    EXPECT_FALSE(mgr.TryAdvance());
    EXPECT_FALSE(mgr.TryAdvance());
    EXPECT_EQ(mgr.epoch(), 2u);
  }
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.epoch(), 3u);
}

TEST(EpochManager, SynchronizeFullGraceWaitsForGuards) {
  EpochManager mgr;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};
  std::thread reader([&] {
    EpochManager::ReadGuard guard(mgr);
    entered = true;
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!entered.load()) {
    std::this_thread::yield();
  }
  std::thread syncer([&] {
    mgr.SynchronizeFullGrace();
    synced = true;
  });
  // The syncer cannot finish while the guard is open: it needs two
  // advances past the guard's announcement and the guard blocks all but
  // (at most) one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(synced.load());
  release = true;
  reader.join();
  syncer.join();
  EXPECT_TRUE(synced.load());
}

PhKey K(uint64_t a, uint64_t b) { return PhKey{a, b}; }

TEST(EpochReclaim, RetiredNodeStaysIntactWhileGuardOpen) {
  EpochManager epochs;
  PhTree tree(2);
  tree.EnableMvcc(&epochs);
  for (uint64_t i = 0; i < 32; ++i) {
    tree.Insert(K(i << 32, i << 16), i);
  }
  const NodeArena* arena = tree.arena();
  ASSERT_NE(arena, nullptr);

  EpochManager::ReadGuard guard(epochs);
  const uint64_t e0 = epochs.epoch();
  const size_t pre_retired = arena->retired_nodes();
  const uint64_t pre_reclaimed = arena->reclaimed_nodes_total();
  // Snapshot the root, then force a copy-on-write of it: a key whose top
  // address bit differs from every setup key (those all have bit 63
  // clear) adds an entry to the root node itself, so the root is cloned,
  // republished, and the old root retired — not freed, our guard is open.
  const Node* old_root = tree.root();
  ASSERT_NE(old_root, nullptr);
  ASSERT_TRUE(tree.Insert(K(uint64_t{1} << 63, 21), 1));
  EXPECT_NE(tree.root(), old_root);
  EXPECT_GE(arena->retired_nodes(), 1u);
  EXPECT_GT(arena->RetiredBytes(), 0u);

  // Churn hard: every mutation tries to reclaim, but while this guard is
  // open the epoch advances at most once past our announcement, so no
  // node retired after we entered can complete its deferred free (only
  // pre-guard retirees, already unreachable to us, may still drain).
  for (uint64_t i = 0; i < 200; ++i) {
    tree.InsertOrAssign(K(i * 2 + 1, i * 2 + 1), i);
    if (i % 3 == 0) {
      tree.Erase(K(i * 2 + 1, i * 2 + 1));
    }
  }
  EXPECT_LE(epochs.epoch(), e0 + 1);
  EXPECT_LE(arena->reclaimed_nodes_total() - pre_reclaimed, pre_retired);
  // ASan canary: the snapshot root must still be fully readable. A
  // premature free would have poisoned the slot and these loads abort.
  EXPECT_EQ(old_root->postfix_len(), kBitWidth - 1);
  EXPECT_GE(old_root->num_entries(), 1u);
}

TEST(EpochReclaim, DeferredFreeCompletesAfterGuardExit) {
  EpochManager epochs;
  PhTree tree(2);
  tree.EnableMvcc(&epochs);
  for (uint64_t i = 0; i < 64; ++i) {
    tree.Insert(K(i * 0x9e3779b97f4a7c15ULL, i), i);
  }
  const NodeArena* arena = tree.arena();
  {
    EpochManager::ReadGuard guard(epochs);
    tree.Insert(K(7, 7), 7);
    ASSERT_GE(arena->retired_nodes(), 1u);
  }
  // Guard closed: each further mutation's Reclaim can advance the epoch
  // once, so after a few of them every earlier retiree is two epochs old
  // and gets its deferred DeleteNode.
  const uint64_t before = arena->reclaimed_nodes_total();
  for (uint64_t i = 0; i < 8; ++i) {
    tree.Insert(K(i + 1000, i + 1000), i);
  }
  EXPECT_GT(arena->reclaimed_nodes_total(), before);
  // Quiescent bookkeeping stays exact with the retired queue counted in.
  EXPECT_EQ(ValidatePhTree(tree), "");
  const PhTreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.memory_bytes + stats.arena_retired_bytes,
            stats.arena_live_bytes);
  EXPECT_GE(stats.epoch, 1u);
  EXPECT_GT(stats.arena_reclaimed_nodes, 0u);
}

TEST(EpochReclaim, ClearRetiresWholeTreeUnderGuard) {
  EpochManager epochs;
  PhTree tree(2);
  tree.EnableMvcc(&epochs);
  for (uint64_t i = 0; i < 128; ++i) {
    tree.Insert(K(i * 0x2545f4914f6cdd1dULL, ~i), i);
  }
  const size_t reachable = tree.ComputeStats().n_nodes;
  EpochManager::ReadGuard guard(epochs);
  const Node* old_root = tree.root();
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), nullptr);
  // Every reachable node of the old tree is retired, none freed (their
  // retire stamp is current, and our guard pins the epoch): a reader
  // mid-traversal keeps a consistent snapshot.
  EXPECT_GE(tree.arena()->retired_nodes(), reachable);
  EXPECT_EQ(old_root->postfix_len(), kBitWidth - 1);  // ASan canary
}

TEST(EpochReclaim, FaultSweepCoversCowAllocationSites) {
  testlib::FaultSweepOptions opts;
  opts.mvcc = true;
  opts.commands.dim = 2;
  opts.ops = 600;
  opts.seed = 20260809;
  opts.deep_every = 64;
  const testlib::FaultSweepReport report = testlib::RunFaultSweep(opts);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_GT(report.injected_failures, 0u);
}

TEST(EpochReclaim, SyncLoadSwapsUnderLockFreeReaders) {
  const std::string path = testing::TempDir() + "/epoch_load_swap.pht";
  PhTreeSharded tree(2, 1);
  for (uint64_t i = 0; i < 512; ++i) {
    tree.Insert(K(i << 40, i << 20), i);
  }
  ASSERT_TRUE(tree.Save(path).ok());
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 12345 + static_cast<uint64_t>(t);
      while (!stop.load()) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t i = (x >> 33) % 512;
        // Every saved key must be present in every published tree: the
        // churn below only touches odd low-bit keys and Load restores the
        // same content.
        if (tree.Find(K(i << 40, i << 20)) != std::optional<uint64_t>(i)) {
          failed = true;
        }
      }
    });
  }
  for (int round = 0; round < 5; ++round) {
    for (uint64_t i = 0; i < 200; ++i) {
      tree.InsertOrAssign(K(i * 2 + 1, i * 2 + 1), i);
    }
    ASSERT_TRUE(tree.Load(path).ok());
    EXPECT_EQ(tree.size(), 512u);
  }
  stop = true;
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  std::remove(path.c_str());
}

// ---- One mutation path, two modes ------------------------------------------
//
// A plain tree and an MVCC tree share the descent and every structural case;
// they differ only in whether the edited node is the live one or a clone.
// So the same op stream must give the same outcomes and the same tree after
// every op, down to the serialized bytes and the measured node bytes.

enum class MutKind { kInsert, kAssign, kErase, kUpdate };

struct Mutation {
  MutKind kind;
  PhKey key;
  PhKey to;  // kUpdate only
  uint64_t value = 0;
};

const char* OpStatusName(OpStatus st) {
  switch (st) {
    case OpStatus::kApplied:
      return "kApplied";
    case OpStatus::kNoop:
      return "kNoop";
    case OpStatus::kNoMem:
      return "kNoMem";
  }
  return "?";
}

std::string ApplyMutation(PhTree& tree, const Mutation& m) {
  switch (m.kind) {
    case MutKind::kInsert:
      return OpStatusName(tree.TryInsert(m.key, m.value));
    case MutKind::kAssign:
      return OpStatusName(tree.TryInsertOrAssign(m.key, m.value));
    case MutKind::kErase:
      return OpStatusName(tree.TryErase(m.key));
    case MutKind::kUpdate:
      return UpdateOutcomeName(tree.TryUpdate(m.key, m.to, m.value));
  }
  return "?";
}

testing::AssertionResult SameTree(const PhTree& plain, const PhTree& mvcc) {
  const PhTreeStats p = plain.ComputeStats();
  const PhTreeStats m = mvcc.ComputeStats();
  if (p.n_nodes != m.n_nodes || p.n_hc_nodes != m.n_hc_nodes ||
      p.n_lhc_nodes != m.n_lhc_nodes || p.n_bhc_nodes != m.n_bhc_nodes ||
      p.memory_bytes != m.memory_bytes) {
    return testing::AssertionFailure()
           << "plain nodes/hc/lhc/bhc/bytes " << p.n_nodes << "/"
           << p.n_hc_nodes << "/" << p.n_lhc_nodes << "/" << p.n_bhc_nodes
           << "/" << p.memory_bytes << " vs mvcc " << m.n_nodes << "/"
           << m.n_hc_nodes << "/" << m.n_lhc_nodes << "/" << m.n_bhc_nodes
           << "/" << m.memory_bytes;
  }
  if (m.memory_bytes + m.arena_retired_bytes != m.arena_live_bytes) {
    return testing::AssertionFailure()
           << "mvcc reachable " << m.memory_bytes << " + retired "
           << m.arena_retired_bytes << " != live " << m.arena_live_bytes;
  }
  if (SerializePhTree(plain) != SerializePhTree(mvcc)) {
    return testing::AssertionFailure() << "serialized streams differ";
  }
  if (plain.update_stats().fast_path != mvcc.update_stats().fast_path ||
      plain.update_stats().fallback != mvcc.update_stats().fallback) {
    return testing::AssertionFailure() << "update strategies differ";
  }
  return testing::AssertionSuccess();
}

TEST(MutationModes, PlainAndMvccTreesEvolveIdentically) {
  const PhKey a{0, 0};
  const PhKey b{1, 0};
  const PhKey d{4, 0};
  const PhKey e{uint64_t{1} << 63, 0};
  const PhKey e2{uint64_t{1} << 63, 7};
  const PhKey f{0, uint64_t{1} << 63};
  const PhKey h{2, 0};
  const PhKey x{1, uint64_t{1} << 40};
  const PhKey missing{9, 9};
  // Each scripted step names the structural case it drives (2D keys; the
  // root sits at postfix length 63).
  struct Step {
    Mutation m;
    const char* expect;
  };
  const std::vector<Step> script = {
      {{MutKind::kInsert, a, {}, 1}, "kApplied"},      // root creation
      {{MutKind::kInsert, a, {}, 2}, "kNoop"},         // duplicate
      {{MutKind::kAssign, a, {}, 3}, "kNoop"},         // payload overwrite
      {{MutKind::kInsert, b, {}, 4}, "kApplied"},      // postfix collision
      {{MutKind::kInsert, d, {}, 5}, "kApplied"},      // infix split
      {{MutKind::kInsert, e, {}, 6}, "kApplied"},      // free root slot
      {{MutKind::kUpdate, e, e2, 7}, "kMoved"},        // same-slot relocation
      {{MutKind::kUpdate, e2, f, 8}, "kMoved"},        // in-node slot change
      {{MutKind::kUpdate, f, a, 9}, "kNewOccupied"},   // found by the insert
      {{MutKind::kUpdate, b, a, 9}, "kNewOccupied"},   // found in the node
      {{MutKind::kUpdate, missing, a, 9}, "kOldMissing"},
      // Insert-then-erase fallback: the insert splits an infix at bit 40,
      // the erase merges the pair {a, b} into its parent.
      {{MutKind::kUpdate, b, x, 10}, "kMoved"},
      {{MutKind::kErase, missing, {}, 0}, "kNoop"},
      {{MutKind::kErase, d, {}, 0}, "kApplied"},       // merge
      {{MutKind::kInsert, h, {}, 11}, "kApplied"},     // postfix collision
      {{MutKind::kErase, x, {}, 0}, "kApplied"},       // splice
      {{MutKind::kErase, a, {}, 0}, "kApplied"},       // merge
      {{MutKind::kErase, h, {}, 0}, "kApplied"},       // root removal
      {{MutKind::kErase, f, {}, 0}, "kApplied"},       // last entry
      {{MutKind::kErase, f, {}, 0}, "kNoop"},          // empty tree
      {{MutKind::kUpdate, f, a, 0}, "kOldMissing"},
  };
  // Set mode with HC forced everywhere makes every ancestor a key-only HC
  // node, whose sub handles cannot be republished by one atomic store: the
  // MVCC publication then climbs by cloning up to the root.
  PhTreeConfig set_mode;
  set_mode.store_values = false;
  PhTreeConfig key_only_hc = set_mode;
  key_only_hc.repr = NodeRepr::kHcOnly;
  for (const PhTreeConfig& config :
       {PhTreeConfig{}, set_mode, key_only_hc}) {
    SCOPED_TRACE(testing::Message() << "store_values=" << config.store_values
                                    << " repr=" << static_cast<int>(config.repr));
    EpochManager epochs;
    PhTree plain(2, config);
    PhTree mvcc(2, config);
    mvcc.EnableMvcc(&epochs);
    for (size_t i = 0; i < script.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "script step " << i);
      const Step& step = script[i];
      FaultInjector meter;  // disarmed: counts allocation-site hits only
      SetFaultInjector(&meter);
      const std::string plain_out = ApplyMutation(plain, step.m);
      const uint64_t plain_allocs = meter.site_hits(FaultSite::kArenaNodeAlloc);
      const std::string mvcc_out = ApplyMutation(mvcc, step.m);
      const uint64_t mvcc_allocs =
          meter.site_hits(FaultSite::kArenaNodeAlloc) - plain_allocs;
      SetFaultInjector(nullptr);
      EXPECT_EQ(plain_out, step.expect);
      EXPECT_EQ(mvcc_out, step.expect);
      ASSERT_TRUE(SameTree(plain, mvcc));
      if (i == 5) {
        // Insert into a free slot: the plain tree edits the live root and
        // allocates no node; the MVCC tree clones the root.
        EXPECT_EQ(plain_allocs, 0u);
        EXPECT_GE(mvcc_allocs, 1u);
      }
    }
    EXPECT_TRUE(plain.empty());
    EXPECT_GT(plain.update_stats().fast_path, 0u);
    EXPECT_GT(plain.update_stats().fallback, 0u);

    // Random churn over coordinates built from a few spread-out bits, so
    // every structural case recurs at many depths and representations.
    Rng rng(4242);
    const auto random_coord = [&rng] {
      static constexpr int kBits[] = {63, 41, 40, 20, 2, 1, 0};
      uint64_t v = 0;
      for (const int bit : kBits) {
        v |= (rng.NextU64() & 1) << bit;
      }
      return v;
    };
    std::set<PhKey> live;
    const auto pick = [&]() -> PhKey {
      if (!live.empty() && rng.NextBounded(5) != 0) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(live.size())));
        return *it;
      }
      return PhKey{random_coord(), random_coord()};
    };
    for (uint64_t i = 0; i < 3000; ++i) {
      Mutation m;
      const uint64_t r = rng.NextBounded(20);
      m.value = i;
      if (r < 8) {
        m.kind = MutKind::kInsert;
        m.key = PhKey{random_coord(), random_coord()};
      } else if (r < 10) {
        m.kind = MutKind::kAssign;
        m.key = pick();
      } else if (r < 14) {
        m.kind = MutKind::kErase;
        m.key = pick();
      } else {
        m.kind = MutKind::kUpdate;
        m.key = pick();
        m.to = m.key;
        if (r < 18) {
          m.to[rng.NextBounded(2)] ^= uint64_t{1} << rng.NextBounded(3);
        } else {
          m.to = PhKey{random_coord(), random_coord()};
        }
      }
      const std::string plain_out = ApplyMutation(plain, m);
      ASSERT_EQ(plain_out, ApplyMutation(mvcc, m)) << "churn op " << i;
      ASSERT_TRUE(SameTree(plain, mvcc)) << "churn op " << i;
      if (plain_out == "kApplied" && m.kind != MutKind::kErase) {
        live.insert(m.key);
      } else if (plain_out == "kApplied") {
        live.erase(m.key);
      } else if (plain_out == "kMoved") {
        live.erase(m.key);
        live.insert(m.to);
      }
    }
    EXPECT_EQ(plain.size(), live.size());
    EXPECT_EQ(ValidatePhTree(plain), "");
    EXPECT_EQ(ValidatePhTree(mvcc), "");
  }
}

}  // namespace
}  // namespace phtree
