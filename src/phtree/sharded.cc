#include "phtree/sharded.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/bits.h"
#include "common/fault.h"
#include "phtree/cursor.h"

namespace phtree {

/// Immutable routing: the table and the S shard trees it filled. The trees
/// themselves change under their shard's writer mutex; which trees and
/// which table form the layout changes only by replacing the whole layout
/// (Install).
struct PhTreeSharded::Layout {
  RoutingTable table;
  std::vector<PhTree> trees;  // MVCC trees, one per shard
};

PhTreeSharded::PhTreeSharded(uint32_t dim, uint32_t num_shards,
                             const PhTreeConfig& config, ThreadPool* pool)
    : dim_(dim),
      config_(config),
      pool_(pool != nullptr ? pool : &ThreadPool::Shared()),
      mutexes_(std::max(num_shards, 1u)) {
  assert(dim >= 1);
  assert(num_shards >= 1 && (num_shards & (num_shards - 1)) == 0 &&
         "num_shards must be a power of two");
  num_shards = this->num_shards();
  // More prefix bits than interleaved key bits would alias shards to empty
  // regions; 64*dim bits is the whole key, far beyond any sane S anyway.
  assert(static_cast<uint32_t>(std::countr_zero(num_shards)) <= 64 * dim_);
  layout_.store(
      BuildLayout({}, config, RoutingTable::Prefix(dim, num_shards)).release(),
      std::memory_order_release);
}

PhTreeSharded::~PhTreeSharded() {
  delete layout_.load(std::memory_order_relaxed);
}

uint32_t PhTreeSharded::ShardOf(std::span<const uint64_t> key) const {
  EpochManager::ReadGuard guard(epochs_);
  return layout().table.ShardOf(key);
}

void PhTreeSharded::ShardRegion(uint32_t s, PhKey* lo, PhKey* hi) const {
  assert(s < num_shards());
  EpochManager::ReadGuard guard(epochs_);
  layout().table.Bounds(s, lo, hi);
}

const PhTree& PhTreeSharded::UnsafeShard(uint32_t s) const {
  return layout().trees[s];
}

PhTreeSharded::Route PhTreeSharded::LockRoute(std::span<const uint64_t> a,
                                              std::span<const uint64_t> b) {
  uint32_t sa;
  uint32_t sb;
  {
    // Only for the routing: a writer waiting for a mutex holds no epoch
    // slot, so queued writers neither exhaust the slots nor stall epoch
    // advances.
    EpochManager::ReadGuard guard(epochs_);
    const RoutingTable& table = layout().table;
    sa = table.ShardOf(a);
    sb = b.empty() ? sa : table.ShardOf(b);
  }
  for (;;) {
    Route r{nullptr, sa, sb, {}, {}};
    r.first = std::unique_lock(mutexes_[std::min(sa, sb)].mutex);
    if (sa != sb) {
      r.second = std::unique_lock(mutexes_[std::max(sa, sb)].mutex);
    }
    // Install swaps layouts only under every writer mutex, so the layout
    // read here stays current until the locks are released.
    r.layout = layout_.load(std::memory_order_acquire);
    sa = r.layout->table.ShardOf(a);
    sb = b.empty() ? sa : r.layout->table.ShardOf(b);
    if (sa == r.a && sb == r.b) {
      return r;
    }
  }
}

size_t PhTreeSharded::size() const {
  EpochManager::ReadGuard guard(epochs_);
  size_t total = 0;
  for (const PhTree& tree : layout().trees) {
    total += tree.size();
  }
  return total;
}

bool PhTreeSharded::Insert(std::span<const uint64_t> key, uint64_t value) {
  const Route r = LockRoute(key);
  return r.layout->trees[r.a].Insert(key, value);
}

bool PhTreeSharded::InsertOrAssign(std::span<const uint64_t> key,
                                   uint64_t value) {
  const Route r = LockRoute(key);
  return r.layout->trees[r.a].InsertOrAssign(key, value);
}

bool PhTreeSharded::Erase(std::span<const uint64_t> key) {
  const Route r = LockRoute(key);
  return r.layout->trees[r.a].Erase(key);
}

UpdateOutcome PhTreeSharded::Update(std::span<const uint64_t> old_key,
                                    std::span<const uint64_t> new_key,
                                    std::optional<uint64_t> value) {
  const UpdateOutcome out = TryUpdate(old_key, new_key, value);
  if (out == UpdateOutcome::kNoMem) {
    throw std::bad_alloc();
  }
  return out;
}

UpdateOutcome PhTreeSharded::TryUpdate(std::span<const uint64_t> old_key,
                                       std::span<const uint64_t> new_key,
                                       std::optional<uint64_t> value) {
  const Route r = LockRoute(old_key, new_key);
  if (r.a == r.b) {
    // Same shard: one critical section, and the tree's single-descent
    // relocation fast path applies.
    return r.layout->trees[r.a].TryUpdate(old_key, new_key, value);
  }
  // Cross-shard move under both writer locks: insert-then-erase across the
  // trees. Holding both writer mutexes also makes the plain Find/Contains
  // reads below safe without an epoch guard: only a shard's writer
  // reclaims its arena, and both writers are us.
  PhTree& src = r.layout->trees[r.a];
  PhTree& dst = r.layout->trees[r.b];
  const std::optional<uint64_t> old_value = src.Find(old_key);
  if (!old_value.has_value()) {
    return UpdateOutcome::kOldMissing;
  }
  if (dst.Contains(new_key)) {
    return UpdateOutcome::kNewOccupied;
  }
  const uint64_t v = value.has_value() ? *value : *old_value;
  if (dst.TryInsert(new_key, v) == OpStatus::kNoMem) {
    return UpdateOutcome::kNoMem;
  }
  if (src.TryErase(old_key) == OpStatus::kApplied) {
    return UpdateOutcome::kMoved;
  }
  // The source-side erase needed an allocation (node merge) and failed:
  // undo the destination insert with faults suspended, so the rollback
  // cannot itself be failed by the test harness.
  FaultInjectorSuspend suspend;
  const OpStatus undo = dst.TryErase(new_key);
  (void)undo;
  assert(undo == OpStatus::kApplied);
  return UpdateOutcome::kNoMem;
}

std::optional<uint64_t> PhTreeSharded::Find(
    std::span<const uint64_t> key) const {
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  return l.trees[l.table.ShardOf(key)].Find(key);
}

std::vector<std::optional<uint64_t>> PhTreeSharded::FindBatch(
    std::span<const PhKey> keys) const {
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  if (l.trees.size() == 1) {
    return l.trees[0].FindBatch(keys);
  }
  std::vector<std::optional<uint64_t>> results(keys.size());
  // Bucket input positions by shard, then answer each shard's sub-batch
  // with one batched walk.
  std::vector<std::vector<uint32_t>> buckets(l.trees.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    buckets[l.table.ShardOf(keys[i])].push_back(static_cast<uint32_t>(i));
  }
  std::vector<PhKey> sub_keys;
  for (uint32_t s = 0; s < l.trees.size(); ++s) {
    const std::vector<uint32_t>& bucket = buckets[s];
    if (bucket.empty()) {
      continue;
    }
    sub_keys.clear();
    sub_keys.reserve(bucket.size());
    for (const uint32_t i : bucket) {
      sub_keys.push_back(keys[i]);
    }
    const std::vector<std::optional<uint64_t>> sub =
        l.trees[s].FindBatch(sub_keys);
    for (size_t j = 0; j < bucket.size(); ++j) {
      results[bucket[j]] = sub[j];
    }
  }
  return results;
}

void PhTreeSharded::Clear() {
  for (uint32_t s = 0; s < num_shards(); ++s) {
    std::lock_guard lock(mutexes_[s].mutex);
    // MVCC Clear retires the whole tree behind one atomic root store, so
    // concurrent lock-free readers keep walking their snapshot.
    layout_.load(std::memory_order_acquire)->trees[s].Clear();
  }
}

std::optional<RoutingTable> PhTreeSharded::DataTable(
    std::span<const PhEntry> entries) const {
  if (num_shards() == 1 || entries.size() < num_shards()) {
    return std::nullopt;
  }
  return RoutingTable::Quantiles(dim_, num_shards(), entries);
}

size_t PhTreeSharded::BulkLoad(std::span<const PhEntry> entries) {
  std::lock_guard reload(reload_mutex_);
  // Under reload_mutex_ the layout stays put (only Install replaces it).
  Layout& current = *layout_.load(std::memory_order_acquire);
  if (!entries.empty() && empty()) {
    std::optional<RoutingTable> fresh = DataTable(entries);
    std::unique_ptr<Layout> next = BuildLayout(
        entries, config_, fresh ? std::move(*fresh) : current.table);
    size_t inserted = 0;
    for (const PhTree& tree : next->trees) {
      inserted += tree.size();
    }
    if (Install(std::move(next), config_, /*only_if_empty=*/true)) {
      return inserted;
    }
    // A writer got in first: merge into its content below instead.
  }
  const uint32_t S = num_shards();
  std::vector<std::vector<size_t>> part(S);
  for (size_t i = 0; i < entries.size(); ++i) {
    assert(entries[i].key.size() == dim_);
    part[current.table.ShardOf(entries[i].key)].push_back(i);
  }
  std::vector<size_t> inserted(S, 0);
  pool_->ParallelFor(S, [&](size_t s) {
    const std::vector<size_t>& idx = part[s];
    if (idx.empty()) {
      return;
    }
    std::lock_guard lock(mutexes_[s].mutex);
    PhTree& tree = current.trees[s];
    tree.ReserveNodes(idx.size());
    for (const size_t i : idx) {
      inserted[s] += tree.Insert(entries[i].key, entries[i].value) ? 1 : 0;
    }
  });
  return std::accumulate(inserted.begin(), inserted.end(), size_t{0});
}

std::vector<std::pair<PhKey, uint64_t>> PhTreeSharded::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max) const {
  assert(min.size() == dim_ && max.size() == dim_);
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  std::vector<std::pair<PhKey, uint64_t>> out;
  for (uint32_t s = 0; s < l.trees.size(); ++s) {
    if (!l.table.Intersects(s, min, max)) {
      continue;
    }
    for (TreeCursor cursor(l.trees[s], min, max); cursor.Valid();
         cursor.Next()) {
      const std::span<const uint64_t> key = cursor.key();
      out.emplace_back(PhKey(key.begin(), key.end()), cursor.value());
    }
  }
  return out;  // shards are visited in z-order, so `out` already is
}

void PhTreeSharded::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max,
    const std::function<void(const PhKey&, uint64_t)>& visitor) const {
  assert(min.size() == dim_ && max.size() == dim_);
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  for (uint32_t s = 0; s < l.trees.size(); ++s) {
    if (l.table.Intersects(s, min, max)) {
      l.trees[s].QueryWindow(min, max, visitor);
    }
  }
}

size_t PhTreeSharded::CountWindow(std::span<const uint64_t> min,
                                  std::span<const uint64_t> max) const {
  assert(min.size() == dim_ && max.size() == dim_);
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  size_t count = 0;
  for (uint32_t s = 0; s < l.trees.size(); ++s) {
    if (l.table.Intersects(s, min, max)) {
      count += l.trees[s].CountWindow(min, max);
    }
  }
  return count;
}

WindowPage PhTreeSharded::QueryWindowPage(
    std::span<const uint64_t> min, std::span<const uint64_t> max,
    size_t page_size, std::span<const uint64_t> resume_after) const {
  assert(min.size() == dim_ && max.size() == dim_);
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  WindowPage page;
  // Ascending shard index is ascending z-order, so the page fills shard by
  // shard: each intersecting shard is asked for the entries still missing
  // (one beyond the page, so `more` stays exact) until the page overfills
  // or the shards run out. Shards whose region precedes the token return
  // nothing at O(depth) seek cost.
  for (uint32_t s = 0;
       s < l.trees.size() && page.entries.size() <= page_size; ++s) {
    if (!l.table.Intersects(s, min, max)) {
      continue;
    }
    const size_t want = page_size + 1 - page.entries.size();
    WindowPage sub = l.trees[s].QueryWindowPage(min, max, want, resume_after);
    std::move(sub.entries.begin(), sub.entries.end(),
              std::back_inserter(page.entries));
  }
  page.more = page.entries.size() > page_size;
  if (page.more) {
    page.entries.resize(page_size);
    page.token = page.entries.empty()
                     ? PhKey(resume_after.begin(), resume_after.end())
                     : page.entries.back().first;
  }
  return page;
}

std::vector<KnnResult> PhTreeSharded::KnnSearch(
    std::span<const uint64_t> center, size_t n, KnnMetric metric) const {
  assert(center.size() == dim_);
  if (n == 0) {
    return {};
  }
  EpochManager::ReadGuard guard(epochs_);
  const Layout& l = layout();
  const uint32_t S = num_shards();
  if (S == 1) {
    return phtree::KnnSearch(l.trees[0], center, n, metric);
  }
  // Same total order as the single-tree search: distance first, z-order of
  // the key on exact ties, so merging per-shard results reproduces it.
  auto less = [](const KnnResult& a, const KnnResult& b) {
    if (a.dist2 != b.dist2) {
      return a.dist2 < b.dist2;
    }
    return ZOrderLess(a.key, b.key);
  };
  // Shards ordered by the minimum distance of their region to the center.
  struct ShardDist {
    uint32_t s;
    double min_dist2;
  };
  std::vector<ShardDist> order;
  order.reserve(S);
  for (uint32_t s = 0; s < S; ++s) {
    order.push_back({s, l.table.MinDist2(s, center, metric)});
  }
  std::sort(order.begin(), order.end(),
            [](const ShardDist& a, const ShardDist& b) {
              return a.min_dist2 < b.min_dist2;
            });
  std::vector<KnnResult> merged;
  for (const ShardDist& sd : order) {
    // The global n-th distance so far bounds every later shard; adding
    // candidates never worsens it. Exact ties stay in for the z-order cut.
    const double bound = merged.size() >= n
                             ? merged.back().dist2
                             : std::numeric_limits<double>::infinity();
    if (sd.min_dist2 > bound) {
      break;  // `order` is ascending: no later shard can qualify either
    }
    std::vector<KnnResult> found =
        phtree::KnnSearch(l.trees[sd.s], center, n, metric, bound);
    if (merged.empty()) {
      merged = std::move(found);
      continue;
    }
    std::vector<KnnResult> next;
    next.reserve(std::min(n, merged.size() + found.size()));
    std::merge(std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()),
               std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()), std::back_inserter(next),
               less);
    if (next.size() > n) {
      next.resize(n);
    }
    merged = std::move(next);
  }
  return merged;
}

void PhTreeSharded::ForEach(
    const std::function<void(const PhKey&, uint64_t)>& fn) const {
  EpochManager::ReadGuard guard(epochs_);
  for (const PhTree& tree : layout().trees) {
    tree.ForEach(fn);
  }
}

PhTreeStats PhTreeSharded::ComputeStats() const {
  PhTreeStats total;
  total.epoch = epochs_.epoch();
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    // Writer mutex: the stats walk reads arena accounting (freelists,
    // retired queue) that only the writer side may touch.
    std::lock_guard lock(mutexes_[shard].mutex);
    const PhTreeStats s = layout().trees[shard].ComputeStats();
    total.n_entries += s.n_entries;
    total.n_nodes += s.n_nodes;
    total.n_hc_nodes += s.n_hc_nodes;
    total.n_lhc_nodes += s.n_lhc_nodes;
    total.n_bhc_nodes += s.n_bhc_nodes;
    total.hc_node_bytes += s.hc_node_bytes;
    total.lhc_node_bytes += s.lhc_node_bytes;
    total.bhc_node_bytes += s.bhc_node_bytes;
    total.memory_bytes += s.memory_bytes;
    total.arena_slab_bytes += s.arena_slab_bytes;
    total.arena_live_bytes += s.arena_live_bytes;
    total.arena_freelist_bytes += s.arena_freelist_bytes;
    total.arena_retired_bytes += s.arena_retired_bytes;
    total.arena_retired_nodes += s.arena_retired_nodes;
    total.arena_reclaimed_nodes += s.arena_reclaimed_nodes;
    total.max_depth = std::max(total.max_depth, s.max_depth);
    total.sum_node_depth += s.sum_node_depth;
    total.infix_bits += s.infix_bits;
    total.n_postfix_entries += s.n_postfix_entries;
  }
  return total;
}

std::unique_ptr<PhTreeSharded::Layout> PhTreeSharded::BuildLayout(
    std::span<const PhEntry> entries, const PhTreeConfig& config,
    RoutingTable table) const {
  const uint32_t S = num_shards();
  std::vector<std::vector<size_t>> part(S);
  for (size_t i = 0; i < entries.size(); ++i) {
    assert(entries[i].key.size() == dim_);
    part[table.ShardOf(entries[i].key)].push_back(i);
  }
  auto next = std::make_unique<Layout>(Layout{std::move(table), {}});
  next->trees.reserve(S);
  for (uint32_t s = 0; s < S; ++s) {
    next->trees.emplace_back(dim_, config);
  }
  if (!entries.empty()) {
    // Plain trees while private: no copy-on-write clones to retire.
    pool_->ParallelFor(S, [&](size_t s) {
      next->trees[s].ReserveNodes(part[s].size());
      for (const size_t i : part[s]) {
        next->trees[s].Insert(entries[i].key, entries[i].value);
      }
    });
  }
  for (PhTree& tree : next->trees) {
    tree.EnableMvcc(&epochs_);
  }
  return next;
}

bool PhTreeSharded::Install(std::unique_ptr<Layout> next,
                            const PhTreeConfig& config, bool only_if_empty) {
  Layout* old = nullptr;
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(num_shards());
    for (WriterMutex& m : mutexes_) {
      locks.emplace_back(m.mutex);
    }
    if (only_if_empty) {
      for (const PhTree& tree : layout().trees) {
        if (tree.size() != 0) {
          return false;
        }
      }
    }
    config_ = config;
    old = layout_.exchange(next.release(), std::memory_order_acq_rel);
  }
  // The displaced trees' destructors reset their whole arenas at once —
  // legal only once no lock-free reader can still hold a node of them (or
  // route by the displaced table).
  epochs_.SynchronizeFullGrace();
  delete old;
  return true;
}

Status PhTreeSharded::Save(const std::string& path,
                           const SaveOptions& options) const {
  std::vector<uint8_t> bytes;
  {
    // All writer mutexes taken together (in index order, like every
    // cross-shard path here) => the snapshot is the one cross-shard
    // consistent view, and the shards, in index order, are the global
    // z-order the stream holds.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(num_shards());
    for (WriterMutex& m : mutexes_) {
      locks.emplace_back(m.mutex);
    }
    bytes = SerializePhTree(layout().trees, options);
  }
  return WriteSnapshotFileOr(bytes, path);
}

Status PhTreeSharded::Load(const std::string& path,
                           const LoadOptions& options) {
  Expected<PhTree, SnapshotError> loaded = LoadPhTreeOr(path, options);
  if (!loaded) {
    return loaded.error();
  }
  if (loaded->dim() != dim_) {
    return Status::Error(
        StatusCode::kInvalidArgument,
        "snapshot dimensionality " + std::to_string(loaded->dim()) +
            " does not match sharded tree dimensionality " +
            std::to_string(dim_));
  }
  std::vector<PhEntry> entries;
  entries.reserve(loaded->size());
  loaded->ForEach([&entries](const PhKey& key, uint64_t value) {
    entries.push_back(PhEntry{key, value});
  });
  const PhTreeConfig cfg = loaded->config();
  std::lock_guard reload(reload_mutex_);
  // Replacement shards are built while readers keep using the old ones;
  // the swap is the only all-shard exclusive section. A fresh table needs
  // the tree to stay empty until the swap; if a writer got in first, the
  // second pass builds for the current table (steady under
  // reload_mutex_).
  for (;;) {
    std::optional<RoutingTable> fresh =
        empty() ? DataTable(entries) : std::nullopt;
    const bool only_if_empty = fresh.has_value();
    std::unique_ptr<Layout> next = BuildLayout(
        entries, cfg, fresh ? std::move(*fresh) : layout().table);
    if (Install(std::move(next), cfg, only_if_empty)) {
      return Status::Ok();
    }
  }
}

}  // namespace phtree
