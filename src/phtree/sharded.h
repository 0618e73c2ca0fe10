// Thread-safe PH-tree (paper Sect. 5, third outlook item: "the fact that at
// most two nodes are modified with each update makes the PH-tree suitable
// for concurrent access and updates"). The class partitions the key space
// into S contiguous ranges of the z-order (the bit-interleaved order a
// PH-tree enumerates its keys in, Sect. 3.2); S = 1 is one tree behind one
// writer mutex with lock-free readers. Each shard is an independent PhTree
// with its own NodeArena and its own writer mutex; all shards share ONE
// EpochManager and run in MVCC mode (PhTree::EnableMvcc), so:
//   * readers never lock anywhere — point, window and kNN reads announce
//     themselves in an epoch slot and walk copy-on-write-published nodes,
//   * writers on different shards never contend (the paper's two-node
//     update property keeps each per-shard critical section short),
//   * bulk loads partition the input once and build all shards in
//     parallel on a ThreadPool,
//   * window/count/kNN queries clip the query against each shard's
//     key-space region and visit only the shards that intersect it.
//
// Shard routing. One immutable routing table (phtree/shard_routing.h)
// holds S-1 ascending z-order split keys; shard s owns the z-range
// between split s-1 and split s, so ShardOf is a binary search over the
// splits. Each range is also stored as its exact cover by aligned boxes
// (the z-blocks of the range), which makes query clipping and kNN shard
// pruning exact. Ascending shard index is ascending z-order, so per-shard
// window results concatenate in shard order into the global z-order a
// single PhTree produces.
//   * A new tree starts with prefix splits: shard s owns the keys whose top
//     log2(S) z-bits equal s.
//   * BulkLoad or Load into an EMPTY tree replaces the table with splits
//     at the z-order quantiles of the loaded keys (a deterministic sample
//     of at most 64k keys; each quantile is rounded to the shortest
//     z-prefix that separates it from the sample key before it). Encoded
//     doubles in a narrow range share their top bits, so prefix splits
//     would send every such key to one shard; quantile splits balance
//     them. Loads into a non-empty tree keep the current table.
//   * The table and the S shard trees filled under it form one immutable
//     layout, replaced as a whole with one atomic pointer store, under
//     every writer mutex and only while all shards are empty (or, for a
//     Load into a non-empty tree, with the table kept). A read loads the
//     layout once under its epoch guard, so a multi-shard read sees one
//     table and its trees. A writer routes under a short guard, drops it,
//     takes its shard mutex, routes again under the layout it now holds
//     steady, and retries if the shard changed. A replaced layout is freed
//     after a full epoch grace period.
//
// Consistency model: operations are linearisable per shard, not across
// shards. A query that fans out over multiple shards sees each shard at a
// (possibly different) consistent point in time; size() is a sum of
// per-shard snapshots. Save() takes all writer mutexes together and is
// the one cross-shard consistent snapshot primitive.
#ifndef PHTREE_PHTREE_SHARDED_H_
#define PHTREE_PHTREE_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "phtree/arena.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/shard_routing.h"

namespace phtree {

// PhEntry (the bulk-load input unit) lives in phtree/phtree.h, next to
// PhTree::BulkLoad.

// ZOrderLess (the z-interleaved comparison the sharded merge is built on)
// lives in common/bits.h, next to the other z-order primitives.

/// Lock-striped sharded PH-tree. All public methods are safe to call from
/// any number of threads concurrently.
class PhTreeSharded {
 public:
  /// Creates `num_shards` (a power of two, >= 1) empty shards for
  /// `dim`-dimensional keys. Parallel bulk loads run on `pool` (not owned;
  /// must outlive the tree); nullptr uses the process-wide
  /// ThreadPool::Shared(). Queries run in the calling thread.
  explicit PhTreeSharded(uint32_t dim, uint32_t num_shards = 8,
                         const PhTreeConfig& config = PhTreeConfig{},
                         ThreadPool* pool = nullptr);
  ~PhTreeSharded();

  uint32_t dim() const { return dim_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(mutexes_.size());
  }
  const PhTreeConfig& config() const { return config_; }

  /// Sum of per-shard sizes (lock-free atomic reads under one epoch
  /// guard); the total is not a single cross-shard snapshot.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Shard index for `key` under the current routing table: the z-range
  /// holding it.
  uint32_t ShardOf(std::span<const uint64_t> key) const;

  // ---- Point operations (single-shard critical sections) ---------------

  bool Insert(std::span<const uint64_t> key, uint64_t value);
  bool InsertOrAssign(std::span<const uint64_t> key, uint64_t value);
  bool Erase(std::span<const uint64_t> key);

  /// Relocates the entry at old_key to new_key (see PhTree::Update). When
  /// both keys route to the same shard this is one per-shard critical
  /// section delegating to the tree's single-descent fast path; a
  /// cross-shard move locks both shards (in ascending index order, the
  /// deadlock-free total order) and performs insert-then-erase with the
  /// same rollback guarantees. Atomic with respect to every other operation
  /// on the involved shards. Throws std::bad_alloc, trees unchanged, on
  /// allocation failure.
  UpdateOutcome Update(std::span<const uint64_t> old_key,
                       std::span<const uint64_t> new_key,
                       std::optional<uint64_t> value = std::nullopt);

  /// Non-throwing Update: allocation failure is kNoMem, trees unchanged.
  UpdateOutcome TryUpdate(std::span<const uint64_t> old_key,
                          std::span<const uint64_t> new_key,
                          std::optional<uint64_t> value = std::nullopt);
  std::optional<uint64_t> Find(std::span<const uint64_t> key) const;
  bool Contains(std::span<const uint64_t> key) const {
    return Find(key).has_value();
  }

  /// Batched point query: element i is Find(keys[i]). The batch is
  /// bucketed by shard in one pass; each shard with hits is then queried
  /// with one PhTree::FindBatch (lock-free, one epoch guard covers the
  /// whole batch), and the per-shard answers are scattered back to input
  /// order.
  std::vector<std::optional<uint64_t>> FindBatch(
      std::span<const PhKey> keys) const;

  /// Clears every shard (per-shard O(slabs) arena reset).
  void Clear();

  // ---- Bulk load --------------------------------------------------------

  /// Inserts all `entries`, partitioning them by shard in one pass and
  /// filling every shard in parallel on the pool. Into an empty tree this
  /// is Load's off-line path: the routing table is chosen from `entries`
  /// (at least one entry per shard), private plain trees are
  /// built and swapped in under all writer mutexes, and the call returns
  /// after a full epoch grace period. So, like Load, a BulkLoad into an
  /// empty tree must not be called from inside a visitor or while the
  /// calling thread holds an epoch guard (the grace would wait for the
  /// caller). Into a non-empty tree each build task inserts under its own
  /// shard's writer lock, beside concurrent point writers. BulkLoads
  /// serialise with each other and with Load. Duplicate keys follow Insert
  /// semantics: first occurrence wins, later ones are dropped. Returns the
  /// number of newly inserted entries.
  size_t BulkLoad(std::span<const PhEntry> entries);

  // ---- Window queries (clip + fan out + merge) --------------------------

  /// Entries inside [min, max], globally z-ordered (the same sequence a
  /// single PhTree would produce). Shards that intersect the box are
  /// queried one after another in the calling thread and their z-ordered
  /// results appended in shard order, which IS z-order across shards.
  std::vector<std::pair<PhKey, uint64_t>> QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max) const;

  /// Visitor form: calls `visitor(key, value)` for every entry in the box
  /// without materialising results, shard by shard, in global z-order.
  void QueryWindow(
      std::span<const uint64_t> min, std::span<const uint64_t> max,
      const std::function<void(const PhKey&, uint64_t)>& visitor) const;

  /// Number of entries inside [min, max], summed over the intersecting
  /// shards.
  size_t CountWindow(std::span<const uint64_t> min,
                     std::span<const uint64_t> max) const;

  /// Paginated window query with the same page/token semantics as
  /// PhTree::QueryWindowPage, globally z-ordered across shards: the page
  /// fills shard by shard (ascending shard index is ascending z-order).
  /// One epoch guard covers the whole page.
  /// Reads are lock-free — the token keeps the scan stable across
  /// mutations between pages, exactly as in the single-tree case.
  WindowPage QueryWindowPage(std::span<const uint64_t> min,
                             std::span<const uint64_t> max, size_t page_size,
                             std::span<const uint64_t> resume_after = {})
      const;

  // ---- kNN (per-shard candidates + global distance cut-off) -------------

  /// The `n` entries closest to `center`, ascending by distance (exact ties
  /// in z-order, like phtree::KnnSearch). Shards are visited by ascending
  /// minimum distance of their region to `center`; the nearest is searched
  /// unbounded, every later one with the current global n-th distance as
  /// its `max_dist2`, and the visit stops at the first shard whose region
  /// lies beyond that distance.
  std::vector<KnnResult> KnnSearch(
      std::span<const uint64_t> center, size_t n,
      KnnMetric metric = KnnMetric::kL2Integer) const;

  // ---- Introspection ----------------------------------------------------

  /// Calls `fn(key, value)` for every entry, shards visited in index order
  /// under one epoch guard (lock-free), i.e. in global z-order.
  void ForEach(const std::function<void(const PhKey&, uint64_t)>& fn) const;

  /// Aggregated stats: additive fields summed over shards, max_depth the
  /// maximum, epoch the shared EpochManager's current epoch. Takes each
  /// shard's writer mutex in turn (the stats walk reads arena accounting
  /// only the writer side may touch); no cross-shard snapshot.
  PhTreeStats ComputeStats() const;

  /// The bounding box of shard `s`'s cover: on return, lo[d]/hi[d] bound
  /// the coordinates of dimension d that route to `s` (exact for prefix
  /// splits, whose ranges are boxes). An empty range gives lo > hi.
  void ShardRegion(uint32_t s, PhKey* lo, PhKey* hi) const;

  /// Direct access to shard `s`'s tree, WITHOUT synchronisation — only
  /// valid while no other thread mutates the tree (tests, validation,
  /// stats tooling).
  const PhTree& UnsafeShard(uint32_t s) const;

  /// The epoch manager all shards share. Exposed for tests and stats
  /// tooling.
  const EpochManager& epoch_manager() const { return epochs_; }

  // ---- Persistence (one v2 stream; see DESIGN.md) -----------------------

  /// Saves all shards as ONE format-v2 snapshot: under every writer mutex
  /// (taken in index order) the shards are serialised in index order, which
  /// is the global z-order, straight into the byte stream — the same bytes
  /// SerializePhTree writes for an unsharded tree with the same content.
  /// The file is then written atomically and durably (WriteSnapshotFileOr)
  /// with no lock held. Lock-free readers are unaffected throughout.
  Status Save(const std::string& path, const SaveOptions& options = {}) const;

  /// Replaces the whole content from a v2 (or legacy v1) snapshot written
  /// by Save() or by SavePhTreeOr on a plain tree: the stream is loaded
  /// and verified (LoadPhTreeOr), its entries are re-partitioned (under a
  /// table chosen from them if this tree is empty, see BulkLoad) and the
  /// replacement shards built in parallel off-line, then all writer
  /// mutexes are taken and the new trees swapped in with one atomic store
  /// of the layout; the displaced trees are destroyed after a full epoch
  /// grace period, so in-flight lock-free readers finish on their
  /// snapshot (and Load must not be called while the calling thread holds
  /// an epoch guard). The stream's dimensionality must match
  /// (kInvalidArgument otherwise); the stream's stored config replaces
  /// this tree's config, like LoadPhTreeOr.
  Status Load(const std::string& path, const LoadOptions& options = {});

 private:
  /// The routing table and the shard trees filled under it (sharded.cc).
  struct Layout;

  /// A shard's writer mutex, on its own cache line.
  struct alignas(64) WriterMutex {
    std::mutex mutex;
  };

  /// The writer mutexes of the shards keys `a` and `b` route to (`b`
  /// empty: `a`'s only), held, and the layout they route by, which stays
  /// current while they are held; see LockRoute.
  struct Route {
    Layout* layout;
    uint32_t a;
    uint32_t b;
    std::unique_lock<std::mutex> first;
    std::unique_lock<std::mutex> second;
  };

  /// Routes `a` and `b` under a short epoch guard, then, with no guard
  /// held, locks their shards in ascending index order (the deadlock-free
  /// total order) and routes again under the layout the locks hold steady,
  /// retrying until both routes agree.
  Route LockRoute(std::span<const uint64_t> a,
                  std::span<const uint64_t> b = {});

  /// The current layout. Valid under an epoch guard, under any writer
  /// mutex, or under reload_mutex_.
  const Layout& layout() const {
    return *layout_.load(std::memory_order_acquire);
  }

  /// The table BulkLoad or Load of `entries` into an empty tree installs:
  /// splits at their quantiles, or nullopt where the current table stays
  /// (one shard, fewer entries than shards).
  std::optional<RoutingTable> DataTable(
      std::span<const PhEntry> entries) const;

  /// A private layout routing by `table`, with one MVCC PhTree per shard
  /// built from `entries` in parallel (no locks).
  std::unique_ptr<Layout> BuildLayout(std::span<const PhEntry> entries,
                                      const PhTreeConfig& config,
                                      RoutingTable table) const;

  /// Under all writer mutexes, swaps `next` in as the layout and `config`
  /// in as the config; then waits a full epoch grace period and frees the
  /// replaced layout. With `only_if_empty`, installs nothing and returns
  /// false if any shard holds an entry. Caller holds reload_mutex_.
  bool Install(std::unique_ptr<Layout> next, const PhTreeConfig& config,
               bool only_if_empty);

  uint32_t dim_;
  PhTreeConfig config_;
  ThreadPool* pool_;
  // One epoch manager for ALL shards: a reader announces itself once per
  // API call, however many shards the operation fans out to. Declared
  // before layout_ so it outlives every shard's arena.
  mutable EpochManager epochs_;
  // Writers only; readers go lock-free.
  mutable std::vector<WriterMutex> mutexes_;
  // Owned. Replaced only by Install, i.e. under reload_mutex_ and every
  // writer mutex.
  std::atomic<Layout*> layout_;
  // Serialises BulkLoad and Load, the callers of Install.
  std::mutex reload_mutex_;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_SHARDED_H_
