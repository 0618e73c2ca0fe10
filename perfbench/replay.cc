#include "replay.h"

#include <optional>
#include <string>

#include "common/fault.h"
#include "common/simd.h"
#include "phtree/knn.h"
#include "phtree/phtree.h"
#include "phtree/sharded.h"

namespace perfbench {
namespace {

using phtree::PhKey;

enum Stack : uint32_t {
  kPlain,
  kMvcc,
  kSharded,
  kScalar,       ///< plain tree, SIMD kernels forced scalar (reads only)
  kShardSerial,  ///< the shards' own CountWindow, serially (windows only)
  kNumStacks,
};

constexpr uint32_t kStackSpan[kNumStacks] = {
    kSpanReplayPlain, kSpanReplayMvcc, kSpanReplaySharded, kSpanReplayScalar,
    kSpanReplayShardSerial};

/// Ops per timed chunk: long enough that two clock reads vanish, short
/// enough that every stack sees the same machine state.
constexpr size_t kChunk = 64;

struct Stacks {
  explicit Stacks(uint32_t dim) : plain(dim), mvcc(dim), sharded(dim) {
    mvcc.EnableMvcc(&epochs);
  }
  phtree::PhTree plain;
  phtree::EpochManager epochs;
  phtree::PhTree mvcc;
  phtree::PhTreeSharded sharded;
};

/// Per-stack, per-kind accumulated nanoseconds and op counts.
struct Timing {
  uint64_t ns[kNumStacks][kNumOpKinds] = {};
  size_t ops[kNumOpKinds] = {};

  double UsPerOp(uint32_t stack, uint32_t kind) const {
    return ops[kind] == 0 ? 0
                          : static_cast<double>(ns[stack][kind]) * 1e-3 /
                                static_cast<double>(ops[kind]);
  }
};

/// Runs ops [0, n) of one kind on every stack in `stacks`, chunk by chunk,
/// rotating which stack goes first. `op(stack, i)` performs op i.
/// `between(stack)` runs untimed after each chunk (counter reads).
template <typename Op, typename Between>
void Interleave(size_t n, std::initializer_list<uint32_t> stacks,
                uint32_t kind, Timing* timing, SpanLog& spans,
                uint64_t parent, Op&& op, Between&& between) {
  const std::vector<uint32_t> order(stacks);
  for (size_t c0 = 0, round = 0; c0 < n; c0 += kChunk, ++round) {
    const size_t c1 = std::min(n, c0 + kChunk);
    for (size_t s = 0; s < order.size(); ++s) {
      const uint32_t stack = order[(s + round) % order.size()];
      std::optional<phtree::simd::ScopedForceScalar> scalar;
      if (stack == kScalar) {
        scalar.emplace(true);
      }
      const uint64_t t0 = NowNs();
      for (size_t i = c0; i < c1; ++i) {
        op(stack, i);
      }
      const uint64_t t1 = NowNs();
      timing->ns[stack][kind] += t1 - t0;
      spans.Add(kStackSpan[stack], parent, t0, t1);
      between(stack);
    }
  }
  timing->ops[kind] = n;
}

void NoCounters(uint32_t) {}

/// Shards whose key-space region meets the box [lo, hi].
std::vector<uint32_t> ShardsMeeting(const phtree::PhTreeSharded& tree,
                                    const PhKey& lo, const PhKey& hi) {
  std::vector<uint32_t> out;
  PhKey rlo, rhi;
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    tree.ShardRegion(s, &rlo, &rhi);
    bool meets = true;
    for (size_t d = 0; d < lo.size() && meets; ++d) {
      meets = rlo[d] <= hi[d] && lo[d] <= rhi[d];
    }
    if (meets) {
      out.push_back(s);
    }
  }
  return out;
}

template <typename T>
void CheckAgree(const std::vector<T> (&res)[kNumStacks],
                std::initializer_list<uint32_t> stacks, const char* what,
                OpLog* check) {
  for (size_t i = 0; i < res[kPlain].size(); ++i) {
    ++check->attempted;
    for (uint32_t s : stacks) {
      if (!(res[s][i] == res[kPlain][i])) {
        check->Fail(std::string("replay stacks disagree on ") + what);
        break;
      }
    }
  }
}

}  // namespace

void RunReplay(uint32_t dim, const std::vector<phtree::PhEntry>& initial,
               const ReplayInput& in, SpanLog& spans, uint64_t parent,
               Report* report, OpLog* check) {
  Stacks st(dim);
  uint64_t t0 = NowNs();
  st.plain.BulkLoad(initial);
  const uint64_t t1 = NowNs();
  spans.Add(kSpanTreeBulkLoad, parent, t0, t1);
  report->Add("phtree.bulk_load_s", static_cast<double>(t1 - t0) * 1e-9, "s");
  st.mvcc.BulkLoad(initial);
  t0 = NowNs();
  st.sharded.BulkLoad(initial);
  spans.Add(kSpanShardedBulkLoad, parent, t0, NowNs());

  Timing tm;
  const std::initializer_list<uint32_t> all_reads = {kPlain, kMvcc, kSharded,
                                                     kScalar};
  const phtree::PhTree* tree_of[] = {&st.plain, &st.mvcc, nullptr,
                                     &st.plain};

  // ---- Reads ----
  {
    std::vector<std::optional<uint64_t>> res[kNumStacks];
    Interleave(in.finds.size(), all_reads, kFind, &tm, spans, parent,
               [&](uint32_t s, size_t i) {
                 const PhKey& key = in.finds[i];
                 res[s].push_back(s == kSharded ? st.sharded.Find(key)
                                                : tree_of[s]->Find(key));
               },
               NoCounters);
    CheckAgree(res, all_reads, "Find", check);
  }
  {
    std::vector<std::vector<uint32_t>> shards(in.windows.size());
    double shards_met = 0;
    for (size_t i = 0; i < in.windows.size(); ++i) {
      shards[i] = ShardsMeeting(st.sharded, in.windows[i].first,
                                in.windows[i].second);
      shards_met += static_cast<double>(shards[i].size());
    }
    std::vector<size_t> res[kNumStacks];
    Interleave(
        in.windows.size(), {kPlain, kMvcc, kSharded, kScalar, kShardSerial},
        kWindow, &tm, spans, parent,
        [&](uint32_t s, size_t i) {
          const auto& [lo, hi] = in.windows[i];
          size_t n = 0;
          if (s == kSharded) {
            n = st.sharded.CountWindow(lo, hi);
          } else if (s == kShardSerial) {
            for (uint32_t shard : shards[i]) {
              n += st.sharded.UnsafeShard(shard).CountWindow(lo, hi);
            }
          } else {
            n = tree_of[s]->CountWindow(lo, hi);
          }
          res[s].push_back(n);
        },
        NoCounters);
    CheckAgree(res, {kMvcc, kSharded, kScalar, kShardSerial}, "CountWindow",
               check);
    double results = 0;
    for (size_t n : res[kPlain]) {
      results += static_cast<double>(n);
    }
    const double n_win = std::max<double>(1, in.windows.size());
    report->Add("query.results_per_window", results / n_win, "count");
    report->Add("query.window_us_per_result",
                static_cast<double>(tm.ns[kPlain][kWindow]) * 1e-3 /
                    std::max(results, 1.0),
                "us");
    report->Add("sharded.shards_per_window", shards_met / n_win, "count");
    report->Add("thread_pool.fanout_overhead_us",
                tm.UsPerOp(kSharded, kWindow) -
                    tm.UsPerOp(kShardSerial, kWindow),
                "us");
  }
  {
    std::vector<std::vector<double>> res[kNumStacks];
    Interleave(in.knn.size(), all_reads, kKnn, &tm, spans, parent,
               [&](uint32_t s, size_t i) {
                 const auto r =
                     s == kSharded
                         ? st.sharded.KnnSearch(in.knn[i], 10,
                                                phtree::KnnMetric::kL2Double)
                         : phtree::KnnSearch(*tree_of[s], in.knn[i], 10,
                                             phtree::KnnMetric::kL2Double);
                 std::vector<double> d;
                 for (const auto& x : r) d.push_back(x.dist2);
                 res[s].push_back(std::move(d));
               },
               NoCounters);
    CheckAgree(res, all_reads, "KnnSearch", check);
  }

  // ---- Writes, with allocation counts from a disarmed fault injector ----
  phtree::FaultInjector injector;
  phtree::FaultInjector* previous = phtree::SetFaultInjector(&injector);
  uint64_t node_allocs[kNumStacks] = {};
  uint64_t word_allocs[kNumStacks] = {};
  uint64_t last_node = 0, last_word = 0;  // hits already attributed
  auto count_allocs = [&](uint32_t s) {
    const uint64_t n = injector.site_hits(phtree::FaultSite::kArenaNodeAlloc);
    const uint64_t w = injector.site_hits(phtree::FaultSite::kWordAlloc);
    node_allocs[s] += n - last_node;
    word_allocs[s] += w - last_word;
    last_node = n;
    last_word = w;
  };
  const std::initializer_list<uint32_t> all_writes = {kPlain, kMvcc,
                                                      kSharded};
  phtree::PhTree* wtree_of[] = {&st.plain, &st.mvcc, nullptr};
  const phtree::PhTreeStats before = st.sharded.ComputeStats();
  const uint64_t epoch_before = st.sharded.epoch_manager().epoch();
  const phtree::PhUpdateStats updates_before = SumUpdateStats(st.sharded);
  {
    std::vector<bool> res[kNumStacks];
    Interleave(in.inserts.size(), all_writes, kInsert, &tm, spans, parent,
               [&](uint32_t s, size_t i) {
                 res[s].push_back(s == kSharded
                                      ? st.sharded.Insert(in.inserts[i], i)
                                      : wtree_of[s]->Insert(in.inserts[i], i));
               },
               count_allocs);
    CheckAgree(res, all_writes, "Insert", check);
    for (bool ok : res[kPlain]) {
      if (!ok) check->Fail("replay Insert of an absent key failed");
    }
  }
  {
    std::vector<bool> res[kNumStacks];
    Interleave(in.erases.size(), all_writes, kErase, &tm, spans, parent,
               [&](uint32_t s, size_t i) {
                 res[s].push_back(s == kSharded
                                      ? st.sharded.Erase(in.erases[i])
                                      : wtree_of[s]->Erase(in.erases[i]));
               },
               count_allocs);
    CheckAgree(res, all_writes, "Erase", check);
    for (bool ok : res[kPlain]) {
      if (!ok) check->Fail("replay Erase of a stored key failed");
    }
  }
  size_t cross_shard = 0;
  {
    std::vector<phtree::UpdateOutcome> res[kNumStacks];
    Interleave(in.updates.size(), all_writes, kUpdate, &tm, spans, parent,
               [&](uint32_t s, size_t i) {
                 const auto& [from, to] = in.updates[i];
                 res[s].push_back(s == kSharded
                                      ? st.sharded.Update(from, to)
                                      : wtree_of[s]->Update(from, to));
               },
               count_allocs);
    CheckAgree(res, all_writes, "Update", check);
    for (auto outcome : res[kPlain]) {
      if (outcome != phtree::UpdateOutcome::kMoved) {
        check->Fail("replay Update did not move");
      }
    }
    for (const auto& [from, to] : in.updates) {
      cross_shard += st.sharded.ShardOf(from) != st.sharded.ShardOf(to);
    }
  }
  phtree::SetFaultInjector(previous);
  const phtree::PhTreeStats after = st.sharded.ComputeStats();

  const double writes = std::max<double>(
      1, in.inserts.size() + in.erases.size() + in.updates.size());
  report->Add("arena.node_allocs_per_write",
              static_cast<double>(node_allocs[kSharded]) / writes, "count");
  report->Add("arena.word_allocs_per_write",
              static_cast<double>(word_allocs[kSharded]) / writes, "count");
  report->Add("mvcc.extra_node_allocs_per_write",
              (static_cast<double>(node_allocs[kMvcc]) -
               static_cast<double>(node_allocs[kPlain])) /
                  writes,
              "count");
  const double retired_before =
      static_cast<double>(before.arena_retired_nodes) +
      static_cast<double>(before.arena_reclaimed_nodes);
  const double retired_after = static_cast<double>(after.arena_retired_nodes) +
                               static_cast<double>(after.arena_reclaimed_nodes);
  report->Add("arena.retired_per_write",
              (retired_after - retired_before) / writes, "count");
  report->Add("epoch.advances_per_write",
              static_cast<double>(st.sharded.epoch_manager().epoch() -
                                  epoch_before) /
                  writes,
              "count");
  report->Add("phtree.update_fast_path_share",
              FastPathShare(updates_before, SumUpdateStats(st.sharded)),
              "share");
  report->Add("sharded.cross_shard_update_share",
              in.updates.empty() ? 0
                                 : static_cast<double>(cross_shard) /
                                       static_cast<double>(in.updates.size()),
              "share");

  for (uint32_t k = 0; k < kNumOpKinds; ++k) {
    const std::string kind = OpKindName(k);
    report->Add("phtree.us." + kind, tm.UsPerOp(kPlain, k), "us",
                tm.ops[k]);
    report->Add("mvcc.overhead_us." + kind,
                tm.UsPerOp(kMvcc, k) - tm.UsPerOp(kPlain, k), "us",
                tm.ops[k]);
    report->Add("sharded.wrapper_us." + kind,
                tm.UsPerOp(kSharded, k) - tm.UsPerOp(kMvcc, k), "us",
                tm.ops[k]);
    if (k == kFind || k == kWindow || k == kKnn) {
      report->Add("simd.scalar_ratio." + kind,
                  tm.UsPerOp(kScalar, k) /
                      std::max(tm.UsPerOp(kPlain, k), 1e-9),
                  "x", tm.ops[k]);
    }
  }
  report->Add("knn.us_per_query", tm.UsPerOp(kSharded, kKnn), "us",
              tm.ops[kKnn]);
}

}  // namespace perfbench
