#include "live.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "benchlib/workloads.h"
#include "common/bits.h"
#include "common/rng.h"
#include "datasets/datasets.h"
#include "oracle.h"

namespace perfbench {
namespace {

using phtree::Dataset;
using phtree::PhEntry;
using phtree::PhKey;
using phtree::PhTreeSharded;
using phtree::Rng;

constexpr size_t kKnnK = 10;
/// Replay stream lengths per op kind (before scaling).
constexpr size_t kReplayPointOps = 20000;
constexpr size_t kReplayKnnOps = 2000;

size_t Scaled(double base, double scale, size_t min = 16) {
  return std::max(min, static_cast<size_t>(base * scale));
}

uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t s = seed ^ (a << 40) ^ (b << 20) ^ 0x5eedULL;
  return phtree::SplitMix64(s);
}

double Gaussian(Rng& rng) {
  const double u1 = std::max(rng.NextDouble(), 1e-300);
  const double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Runs fn(i) for every i in [0, n) on MaxThreads() threads. For the
/// untimed preparation of query pools and their oracle answers only.
template <typename Fn>
void PrepareInParallel(size_t n, Fn&& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < MaxThreads(); ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        fn(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
}

std::vector<PhEntry> ToEntries(const Dataset& ds) {
  std::vector<PhEntry> entries(ds.n());
  for (size_t i = 0; i < ds.n(); ++i) {
    entries[i].key = Encode(ds.point(i));
    entries[i].value = i;
  }
  return entries;
}

std::vector<PhKey> EncodeAll(const std::vector<std::vector<double>>& pts) {
  std::vector<PhKey> keys;
  keys.reserve(pts.size());
  for (const auto& p : pts) {
    keys.push_back(Encode(p));
  }
  return keys;
}

/// Per-axis [lo, hi] of a data set.
void Bounds(const Dataset& ds, std::vector<double>* lo,
            std::vector<double>* hi) {
  lo->assign(ds.dim, INFINITY);
  hi->assign(ds.dim, -INFINITY);
  for (size_t i = 0; i < ds.n(); ++i) {
    for (uint32_t d = 0; d < ds.dim; ++d) {
      (*lo)[d] = std::min((*lo)[d], ds.point(i)[d]);
      (*hi)[d] = std::max((*hi)[d], ds.point(i)[d]);
    }
  }
}

/// Boxes centred on random data points, `half` of each axis extent wide
/// on either side.
std::vector<phtree::bench::QueryBox> BoxesAroundPoints(const Dataset& ds,
                                                       size_t n, double half,
                                                       uint64_t seed) {
  std::vector<double> lo, hi;
  Bounds(ds, &lo, &hi);
  Rng rng(seed);
  std::vector<phtree::bench::QueryBox> boxes(n);
  for (auto& b : boxes) {
    const auto p = ds.point(rng.NextBounded(ds.n()));
    for (uint32_t d = 0; d < ds.dim; ++d) {
      const double w = half * (hi[d] - lo[d]);
      b.lo.push_back(p[d] - w);
      b.hi.push_back(p[d] + w);
    }
  }
  return boxes;
}

/// Nearby Gaussian moves of `n` distinct points of `ds` drawn from ranks
/// [first, ds.n()), skipping targets `taken` reports as occupied.
template <typename Taken>
std::vector<std::pair<PhKey, PhKey>> NearbyMoves(const Dataset& ds,
                                                 size_t first, size_t n,
                                                 double sigma, uint64_t seed,
                                                 Taken&& taken) {
  std::vector<double> lo, hi;
  Bounds(ds, &lo, &hi);
  Rng rng(seed);
  std::vector<std::pair<PhKey, PhKey>> moves;
  const size_t span = ds.n() - first;
  const size_t stride = span / std::max<size_t>(n, 1) + 1;
  for (size_t i = first; i < ds.n() && moves.size() < n; i += stride) {
    const auto p = ds.point(i);
    std::vector<double> q(p.begin(), p.end());
    for (uint32_t d = 0; d < ds.dim; ++d) {
      q[d] = std::clamp(q[d] + sigma * (hi[d] - lo[d]) * Gaussian(rng), lo[d],
                        hi[d]);
    }
    if (!taken(q)) {
      moves.emplace_back(Encode(p), Encode(q));
    }
  }
  return moves;
}

std::vector<std::pair<PhKey, PhKey>> EncodeBoxes(
    const std::vector<phtree::bench::QueryBox>& boxes) {
  std::vector<std::pair<PhKey, PhKey>> out;
  out.reserve(boxes.size());
  for (const auto& b : boxes) {
    out.emplace_back(Encode(b.lo), Encode(b.hi));
  }
  return out;
}

/// Keeps up to `cap` recorded pool indices per client.
struct DrawRecorder {
  std::vector<std::vector<uint32_t>> per_client;
  size_t cap = 0;

  void Reset(uint32_t clients, size_t c) {
    per_client.assign(clients, {});
    cap = c;
  }
  void Add(uint32_t client, uint32_t index) {
    auto& v = per_client[client];
    if (v.size() < cap) {
      v.push_back(index);
    }
  }
  /// Round-robin merge of the clients' streams, at most `cap` entries.
  std::vector<uint32_t> Merged() const {
    std::vector<uint32_t> out;
    for (size_t i = 0; out.size() < cap; ++i) {
      bool any = false;
      for (const auto& v : per_client) {
        if (i < v.size() && out.size() < cap) {
          out.push_back(v[i]);
          any = true;
        }
      }
      if (!any) {
        break;
      }
    }
    return out;
  }
};

bool KeyInBox(std::span<const uint64_t> key, const PhKey& lo,
              const PhKey& hi) {
  for (size_t d = 0; d < key.size(); ++d) {
    if (key[d] < lo[d] || key[d] > hi[d]) {
      return false;
    }
  }
  return true;
}

/// Checks a kNN answer's shape: exactly k results (the tree always holds
/// more than k), ascending distances, each distance matching its key.
bool KnnShapeOk(std::span<const double> center,
                const std::vector<phtree::KnnResult>& res, std::string* why) {
  if (res.size() != kKnnK) {
    *why = "knn returned " + std::to_string(res.size()) + " results";
    return false;
  }
  std::vector<double> p(center.size());
  for (size_t i = 0; i < res.size(); ++i) {
    for (size_t d = 0; d < p.size(); ++d) {
      p[d] = phtree::SortableBitsToDouble(res[i].key[d]);
    }
    if (res[i].dist2 != Dist2(center, p) ||
        (i > 0 && res[i].dist2 < res[i - 1].dist2)) {
      *why = "knn result " + std::to_string(i) + " has a wrong distance";
      return false;
    }
  }
  return true;
}

// ---- tiger2d_read -------------------------------------------------------

class TigerRead final : public Workload {
 public:
  explicit TigerRead(const Options& opt) : opt_(opt) {}

  uint32_t dim() const override { return 2; }
  const std::vector<PhEntry>& initial() const override { return entries_; }

  void Prepare(SpanLog& spans, uint64_t parent) override {
    const size_t n = Scaled(1e6, opt_.scale, 1000);
    ds_ = phtree::GenerateTigerLike(n, opt_.seed);
    entries_ = ToEntries(ds_);
    oracle_ = std::make_unique<BruteIndex>(2, ds_.coords);

    const auto find_pts = phtree::bench::MakePointQueries(
        ds_, 4096, StreamSeed(opt_.seed, 1, 0));
    finds_.resize(find_pts.size());
    PrepareInParallel(find_pts.size(), [&](size_t i) {
      finds_[i] = {Encode(find_pts[i]), oracle_->Find(find_pts[i])};
    });
    // A box 0.2% of each axis extent wide, centred on a data point.
    const auto boxes =
        BoxesAroundPoints(ds_, 4096, 0.001, StreamSeed(opt_.seed, 2, 0));
    windows_.resize(boxes.size());
    PrepareInParallel(boxes.size(), [&](size_t i) {
      const auto& b = boxes[i];
      windows_[i] = {Encode(b.lo), Encode(b.hi), oracle_->CountBox(b.lo, b.hi)};
    });
    const auto centers = phtree::bench::MakePointQueries(
        ds_, 2048, StreamSeed(opt_.seed, 3, 0));
    knn_.resize(centers.size());
    PrepareInParallel(centers.size(), [&](size_t i) {
      const auto& c = centers[i];
      knn_[i] = {c, Encode(c), oracle_->KnnDist2(c, kKnnK)};
    });

    // The snapshot a restarted service loads; saving it is not set-up.
    snapshot_ = opt_.out_dir + "/tiger2d-" + std::to_string(opt_.seed) +
                ".snapshot";
    PhTreeSharded tree(2);
    uint64_t t0 = NowNs();
    tree.BulkLoad(entries_);
    spans.Add(kSpanShardedBulkLoad, parent, t0, NowNs());
    t0 = NowNs();
    const phtree::Status st = tree.Save(snapshot_);
    spans.Add(kSpanShardedSave, parent, t0, NowNs());
    if (!st.ok()) {
      throw std::runtime_error("Save failed: " + st.ToString());
    }
  }

  ~TigerRead() override {
    if (!snapshot_.empty()) {
      std::remove(snapshot_.c_str());
    }
  }

  std::unique_ptr<PhTreeSharded> Build(SpanLog& spans,
                                       uint64_t parent) override {
    const uint64_t t0 = NowNs();
    auto tree = std::make_unique<PhTreeSharded>(2);
    const phtree::Status st = tree->Load(snapshot_);
    spans.Add(kSpanShardedLoad, parent, t0, NowNs());
    if (!st.ok() || tree->size() != entries_.size()) {
      throw std::runtime_error("Load failed: " + st.ToString());
    }
    return tree;
  }

  void BeginPhase(uint32_t phase, uint32_t clients) override {
    phase_ = phase;
    if (rec_find_.per_client.empty()) {
      rec_find_.Reset(clients, Scaled(kReplayPointOps, opt_.scale));
      rec_window_.Reset(clients, Scaled(2000, opt_.scale));
      rec_knn_.Reset(clients, Scaled(kReplayKnnOps, opt_.scale));
    }
  }

  void RunClient(PhTreeSharded& tree, uint32_t idx,
                 ClientCtx& ctx) override {
    Rng rng(StreamSeed(opt_.seed, 100 + phase_, idx));
    while (!ctx.stop->load(std::memory_order_relaxed)) {
      const double u = rng.NextDouble();
      ++ctx.log.attempted;
      if (u < 0.7) {
        const uint32_t i =
            static_cast<uint32_t>(rng.NextBounded(finds_.size()));
        const auto& q = finds_[i];
        const auto got = Timed(ctx, kFind, kSpanShardedFind,
                               [&] { return tree.Find(q.key); });
        if (got != q.expect) {
          ctx.log.Fail("Find answer differs from the oracle");
        }
        if (ctx.record) rec_find_.Add(idx, i);
      } else if (u < 0.9) {
        const uint32_t i =
            static_cast<uint32_t>(rng.NextBounded(windows_.size()));
        const auto& q = windows_[i];
        const size_t got = Timed(ctx, kWindow, kSpanShardedCountWindow,
                                 [&] { return tree.CountWindow(q.lo, q.hi); });
        if (got != q.expect) {
          ctx.log.Fail("CountWindow " + std::to_string(got) + " != oracle " +
                       std::to_string(q.expect));
        }
        if (ctx.record) rec_window_.Add(idx, i);
      } else {
        const uint32_t i = static_cast<uint32_t>(rng.NextBounded(knn_.size()));
        const auto& q = knn_[i];
        const auto res = Timed(ctx, kKnn, kSpanShardedKnn, [&] {
          return tree.KnnSearch(q.key, kKnnK, phtree::KnnMetric::kL2Double);
        });
        std::string why;
        bool ok = KnnShapeOk(q.center, res, &why);
        for (size_t r = 0; ok && r < res.size(); ++r) {
          ok = res[r].dist2 == q.expect[r];
        }
        if (!ok) {
          ctx.log.Fail(why.empty() ? "kNN distances differ from the oracle"
                                   : why);
        }
        if (ctx.record) rec_knn_.Add(idx, i);
      }
    }
  }

  void CheckContent(const PhTreeSharded& tree, OpLog* log) override {
    ContentDigest want, got;
    for (const auto& e : entries_) {
      want.Add(e.key, e.value);
    }
    tree.ForEach([&](const PhKey& k, uint64_t v) { got.Add(k, v); });
    ++log->attempted;
    if (!(want == got)) {
      log->Fail("content differs from the loaded data");
    }
  }

  ReplayInput MakeReplayInput() override {
    ReplayInput in;
    for (uint32_t i : rec_find_.Merged()) in.finds.push_back(finds_[i].key);
    for (uint32_t i : rec_window_.Merged()) {
      in.windows.emplace_back(windows_[i].lo, windows_[i].hi);
    }
    for (uint32_t i : rec_knn_.Merged()) in.knn.push_back(knn_[i].key);
    // The workload never writes: the replay measures its write layers on
    // fresh TIGER-like points and nearby moves of stored ones.
    const Dataset fresh = phtree::GenerateTigerLike(
        Scaled(kReplayPointOps, opt_.scale), opt_.seed + 7919);
    for (size_t i = 0; i < fresh.n(); ++i) {
      if (!oracle_->Find(fresh.point(i))) {
        in.inserts.push_back(Encode(fresh.point(i)));
      }
    }
    in.erases = in.inserts;
    in.updates = NearbyMoves(
        ds_, 0, Scaled(kReplayPointOps, opt_.scale), 1e-4,
        StreamSeed(opt_.seed, 4, 0),
        [&](const std::vector<double>& q) {
          return oracle_->Find(q).has_value();
        });
    return in;
  }

 private:
  struct FindQ {
    PhKey key;
    std::optional<uint64_t> expect;
  };
  struct WindowQ {
    PhKey lo, hi;
    size_t expect;
  };
  struct KnnQ {
    std::vector<double> center;
    PhKey key;
    std::vector<double> expect;
  };

  Options opt_;
  Dataset ds_;
  std::vector<PhEntry> entries_;
  std::unique_ptr<BruteIndex> oracle_;
  std::vector<FindQ> finds_;
  std::vector<WindowQ> windows_;
  std::vector<KnnQ> knn_;
  std::string snapshot_;
  uint32_t phase_ = 0;
  DrawRecorder rec_find_, rec_window_, rec_knn_;
};

// ---- move3d_update ------------------------------------------------------

class Move3dUpdate final : public Workload {
 public:
  static constexpr uint32_t kDim = 3;
  static constexpr double kSigma = 1e-4;  // BENCH_churn's nearby arm
  static constexpr uint32_t kRecheckEvery = 16;

  explicit Move3dUpdate(const Options& opt) : opt_(opt) {}

  uint32_t dim() const override { return kDim; }
  const std::vector<PhEntry>& initial() const override { return entries_; }

  void Prepare(SpanLog&, uint64_t) override {
    ds_ = phtree::GenerateCube(Scaled(1e6, opt_.scale, 1000), kDim,
                               opt_.seed);
    entries_ = ToEntries(ds_);
    pos_ = ds_.coords;
  }

  std::unique_ptr<PhTreeSharded> Build(SpanLog& spans,
                                       uint64_t parent) override {
    const uint64_t t0 = NowNs();
    auto tree = std::make_unique<PhTreeSharded>(kDim);
    const size_t added = tree->BulkLoad(entries_);
    spans.Add(kSpanShardedBulkLoad, parent, t0, NowNs());
    if (added != entries_.size()) {
      throw std::runtime_error("BulkLoad dropped entries");
    }
    return tree;
  }

  void BeginPhase(uint32_t phase, uint32_t clients) override {
    phase_ = phase;
    clients_ = clients;
    if (recorded_.empty()) {
      recorded_.assign(clients, {});
    }
  }

  void RunClient(PhTreeSharded& tree, uint32_t idx,
                 ClientCtx& ctx) override {
    // Each client owns a disjoint slice of the objects.
    const size_t n = ds_.n();
    const size_t first = n * idx / clients_;
    const size_t last = n * (idx + 1) / clients_;
    const size_t cap = Scaled(kReplayPointOps, opt_.scale) * 2 / clients_;
    Rng rng(StreamSeed(opt_.seed, 200 + phase_, idx));
    std::array<double, kDim> next;
    std::array<uint64_t, kDim> old_key, new_key;
    uint64_t moves = 0;
    while (!ctx.stop->load(std::memory_order_relaxed)) {
      const size_t j = first + rng.NextBounded(last - first);
      double* p = &pos_[j * kDim];
      for (uint32_t d = 0; d < kDim; ++d) {
        next[d] = std::clamp(p[d] + kSigma * Gaussian(rng), 0.0, 1.0);
        old_key[d] = phtree::SortableDoubleBits(p[d]);
        new_key[d] = phtree::SortableDoubleBits(next[d]);
      }
      ++ctx.log.attempted;
      const auto outcome = Timed(ctx, kUpdate, kSpanShardedUpdate, [&] {
        return tree.Update(old_key, new_key);
      });
      if (outcome != phtree::UpdateOutcome::kMoved) {
        ctx.log.Fail(std::string("Update returned ") +
                     phtree::UpdateOutcomeName(outcome));
        continue;
      }
      std::copy(next.begin(), next.end(), p);
      if (ctx.record && recorded_[idx].size() < cap) {
        recorded_[idx].push_back({static_cast<uint32_t>(j), next});
      }
      if (++moves % kRecheckEvery == 0) {
        ++ctx.log.attempted;
        const auto got = Timed(ctx, kFind, kSpanShardedFind,
                               [&] { return tree.Find(new_key); });
        if (got != std::optional<uint64_t>(j)) {
          ctx.log.Fail("re-check Find missed the moved object");
        }
      }
    }
  }

  void CheckContent(const PhTreeSharded& tree, OpLog* log) override {
    ContentDigest want, got;
    for (size_t j = 0; j < ds_.n(); ++j) {
      want.Add(Encode({&pos_[j * kDim], kDim}), j);
    }
    tree.ForEach([&](const PhKey& k, uint64_t v) { got.Add(k, v); });
    ++log->attempted;
    if (!(want == got)) {
      log->Fail("content differs from the writers' model");
    }
  }

  ReplayInput MakeReplayInput() override {
    ReplayInput in;
    const size_t ops = Scaled(kReplayPointOps, opt_.scale);
    in.finds = EncodeAll(phtree::bench::MakePointQueries(
        ds_, ops, StreamSeed(opt_.seed, 5, 0)));
    in.windows = EncodeBoxes(phtree::bench::MakeVolumeQueries(
        ds_, Scaled(1000, opt_.scale), 0.001, StreamSeed(opt_.seed, 6, 0)));
    in.knn = EncodeAll(phtree::bench::MakePointQueries(
        ds_, Scaled(kReplayKnnOps, opt_.scale), StreamSeed(opt_.seed, 7, 0)));
    const Dataset fresh =
        phtree::GenerateCube(ops, kDim, StreamSeed(opt_.seed, 8, 0));
    for (size_t i = 0; i < fresh.n(); ++i) {
      in.inserts.push_back(Encode(fresh.point(i)));
    }
    in.erases = in.inserts;
    // The recorded moves, replayed from the initial positions. Clients own
    // disjoint objects, so their streams concatenate in any order.
    std::vector<double> pos = ds_.coords;
    for (const auto& stream : recorded_) {
      for (const auto& [j, to] : stream) {
        double* p = &pos[size_t{j} * kDim];
        in.updates.emplace_back(Encode({p, kDim}), Encode(to));
        std::copy(to.begin(), to.end(), p);
      }
    }
    return in;
  }

 private:
  Options opt_;
  Dataset ds_;
  std::vector<PhEntry> entries_;
  std::vector<double> pos_;  ///< the writers' model: object j's position
  uint32_t phase_ = 0;
  uint32_t clients_ = 1;
  std::vector<std::vector<std::pair<uint32_t, std::array<double, kDim>>>>
      recorded_;
};

// ---- cube6d_mixed -------------------------------------------------------

class Cube6dMixed final : public Workload {
 public:
  static constexpr uint32_t kDim = 6;
  static constexpr double kWriterRate = 20000;  // mutations per second
  static constexpr uint32_t kKeyCheckEvery = 32;

  explicit Cube6dMixed(const Options& opt) : opt_(opt) {}

  uint32_t dim() const override { return kDim; }
  bool paced_writer() const override { return true; }
  const std::vector<PhEntry>& initial() const override { return entries_; }

  void Prepare(SpanLog&, uint64_t) override {
    const size_t n = Scaled(5e5, opt_.scale, 1000);
    const Dataset ds = phtree::GenerateCube(n, kDim, opt_.seed);
    entries_ = ToEntries(ds);
    // Fresh points for the writer: enough for the warm-up and every live
    // phase at the full rate (a traced run has two seconds-long phases'
    // worth), plus margin. Ids n.. follow the initial ids 0..n-1.
    const double live_seconds =
        kWarmUpSeconds + opt_.seconds * (opt_.trace ? 2.0 : 1.0);
    const size_t fresh_n =
        static_cast<size_t>(kWriterRate / 2 * live_seconds * 1.25) + 1000;
    const Dataset fresh =
        phtree::GenerateCube(fresh_n, kDim, StreamSeed(opt_.seed, 9, 0));
    all_ = ds;
    all_.coords.insert(all_.coords.end(), fresh.coords.begin(),
                       fresh.coords.end());
    keys_.resize(all_.coords.size());
    for (size_t i = 0; i < all_.coords.size(); ++i) {
      keys_[i] = phtree::SortableDoubleBits(all_.coords[i]);
    }
    head_.store(0);
    tail_.store(n);

    const BruteIndex oracle(kDim, all_.coords);
    const auto boxes = phtree::bench::MakeVolumeQueries(
        ds, 2048, 0.001, StreamSeed(opt_.seed, 10, 0));
    windows_.resize(boxes.size());
    PrepareInParallel(boxes.size(), [&](size_t i) {
      const auto& b = boxes[i];
      windows_[i] = {Encode(b.lo), Encode(b.hi), oracle.IdsInBox(b.lo, b.hi)};
    });
    for (const auto& c : phtree::bench::MakePointQueries(
             ds, 2048, StreamSeed(opt_.seed, 11, 0))) {
      knn_.push_back({c, Encode(c)});
    }
  }

  std::unique_ptr<PhTreeSharded> Build(SpanLog& spans,
                                       uint64_t parent) override {
    const uint64_t t0 = NowNs();
    auto tree = std::make_unique<PhTreeSharded>(kDim);
    const size_t added = tree->BulkLoad(entries_);
    spans.Add(kSpanShardedBulkLoad, parent, t0, NowNs());
    if (added != entries_.size()) {
      throw std::runtime_error("BulkLoad dropped entries");
    }
    return tree;
  }

  void BeginPhase(uint32_t phase, uint32_t clients) override {
    phase_ = phase;
    if (rec_window_.per_client.empty()) {
      rec_window_.Reset(clients, Scaled(300, opt_.scale));
      rec_knn_.Reset(clients, Scaled(kReplayKnnOps, opt_.scale));
    }
  }

  void RunClient(PhTreeSharded& tree, uint32_t idx,
                 ClientCtx& ctx) override {
    Rng rng(StreamSeed(opt_.seed, 300 + phase_, idx));
    uint64_t windows = 0;
    while (!ctx.stop->load(std::memory_order_relaxed)) {
      ++ctx.log.attempted;
      if (rng.NextDouble() < 0.8) {
        const uint32_t i =
            static_cast<uint32_t>(rng.NextBounded(windows_.size()));
        const auto& q = windows_[i];
        const uint64_t h0 = head_.load(std::memory_order_acquire);
        const uint64_t t0 = tail_.load(std::memory_order_acquire);
        const size_t got = Timed(ctx, kWindow, kSpanShardedCountWindow,
                                 [&] { return tree.CountWindow(q.lo, q.hi); });
        if (!CountInBracket(q, h0, t0, got)) {
          ctx.log.Fail("CountWindow outside the writer model's bracket");
        }
        if (++windows % kKeyCheckEvery == 0) {
          CheckWindowKeys(tree, q, ctx);
        }
        if (ctx.record) rec_window_.Add(idx, i);
      } else {
        const uint32_t i = static_cast<uint32_t>(rng.NextBounded(knn_.size()));
        const auto& q = knn_[i];
        const auto res = Timed(ctx, kKnn, kSpanShardedKnn, [&] {
          return tree.KnnSearch(q.key, kKnnK, phtree::KnnMetric::kL2Double);
        });
        std::string why;
        if (!KnnShapeOk(q.center, res, &why)) {
          ctx.log.Fail(why);
        }
        if (ctx.record) rec_knn_.Add(idx, i);
      }
    }
  }

  void RunWriter(PhTreeSharded& tree, ClientCtx& ctx,
                 PhaseResult* out) override {
    const uint64_t period = static_cast<uint64_t>(1e9 / kWriterRate);
    const uint64_t start = NowNs();
    for (uint64_t j = 0;; ++j) {
      const uint64_t due = start + j * period;
      uint64_t now = NowNs();
      while (now < due && !ctx.stop->load(std::memory_order_relaxed)) {
        std::this_thread::yield();
        now = NowNs();
      }
      if (ctx.stop->load(std::memory_order_relaxed)) {
        out->writer_due = j;
        return;
      }
      ++ctx.log.attempted;
      bool ok;
      uint32_t kind;
      // Alternate: insert the next fresh point, erase the oldest live one.
      if (j % 2 == 0) {
        const uint64_t id = tail_.load(std::memory_order_relaxed);
        if ((id + 1) * kDim > keys_.size()) {
          ctx.log.Fail("writer ran out of fresh points");
          out->writer_due = j;
          return;
        }
        ok = tree.Insert(Key(id), id);
        kind = kInsert;
        if (ok) tail_.store(id + 1, std::memory_order_release);
      } else {
        const uint64_t id = head_.load(std::memory_order_relaxed);
        ok = tree.Erase(Key(id));
        kind = kErase;
        if (ok) head_.store(id + 1, std::memory_order_release);
      }
      const uint64_t end = NowNs();
      ctx.log.lat[kind].Add(end - due);
      out->writer_late.Add(now - due);
      ctx.spans.Add(kind == kInsert ? kSpanShardedInsert : kSpanShardedErase,
                    ctx.parent, now, end);
      if (!ok) {
        ctx.log.Fail(kind == kInsert ? "Insert of a fresh point failed"
                                     : "Erase of the oldest point failed");
      }
    }
  }

  void CheckContent(const PhTreeSharded& tree, OpLog* log) override {
    ContentDigest want, got;
    for (uint64_t id = head_.load(); id < tail_.load(); ++id) {
      want.Add(Key(id), id);
    }
    tree.ForEach([&](const PhKey& k, uint64_t v) { got.Add(k, v); });
    ++log->attempted;
    if (!(want == got)) {
      log->Fail("content differs from the writer's model");
    }
  }

  ReplayInput MakeReplayInput() override {
    ReplayInput in;
    const size_t n = entries_.size();
    const size_t ops = Scaled(kReplayPointOps, opt_.scale);
    Dataset ds;
    ds.dim = kDim;
    ds.coords.assign(all_.coords.begin(), all_.coords.begin() + n * kDim);
    in.finds = EncodeAll(phtree::bench::MakePointQueries(
        ds, ops, StreamSeed(opt_.seed, 12, 0)));
    for (uint32_t i : rec_window_.Merged()) {
      in.windows.emplace_back(windows_[i].lo, windows_[i].hi);
    }
    for (uint32_t i : rec_knn_.Merged()) in.knn.push_back(knn_[i].key);
    // The writer's stream is a pure function of the seed: insert fresh
    // point n + j, erase initial point j. Replay its first 2 * m steps.
    const size_t m = std::min(ops, all_.n() - n);
    for (size_t j = 0; j < m; ++j) {
      const auto fresh = Key(n + j);
      const auto oldest = Key(j);
      in.inserts.emplace_back(fresh.begin(), fresh.end());
      in.erases.emplace_back(oldest.begin(), oldest.end());
    }
    // The workload never moves a point: nearby moves of surviving ones.
    in.updates = NearbyMoves(ds, m, ops, 1e-4, StreamSeed(opt_.seed, 13, 0),
                             [](const std::vector<double>&) { return false; });
    return in;
  }

 private:
  struct WindowQ {
    PhKey lo, hi;
    std::vector<uint32_t> ids;  ///< ids of every point (initial or fresh)
                                ///< inside the box, ascending
  };
  struct KnnQ {
    std::vector<double> center;
    PhKey key;
  };

  std::span<const uint64_t> Key(uint64_t id) const {
    return {keys_.data() + id * kDim, kDim};
  }

  size_t IdsIn(const WindowQ& q, uint64_t lo, uint64_t hi) const {
    if (hi <= lo) {
      return 0;
    }
    return static_cast<size_t>(
        std::lower_bound(q.ids.begin(), q.ids.end(), hi) -
        std::lower_bound(q.ids.begin(), q.ids.end(), lo));
  }

  /// Live ids are [head, tail). Ids below h0 were erased and ids below t0
  /// inserted before the call began; the writer may complete one more
  /// insert and one more erase than the head/tail read after the call
  /// shows (it publishes head/tail after the tree mutation).
  bool CountInBracket(const WindowQ& q, uint64_t h0, uint64_t t0,
                      size_t got) const {
    const uint64_t h1 = head_.load(std::memory_order_acquire);
    const uint64_t t1 = tail_.load(std::memory_order_acquire);
    return got >= IdsIn(q, h1 + 1, t0) && got <= IdsIn(q, h0, t1 + 1);
  }

  /// Untimed: every key QueryWindow returns lies in the box, is a point
  /// the writer model knows, and the count is in the bracket.
  void CheckWindowKeys(const PhTreeSharded& tree, const WindowQ& q,
                       ClientCtx& ctx) {
    const uint64_t h0 = head_.load(std::memory_order_acquire);
    const uint64_t t0 = tail_.load(std::memory_order_acquire);
    const auto res = tree.QueryWindow(q.lo, q.hi);
    ++ctx.log.attempted;
    bool ok = CountInBracket(q, h0, t0, res.size());
    for (const auto& [key, id] : res) {
      ok = ok && KeyInBox(key, q.lo, q.hi) && id * kDim < keys_.size() &&
           std::equal(key.begin(), key.end(), Key(id).begin());
    }
    if (!ok) {
      ctx.log.Fail("QueryWindow returned a key outside its box or model");
    }
  }

  Options opt_;
  std::vector<PhEntry> entries_;
  Dataset all_;                 ///< initial then fresh points, by id
  std::vector<uint64_t> keys_;  ///< encoded keys of all_, by id
  std::atomic<uint64_t> head_{0}, tail_{0};
  std::vector<WindowQ> windows_;
  std::vector<KnnQ> knn_;
  uint32_t phase_ = 0;
  DrawRecorder rec_window_, rec_knn_;
};

}  // namespace

phtree::PhUpdateStats SumUpdateStats(const PhTreeSharded& tree) {
  phtree::PhUpdateStats sum;
  for (uint32_t s = 0; s < tree.num_shards(); ++s) {
    sum.fast_path += tree.UnsafeShard(s).update_stats().fast_path;
    sum.fallback += tree.UnsafeShard(s).update_stats().fallback;
  }
  return sum;
}

double FastPathShare(const phtree::PhUpdateStats& before,
                     const phtree::PhUpdateStats& after) {
  const double fast = static_cast<double>(after.fast_path - before.fast_path);
  const double all =
      fast + static_cast<double>(after.fallback - before.fallback);
  return all == 0 ? 0 : fast / all;
}

uint32_t MaxThreads() {
  uint32_t cpus = std::thread::hardware_concurrency();
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::clamp<uint32_t>(cpus, 1, 4);
}

std::unique_ptr<Workload> MakeWorkload(const Options& opt) {
  if (opt.workload == "tiger2d_read") return std::make_unique<TigerRead>(opt);
  if (opt.workload == "move3d_update") {
    return std::make_unique<Move3dUpdate>(opt);
  }
  if (opt.workload == "cube6d_mixed") return std::make_unique<Cube6dMixed>(opt);
  return nullptr;
}

PhaseResult RunPhase(Workload& w, PhTreeSharded& tree, const PhaseSpec& spec) {
  PhaseResult out;
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  w.BeginPhase(spec.phase, spec.clients);
  const uint32_t n_threads = spec.clients + (w.paced_writer() ? 1 : 0);
  for (uint32_t t = 0; t < n_threads; ++t) {
    auto ctx = std::make_unique<ClientCtx>(t + 1, spec.traced);
    ctx->stop = &stop;
    ctx->parent = spec.parent;
    ctx->record = spec.record;
    out.threads.push_back(std::move(ctx));
  }
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      ClientCtx& ctx = *out.threads[t];
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      try {
        if (t < spec.clients) {
          w.RunClient(tree, t, ctx);
        } else {
          w.RunWriter(tree, ctx, &out);
        }
      } catch (const std::exception& e) {
        ctx.log.Fail(std::string("exception: ") + e.what());
      }
    });
  }

  // Sample the closed-loop clients' progress every 100 ms; the phase's
  // throughput is the median interval rate.
  constexpr uint64_t kTickNs = 100'000'000;
  const uint64_t start = NowNs();
  go.store(true, std::memory_order_release);
  const uint64_t end = start + static_cast<uint64_t>(spec.seconds * 1e9);
  auto client_ops = [&] {
    uint64_t ops = 0;
    for (uint32_t t = 0; t < spec.clients; ++t) {
      ops += out.threads[t]->done.load(std::memory_order_relaxed);
    }
    return ops;
  };
  std::vector<double> rates;
  uint64_t prev_ops = 0;
  uint64_t prev_t = start;
  uint64_t next_sample = start + 1'000'000'000;
  for (uint64_t tick = start + kTickNs;; tick += kTickNs) {
    const uint64_t wake = std::min(tick, end);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(wake - std::min(wake, NowNs())));
    const uint64_t ops = client_ops();
    const uint64_t now = NowNs();
    if (now > prev_t) {
      rates.push_back(static_cast<double>(ops - prev_ops) * 1e9 /
                      static_cast<double>(now - prev_t));
    }
    prev_ops = ops;
    prev_t = now;
    if (spec.sample_backlog && now >= next_sample) {
      out.max_retired_bytes = std::max<uint64_t>(
          out.max_retired_bytes, tree.ComputeStats().arena_retired_bytes);
      next_sample = now + 1'000'000'000;
      // The stats walk stalls writers; leave it out of every interval.
      prev_ops = client_ops();
      prev_t = NowNs();
    }
    if (now >= end) {
      break;
    }
  }
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  out.ops_s = Median(rates);
  for (uint32_t t = 0; t < n_threads; ++t) {
    (t < spec.clients ? out.clients : out.writer).Merge(out.threads[t]->log);
  }
  return out;
}

}  // namespace perfbench
