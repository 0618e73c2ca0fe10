// Shared types of the end-to-end benchmark: options, the metric report,
// per-thread op logs and the span recorder.
//
// The benchmark drives the public PhTreeSharded API the way a caller does,
// checks every answer against an oracle that does not use the PH-tree, and
// prints every metric with its unit. See METRICS.md for what each metric
// means and which end-to-end metric each per-layer metric should move.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every data-set size; the self-check runs at a tiny scale.
  double scale = 1.0;
  /// Where span files and the snapshot go (inside the checkout).
  std::string out_dir = ".";
};

/// Every operation kind the benchmark issues into the library.
enum OpKind : uint32_t {
  kFind,
  kWindow,
  kKnn,
  kInsert,
  kErase,
  kUpdate,
  kNumOpKinds,
};

inline const char* OpKindName(uint32_t kind) {
  static const char* const kNames[kNumOpKinds] = {
      "find", "window", "knn", "insert", "erase", "update"};
  return kNames[kind];
}

/// Latencies in fixed memory: 128 exact 1 ns buckets, then 64 buckets per
/// power of two (1/64 relative width) up to 2^32 ns. Its size does not
/// grow with the number of calls, so the benchmark's own bookkeeping stays
/// out of the peak RSS however fast the program runs.
class LatencyHist {
 public:
  static constexpr uint32_t kSubBits = 6;
  static constexpr uint32_t kBuckets = (32 - kSubBits + 1) << kSubBits;

  void Add(uint64_t ns) {
    ++buckets_[Index(std::min<uint64_t>(ns, UINT32_MAX))];
    ++count_;
  }
  void Merge(const LatencyHist& other) {
    for (uint32_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Nearest-rank `q` quantile in ns, placed linearly inside its bucket;
  /// 0 when empty.
  double Percentile(double q) const;

 private:
  static uint32_t Index(uint64_t ns) {
    if (ns < (2u << kSubBits)) {
      return static_cast<uint32_t>(ns);
    }
    const uint32_t shift =
        static_cast<uint32_t>(std::bit_width(ns)) - kSubBits - 1;
    return (shift << kSubBits) + static_cast<uint32_t>(ns >> shift);
  }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

/// Median of a small vector of doubles.
double Median(std::vector<double> v);

/// One recorded call into a library function.
struct Span {
  uint32_t name;    ///< a SpanName
  uint32_t thread;  ///< benchmark thread index (0 = main)
  uint64_t id;
  uint64_t parent;  ///< 0 = root
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Span names: the library functions the benchmark calls, plus the
/// benchmark's own phases (the parents).
enum SpanName : uint32_t {
  kSpanShardedFind,
  kSpanShardedCountWindow,
  kSpanShardedKnn,
  kSpanShardedInsert,
  kSpanShardedErase,
  kSpanShardedUpdate,
  kSpanShardedBulkLoad,
  kSpanShardedLoad,
  kSpanShardedSave,
  kSpanTreeBulkLoad,
  kSpanReplayPlain,
  kSpanReplayMvcc,
  kSpanReplaySharded,
  kSpanReplayScalar,
  kSpanReplayShardSerial,
  kSpanPhaseSetup,
  kSpanPhaseLive,
  kSpanPhaseReplay,
  kSpanPhaseEpochArm,
  kNumSpanNames,
};

const char* SpanNameString(uint32_t name);

/// Per-thread span buffer. Spans stay in memory until WriteSpans at exit;
/// past `kMaxSpans` a thread only counts what it drops.
class SpanLog {
 public:
  static constexpr size_t kMaxSpans = 1 << 17;

  SpanLog(uint32_t thread, bool enabled) : thread_(thread), enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 16);
    }
  }

  /// Records one finished span; returns its id (0 when tracing is off).
  uint64_t Add(uint32_t name, uint64_t parent, uint64_t start_ns,
               uint64_t end_ns) {
    if (!enabled_) {
      return 0;
    }
    const uint64_t id = NextId();
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, thread_, id, parent, start_ns, end_ns});
    } else {
      ++dropped_;
    }
    return id;
  }

  /// Reserves an id for a parent span whose end is not known yet.
  uint64_t Open() { return enabled_ ? NextId() : 0; }
  void Close(uint64_t id, uint32_t name, uint64_t parent, uint64_t start_ns) {
    if (enabled_) {
      spans_.push_back(Span{name, thread_, id, parent, start_ns, NowNs()});
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  uint32_t thread_;
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes every span of `logs` as tab-separated lines to `path`, and
/// reports on stderr how many spans the per-thread cap dropped.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// Wall-clock per-call latency of every op kind one thread issued, plus
/// its correctness tally. Owned by one thread during a phase.
struct OpLog {
  LatencyHist lat[kNumOpKinds];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) {
      first_failure = what;
    }
  }
  void Merge(const OpLog& other);
};

/// One reported number.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  ///< sample count behind a percentile, else 0
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Restarts VmHWM at the current resident set (Linux clear_refs "5"); where
/// that is not possible the peak keeps covering the whole process.
void ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
