#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "perfbench.h"

namespace perfbench {

double LatencyHist::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const uint64_t rank = std::min(
      count_ - 1, static_cast<uint64_t>(q * static_cast<double>(count_)));
  uint64_t below = 0;
  for (uint32_t i = 0; i < kBuckets; ++i) {
    if (below + buckets_[i] <= rank) {
      below += buckets_[i];
      continue;
    }
    double lo = i, width = 1;
    if (i >= (2u << kSubBits)) {
      const uint32_t shift = (i >> kSubBits) - 1;
      lo = std::ldexp(i - (shift << kSubBits), static_cast<int>(shift));
      width = std::ldexp(1.0, static_cast<int>(shift));
    }
    return lo + width * (static_cast<double>(rank - below) + 0.5) /
                    static_cast<double>(buckets_[i]);
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

const char* SpanNameString(uint32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "PhTreeSharded::Find",
      "PhTreeSharded::CountWindow",
      "PhTreeSharded::KnnSearch",
      "PhTreeSharded::Insert",
      "PhTreeSharded::Erase",
      "PhTreeSharded::Update",
      "PhTreeSharded::BulkLoad",
      "PhTreeSharded::Load",
      "PhTreeSharded::Save",
      "PhTree::BulkLoad",
      "replay.plain_chunk",
      "replay.mvcc_chunk",
      "replay.sharded_chunk",
      "replay.scalar_chunk",
      "replay.shard_serial_chunk",
      "phase.setup",
      "phase.live",
      "phase.replay",
      "phase.epoch_arm",
  };
  return name < kNumSpanNames ? kNames[name] : "?";
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // Times are relative to the earliest span, to keep the file small.
  uint64_t base = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      base = std::min(base, s.start_ns);
    }
  }
  uint64_t dropped = 0;
  out << "id\tparent\tthread\tname\tstart_ns\tend_ns\n";
  for (const SpanLog* log : logs) {
    dropped += log->dropped();
    for (const Span& s : log->spans()) {
      out << s.id << '\t' << s.parent << '\t' << s.thread << '\t'
          << SpanNameString(s.name) << '\t' << s.start_ns - base << '\t'
          << s.end_ns - base << '\n';
    }
  }
  if (dropped > 0) {
    std::fprintf(stderr, "%llu spans past the per-thread cap were dropped\n",
                 static_cast<unsigned long long>(dropped));
  }
  return static_cast<bool>(out);
}

void OpLog::Merge(const OpLog& other) {
  for (uint32_t k = 0; k < kNumOpKinds; ++k) {
    lat[k].Merge(other.lat[k]);
  }
  attempted += other.attempted;
  failed += other.failed;
  if (first_failure.empty()) {
    first_failure = other.first_failure;
  }
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
