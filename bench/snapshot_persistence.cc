// Snapshot persistence benchmarks (google-benchmark): serialisation and
// deserialisation throughput of format v2 with and without checksum
// verification, the CRC32C substrate itself, the atomic durable save path
// (fsync included), and file loads into a plain and an 8-shard tree. The
// checksummed-vs-unchecksummed load delta is the price of integrity.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/sharded.h"

namespace phtree {
namespace {

PhTree BuildTree(size_t n, uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  PhTree tree(dim);
  tree.ReserveNodes(n);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      v = rng.NextU64();
    }
    tree.InsertOrAssign(key, i);
  }
  return tree;
}

void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<uint8_t> data(n);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(Crc32cUsesHardware() ? "hw(sse4.2)" : "sw(slice-by-8)");
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(1 << 20);

void BM_SerializeV2(benchmark::State& state) {
  const PhTree tree = BuildTree(static_cast<size_t>(state.range(0)), 3, 2);
  size_t bytes = 0;
  for (auto _ : state) {
    const auto out = SerializePhTree(tree);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_SerializeV2)->Arg(100000)->Unit(benchmark::kMillisecond);

void DeserializeBench(benchmark::State& state, const LoadOptions& opts) {
  const PhTree tree = BuildTree(static_cast<size_t>(state.range(0)), 3, 2);
  const auto bytes = SerializePhTree(tree);
  for (auto _ : state) {
    auto back = DeserializePhTreeOr(bytes, opts);
    benchmark::DoNotOptimize(back.has_value());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}

void BM_DeserializeChecked(benchmark::State& state) {
  LoadOptions opts;
  opts.verify_checksums = true;
  DeserializeBench(state, opts);
}
BENCHMARK(BM_DeserializeChecked)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_DeserializeUnchecked(benchmark::State& state) {
  LoadOptions opts;
  opts.verify_checksums = false;
  DeserializeBench(state, opts);
}
BENCHMARK(BM_DeserializeUnchecked)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_DeserializeParanoid(benchmark::State& state) {
  LoadOptions opts;
  opts.verify_checksums = true;
  opts.validate_structure = true;
  DeserializeBench(state, opts);
}
BENCHMARK(BM_DeserializeParanoid)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SaveAtomicDurable(benchmark::State& state) {
  const PhTree tree = BuildTree(static_cast<size_t>(state.range(0)), 3, 2);
  const std::string path = "/tmp/phtree_snapshot_bench.bin";
  size_t bytes = SerializePhTree(tree).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SavePhTreeOr(tree, path).ok());
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SaveAtomicDurable)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_LoadFile(benchmark::State& state) {
  const PhTree tree = BuildTree(static_cast<size_t>(state.range(0)), 3, 2);
  const std::string path = "/tmp/phtree_snapshot_bench.bin";
  if (!SavePhTreeOr(tree, path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    auto back = LoadPhTreeOr(path);
    benchmark::DoNotOptimize(back.has_value());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_LoadFile)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ShardedLoadFile(benchmark::State& state) {
  const PhTree tree = BuildTree(static_cast<size_t>(state.range(0)), 3, 2);
  const std::string path = "/tmp/phtree_sharded_snapshot_bench.bin";
  if (!SavePhTreeOr(tree, path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  PhTreeSharded sharded(3, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharded.Load(path).ok());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tree.size()));
}
BENCHMARK(BM_ShardedLoadFile)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phtree
