// Fuzz target: arbitrary bytes -> command stream -> the full differential
// runner. Every input replays one operation sequence simultaneously
// against the ReferenceModel oracle and every tree variant (PhTree,
// PhTreeSharded with one and two shards, KD1/KD2/CB1); any
// observable divergence or structural-invariant violation abort()s, which
// a fuzzing engine reports as a crash and the replay driver as a failure.
//
// Input layout: byte 0 selects the key-space shape (dimensionality and
// grid size — small grids maximise collisions and dense nodes), the rest
// is decoded by BytesCommandSource. Truncated inputs are valid: missing
// trailing fields decode as zero.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "testlib/differential.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) {
    return 0;
  }
  using phtree::testlib::BytesCommandSource;
  using phtree::testlib::DiffOptions;
  using phtree::testlib::DiffReport;

  DiffOptions opts;
  opts.commands.dim = 1 + data[0] % 3;            // 1..3 dimensions
  opts.commands.grid_bits = 4 + (data[0] >> 2) % 5;  // 16..256 grid points
  opts.ops = 1 << 14;  // bound even adversarially dense inputs
  opts.validate_every = 64;
  opts.shard_counts = {1, 2};
  // tmp_dir stays empty: the plain tree still round-trips every kSaveLoad
  // command in memory; the file-based variants skip it (no disk I/O in the
  // fuzz loop).

  BytesCommandSource source(opts.commands,
                            std::span(data + 1, size - 1));
  const DiffReport report = RunDifferential(opts, source);
  if (!report.ok()) {
    std::fprintf(stderr, "fuzz_ops divergence: %s\n",
                 report.divergence.c_str());
    std::abort();
  }
  return 0;
}
