// Corruption fault-injection harness for snapshot format v2 (serialize.h):
// systematically truncates, bit-flips and splices a valid snapshot and
// asserts every mutation is either rejected with the right SnapshotError
// class or yields a tree that passes ValidatePhTree — never a crash (run
// under Asan/UBSan: `ctest -L tier1` in the sanitizer build presets),
// never a silently broken tree. Also covers the atomic-save protocol and
// the I/O-vs-format error distinction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/snapshot_fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/sharded.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

PhTree MakeTree(size_t n, uint32_t dim, uint64_t seed,
                PhTreeConfig config = {}) {
  Rng rng(seed);
  PhTree tree(dim, config);
  for (size_t i = 0; i < n; ++i) {
    PhKey key(dim);
    for (auto& v : key) {
      // Mixed magnitudes so deltas span 0..8 encoded bytes.
      v = rng.NextU64() >> (rng.NextBounded(5) * 8);
    }
    tree.InsertOrAssign(key, i);
  }
  return tree;
}

/// Reference snapshot small enough for exhaustive per-bit sweeps but with
/// many records (entries_per_record=16), so record framing, record CRCs
/// and the trailer all get hit.
std::vector<uint8_t> SmallSnapshot() {
  const PhTree tree = MakeTree(128, 3, 42);
  SaveOptions opts;
  opts.entries_per_record = 16;
  return SerializePhTree(tree, opts);
}

class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_("/tmp/" + name) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// `bytes` with the entry count in the header (offset 26: magic 4 + len 4
/// + dim 4 + repr 1 + hysteresis 8 + hc_max_dim 4 + store_values 1) and in
/// the trailer both set to `count`, and every CRC repaired — a consistent
/// lie only the count cross-check can catch.
std::vector<uint8_t> ForgeEntryCount(std::vector<uint8_t> bytes,
                                     uint64_t count) {
  const auto layout = DescribeSnapshot(bytes);
  if (!layout) {
    ADD_FAILURE() << layout.error().ToString();
    return bytes;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[26 + i] = static_cast<uint8_t>(count >> (8 * i));
    bytes[layout->trailer_begin + i] = static_cast<uint8_t>(count >> (8 * i));
  }
  EXPECT_TRUE(RepairSnapshotChecksums(&bytes));
  return bytes;
}

/// What PhTreeSharded::Load of `bytes` returns, through the file `name`.
Status ShardedLoadStatus(const std::vector<uint8_t>& bytes, uint32_t dim,
                         const std::string& name) {
  TempFile file(name);
  WriteFile(file.path(), bytes);
  PhTreeSharded sharded(dim, 8);
  return sharded.Load(file.path());
}

bool CodeIn(StatusCode code, std::initializer_list<StatusCode> allowed) {
  for (StatusCode c : allowed) {
    if (c == code) {
      return true;
    }
  }
  return false;
}

TEST(SnapshotLayoutTest, DescribesFraming) {
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value()) << layout.error().ToString();
  EXPECT_EQ(layout->version, kSnapshotVersion);
  EXPECT_EQ(layout->entry_count, 128u);
  EXPECT_EQ(layout->records.size(), 8u);  // 128 entries / 16 per record
  EXPECT_EQ(layout->trailer_end, bytes.size());
  EXPECT_EQ(layout->trailer_end - layout->trailer_begin, 16u);
  uint64_t total = 0;
  for (const auto& rec : layout->records) {
    EXPECT_EQ(rec.entry_count, 16u);
    total += rec.entry_count;
  }
  EXPECT_EQ(total, layout->entry_count);
}

TEST(CorruptionHarness, TruncationAtEveryByteIsDetected) {
  const auto bytes = SmallSnapshot();
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusCode code = StatusCode::kOk;
    const std::string failure =
        CheckMutatedSnapshot(TruncateSnapshot(bytes, len), &code);
    ASSERT_EQ(failure, "") << "truncated to " << len << " bytes";
    ASSERT_EQ(code, StatusCode::kTruncated)
        << "truncated to " << len << " bytes, got " << StatusCodeName(code);
  }
}

TEST(CorruptionHarness, EveryBitFlipIsDetectedWithTheRightClass) {
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  std::map<SnapshotRegion, size_t> hits;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    StatusCode code = StatusCode::kOk;
    const std::string failure = CheckMutatedSnapshot(FlipBit(bytes, bit), &code);
    ASSERT_EQ(failure, "") << "bit " << bit;
    const SnapshotRegion region = RegionOf(*layout, bit / 8);
    ++hits[region];
    bool allowed = false;
    switch (region) {
      case SnapshotRegion::kHeader:
        allowed = CodeIn(code, {StatusCode::kBadMagic,
                                StatusCode::kUnsupportedVersion,
                                StatusCode::kHeaderCorrupt});
        break;
      case SnapshotRegion::kRecordLength:
        allowed = CodeIn(code, {StatusCode::kTruncated,
                                StatusCode::kRecordCorrupt});
        break;
      case SnapshotRegion::kRecordPayload:
      case SnapshotRegion::kRecordCrc:
        allowed = CodeIn(code, {StatusCode::kRecordCorrupt});
        break;
      case SnapshotRegion::kTrailer:
        allowed = CodeIn(code, {StatusCode::kTrailerCorrupt});
        break;
    }
    ASSERT_TRUE(allowed) << "bit " << bit << " in region "
                         << SnapshotRegionName(region) << " rejected as "
                         << StatusCodeName(code);
  }
  // The sweep actually exercised every region.
  for (SnapshotRegion region :
       {SnapshotRegion::kHeader, SnapshotRegion::kRecordLength,
        SnapshotRegion::kRecordPayload, SnapshotRegion::kRecordCrc,
        SnapshotRegion::kTrailer}) {
    EXPECT_GT(hits[region], 0u) << SnapshotRegionName(region);
  }
}

TEST(CorruptionHarness, RecordBoundaryTruncationOnLargeSnapshot) {
  // Default framing (512 entries/record) over a multi-record tree.
  const PhTree tree = MakeTree(1500, 3, 7);
  const auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  ASSERT_EQ(layout->records.size(), 3u);
  std::vector<size_t> cuts = {layout->header_end, layout->trailer_begin};
  for (const auto& rec : layout->records) {
    cuts.push_back(rec.begin);
    cuts.push_back(rec.payload_begin);
    cuts.push_back(rec.crc_offset);
    cuts.push_back(rec.end);
  }
  for (size_t cut : cuts) {
    StatusCode code = StatusCode::kOk;
    ASSERT_EQ(CheckMutatedSnapshot(TruncateSnapshot(bytes, cut), &code), "");
    ASSERT_EQ(code, StatusCode::kTruncated) << "cut at " << cut;
  }
}

TEST(CorruptionHarness, RecordSplicesAreDetected) {
  const PhTree tree = MakeTree(1500, 3, 7);
  const auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  ASSERT_GE(layout->records.size(), 3u);

  StatusCode code = StatusCode::kOk;
  // Swapping two CRC-intact records must still be caught (by the decoded
  // key checks or the whole-stream trailer CRC).
  ASSERT_EQ(CheckMutatedSnapshot(SwapRecords(bytes, *layout, 0, 2), &code), "");
  EXPECT_NE(code, StatusCode::kOk) << "record swap was accepted";
  ASSERT_EQ(CheckMutatedSnapshot(SwapRecords(bytes, *layout, 1, 2), &code), "");
  EXPECT_NE(code, StatusCode::kOk) << "record swap was accepted";

  ASSERT_EQ(CheckMutatedSnapshot(DropRecord(bytes, *layout, 1), &code), "");
  EXPECT_NE(code, StatusCode::kOk) << "record drop was accepted";

  ASSERT_EQ(CheckMutatedSnapshot(DuplicateRecord(bytes, *layout, 1), &code),
            "");
  EXPECT_NE(code, StatusCode::kOk) << "record duplication was accepted";
}

TEST(CorruptionHarness, RandomizedMutationSweep10k) {
  // Seeded, deterministic 10k-iteration sweep mixing bit flips, byte
  // overwrites, truncations and insertions. Runs in every build; the Asan
  // preset (which `ctest -L tier1` covers) is the one that would catch a
  // loader overread on these streams.
  const auto bytes = SmallSnapshot();
  Rng rng(20260807);
  size_t rejected = 0;
  size_t accepted = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<uint8_t> mutated = bytes;
    const uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {  // flip 1-8 random bits
      const uint64_t flips = 1 + rng.NextBounded(8);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t bit = rng.NextBounded(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
    } else if (kind == 1) {  // overwrite 1-4 random bytes
      const uint64_t writes = 1 + rng.NextBounded(4);
      for (uint64_t w = 0; w < writes; ++w) {
        mutated[rng.NextBounded(mutated.size())] =
            static_cast<uint8_t>(rng.NextU64());
      }
    } else if (kind == 2) {  // truncate, maybe after a flip
      if (rng.NextBool(0.5)) {
        const size_t bit = rng.NextBounded(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      mutated.resize(rng.NextBounded(mutated.size()));
    } else {  // insert 1-4 random bytes at a random offset
      const uint64_t inserts = 1 + rng.NextBounded(4);
      std::vector<uint8_t> junk;
      for (uint64_t j = 0; j < inserts; ++j) {
        junk.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      const size_t at = rng.NextBounded(mutated.size() + 1);
      mutated.insert(mutated.begin() + static_cast<long>(at), junk.begin(),
                     junk.end());
    }
    StatusCode code = StatusCode::kOk;
    const std::string failure = CheckMutatedSnapshot(mutated, &code);
    ASSERT_EQ(failure, "") << "iteration " << iter;
    (code == StatusCode::kOk ? accepted : rejected) += 1;
  }
  // Byte overwrites can no-op (same value re-written), so a handful of
  // accepts are legitimate; the overwhelming majority must be rejections.
  EXPECT_EQ(rejected + accepted, 10000u);
  EXPECT_GT(rejected, 9900u) << "accepted " << accepted;
}

TEST(CorruptionHarness, CountMismatchBehindValidChecksumsIsRejected) {
  // Regression for the declared-count cross-check: lie consistently about
  // the entry count in header AND trailer, then repair every CRC so the
  // stream sails through checksum verification — the loader must still
  // reject it by comparing against the decoded entry count.
  const PhTree tree = MakeTree(100, 2, 3);
  const auto bytes = SerializePhTree(tree);
  ASSERT_EQ(bytes[26], 100);
  const auto forged = ForgeEntryCount(bytes, 101);
  const auto result = DeserializePhTreeOr(forged);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code(), StatusCode::kCountMismatch)
      << result.error().ToString();
  EXPECT_NE(result.error().ToString().find("101"), std::string::npos);
  EXPECT_EQ(ShardedLoadStatus(forged, 2, "phtree_count_lie_test.bin").code(),
            StatusCode::kCountMismatch);

  // A count of 2^40: both loaders reserve only what the stream's size can
  // hold (reserving 2^40 nodes or entries would throw), then reject it.
  const auto huge = ForgeEntryCount(bytes, uint64_t{1} << 40);
  const auto huge_result = DeserializePhTreeOr(huge);
  ASSERT_FALSE(huge_result.has_value());
  EXPECT_EQ(huge_result.error().code(), StatusCode::kCountMismatch)
      << huge_result.error().ToString();
  const Status huge_sharded =
      ShardedLoadStatus(huge, 2, "phtree_count_lie_test.bin");
  EXPECT_EQ(huge_sharded.code(), StatusCode::kCountMismatch)
      << huge_sharded.ToString();
}

TEST(CorruptionHarness, OutOfOrderKeysBehindValidChecksumsAreRejected) {
  // {1,1} precedes {2,2} in z-order; each delta encodes as [len 1][byte].
  // Rewriting the first entry to {2,2} makes the second decode to
  // {2^3, 2^3} = {1,1}: a CRC-valid stream whose keys go backwards.
  PhTree tree(2);
  ASSERT_TRUE(tree.Insert(PhKey{1, 1}, 10));
  ASSERT_TRUE(tree.Insert(PhKey{2, 2}, 20));
  auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  const size_t first = layout->records[0].payload_begin + 4;  // past count
  ASSERT_EQ(std::vector<uint8_t>(bytes.begin() + first,
                                 bytes.begin() + first + 4),
            (std::vector<uint8_t>{1, 1, 1, 1}));
  bytes[first + 1] = 2;
  bytes[first + 3] = 2;
  ASSERT_TRUE(RepairSnapshotChecksums(&bytes));
  const size_t second = first + 4 + 8;  // two deltas, then the value

  const auto result = DeserializePhTreeOr(bytes);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code(), StatusCode::kRecordCorrupt)
      << result.error().ToString();
  EXPECT_EQ(result.error().offset(), second) << result.error().ToString();
  const Status sharded =
      ShardedLoadStatus(bytes, 2, "phtree_out_of_order_test.bin");
  EXPECT_EQ(sharded.code(), StatusCode::kRecordCorrupt) << sharded.ToString();
  EXPECT_EQ(sharded.offset(), second) << sharded.ToString();
}

TEST(CorruptionHarness, ChecksumsOffStillCatchesStructuralLies) {
  // With verify_checksums=false a flipped value byte is accepted (the CRCs
  // are the only thing guarding payload bytes) — but the tree still
  // validates and the framing/count cross-checks still run.
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  // Last 8 payload bytes of record 0 = the stored value of its last entry.
  const size_t value_byte = layout->records[0].crc_offset - 4;
  auto mutated = FlipBit(bytes, value_byte * 8);

  LoadOptions lax;
  lax.verify_checksums = false;
  lax.validate_structure = true;
  const auto result = DeserializePhTreeOr(mutated, lax);
  ASSERT_TRUE(result.has_value()) << result.error().ToString();
  EXPECT_EQ(result->size(), 128u);
  EXPECT_EQ(ValidatePhTree(*result), "");

  // The same stream under checksum verification is rejected.
  const auto strict = DeserializePhTreeOr(mutated);
  ASSERT_FALSE(strict.has_value());
  EXPECT_EQ(strict.error().code(), StatusCode::kRecordCorrupt);
  // Framing damage is caught even with checksums off.
  const auto truncated = TruncateSnapshot(bytes, bytes.size() / 2);
  const auto lax_trunc = DeserializePhTreeOr(truncated, lax);
  ASSERT_FALSE(lax_trunc.has_value());
  EXPECT_EQ(lax_trunc.error().code(), StatusCode::kTruncated);
}

TEST(CorruptionHarness, ErrorsCarryByteOffsets) {
  const auto bytes = SmallSnapshot();
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  // A flip inside record 3's payload must be reported at that record's
  // length-field offset with the record index in the message.
  const auto mutated = FlipBit(bytes, layout->records[3].payload_begin * 8);
  const auto result = DeserializePhTreeOr(mutated);
  ASSERT_FALSE(result.has_value());
  const SnapshotError& err = result.error();
  EXPECT_EQ(err.code(), StatusCode::kRecordCorrupt);
  ASSERT_TRUE(err.has_offset());
  EXPECT_EQ(err.offset(), layout->records[3].begin);
  EXPECT_NE(err.message().find("record 3"), std::string::npos)
      << err.ToString();
  EXPECT_NE(err.ToString().find("RECORD_CORRUPT at byte"), std::string::npos);
}

TEST(CorruptionHarness, ShardedLoadRejectsWhatThePlainLoaderRejects) {
  const PhTree tree = MakeTree(1500, 3, 7);
  const auto bytes = SerializePhTree(tree);
  const auto layout = DescribeSnapshot(bytes);
  ASSERT_TRUE(layout.has_value());
  ASSERT_EQ(layout->records.size(), 3u);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
  for (const auto& rec : layout->records) {
    cases.emplace_back("cut at " + std::to_string(rec.begin),
                       TruncateSnapshot(bytes, rec.begin));
  }
  cases.emplace_back("cut at the trailer",
                     TruncateSnapshot(bytes, layout->trailer_begin));
  cases.emplace_back("header bit", FlipBit(bytes, 13 * 8));
  const size_t payload_byte = layout->records[1].payload_begin + 9;
  cases.emplace_back("payload bit", FlipBit(bytes, payload_byte * 8));
  cases.emplace_back("trailer bit",
                     FlipBit(bytes, (layout->trailer_begin + 13) * 8));
  cases.emplace_back("record swap", SwapRecords(bytes, *layout, 0, 2));
  cases.emplace_back("count lie", ForgeEntryCount(bytes, 1501));

  // The sharded tree holds other content, which a failed Load must keep.
  PhTreeSharded sharded(3, 8);
  MakeTree(300, 3, 8).ForEach([&](const PhKey& key, uint64_t value) {
    ASSERT_TRUE(sharded.Insert(key, value));
  });
  std::vector<PhEntry> before;
  sharded.ForEach([&](const PhKey& key, uint64_t value) {
    before.push_back(PhEntry{key, value});
  });

  TempFile file("phtree_sharded_rejects_test.bin");
  for (const auto& [name, mutated] : cases) {
    WriteFile(file.path(), mutated);
    const auto plain = LoadPhTreeOr(file.path());
    ASSERT_FALSE(plain.has_value()) << name;
    const Status st = sharded.Load(file.path());
    EXPECT_EQ(st.code(), plain.error().code())
        << name << ": sharded " << st.ToString() << ", plain "
        << plain.error().ToString();
    EXPECT_EQ(st.offset(), plain.error().offset()) << name;
    EXPECT_EQ(sharded.size(), before.size()) << name;
    size_t i = 0;
    sharded.ForEach([&](const PhKey& key, uint64_t value) {
      ASSERT_LT(i, before.size()) << name;
      EXPECT_EQ(key, before[i].key) << name;
      EXPECT_EQ(value, before[i].value) << name;
      ++i;
    });
    EXPECT_EQ(i, before.size()) << name;
  }
}

// ---------------------------------------------------------------------------
// Atomic durable saves and the I/O-vs-format error distinction.

TEST(AtomicSave, CrashBetweenWriteAndRenameLeavesOldSnapshotLoadable) {
  TempFile file("phtree_atomic_save_test.bin");
  const PhTree old_tree = MakeTree(300, 2, 1);
  ASSERT_TRUE(SavePhTreeOr(old_tree, file.path()).ok());

  // Simulate a crash mid-save of a newer tree: the .tmp file exists (here:
  // torn — only half the bytes made it) but the rename never happened.
  const PhTree new_tree = MakeTree(400, 2, 2);
  const auto new_bytes = SerializePhTree(new_tree);
  std::FILE* f = std::fopen((file.path() + ".tmp").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(new_bytes.data(), 1, new_bytes.size() / 2, f);
  std::fclose(f);

  // The published snapshot is untouched by the torn temp file.
  const auto loaded = LoadPhTreeOr(file.path());
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  EXPECT_EQ(loaded->size(), old_tree.size());

  // A completed save replaces it atomically and cleans up the temp file.
  ASSERT_TRUE(SavePhTreeOr(new_tree, file.path()).ok());
  const auto reloaded = LoadPhTreeOr(file.path());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->size(), new_tree.size());
  EXPECT_NE(::access((file.path() + ".tmp").c_str(), F_OK), 0)
      << "temp file left behind after a successful save";
}

TEST(AtomicSave, IoFailuresAreIoErrors) {
  const PhTree tree = MakeTree(10, 2, 5);
  // Unwritable directory (procfs rejects file creation even for root).
  Status st = SavePhTreeOr(tree, "/proc/phtree_corruption_test.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  // Missing parent directory.
  st = SavePhTreeOr(tree, "/tmp/phtree_no_such_dir_xyzzy/snap.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
}

TEST(LoadErrors, IoVersusFormatFailuresAreDistinguished) {
  // Missing file -> I/O error, with the errno text in the message.
  const auto missing = LoadPhTreeOr("/tmp/phtree_does_not_exist_xyzzy.bin");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code(), StatusCode::kIoError);
  EXPECT_NE(missing.error().message().find("No such file"), std::string::npos)
      << missing.error().ToString();

  // A file that exists but was truncated on disk -> format error
  // (kTruncated), NOT an I/O error.
  TempFile file("phtree_truncated_on_disk_test.bin");
  const PhTree tree = MakeTree(300, 2, 9);
  ASSERT_TRUE(SavePhTreeOr(tree, file.path()).ok());
  const auto full = SerializePhTree(tree);
  std::FILE* f = std::fopen(file.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(full.data(), 1, full.size() / 3, f);
  std::fclose(f);
  const auto short_file = LoadPhTreeOr(file.path());
  ASSERT_FALSE(short_file.has_value());
  EXPECT_EQ(short_file.error().code(), StatusCode::kTruncated)
      << short_file.error().ToString();

  // A zero-length file never held a snapshot at all — it is classified as
  // an unusable path (kIoError, like a directory), not a torn format.
  f = std::fopen(file.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  const auto empty = LoadPhTreeOr(file.path());
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code(), StatusCode::kIoError);

  // The empty file and a missing one both load nothing.
  EXPECT_FALSE(LoadPhTreeOr(file.path()).has_value());
  EXPECT_FALSE(
      LoadPhTreeOr("/tmp/phtree_does_not_exist_xyzzy.bin").has_value());
}

TEST(LoadErrors, ParanoidLoadAcceptsHealthySnapshots) {
  TempFile file("phtree_paranoid_load_test.bin");
  const PhTree tree = MakeTree(500, 3, 11);
  ASSERT_TRUE(SavePhTreeOr(tree, file.path()).ok());
  LoadOptions paranoid;
  paranoid.verify_checksums = true;
  paranoid.validate_structure = true;
  const auto loaded = LoadPhTreeOr(file.path(), paranoid);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().ToString();
  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(ValidatePhTree(*loaded), "");
}

}  // namespace
}  // namespace phtree
