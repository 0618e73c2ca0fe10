// Serialisation of a PH-tree to/from a flat byte stream. The paper argues
// the PH-tree suits persistent storage (Sect. 1: nodes are large enough to
// map to disk pages; Sect. 3.4: nodes are already bit-stream serialised).
// This module writes the tree in pre-order as a self-describing stream of
// entry records; loading rebuilds the identical structure (shape is a pure
// function of the data, so a round trip is bit-identical in stats).
//
// Snapshot format v2 (magic "PHT2") hardens that stream for disk use:
//   * versioned, CRC32C-protected header,
//   * entries chunked into length-framed records, each with its own CRC32C,
//   * a trailer repeating the entry/record counts plus a whole-stream CRC,
// so truncation, bit flips and record splices are all detected instead of
// silently deserialising into a broken tree. Loads report failures through
// Status/Expected (common/status.h) with the error class and byte offset;
// saves are atomic and durable (tmp file + fsync + rename + dir fsync).
// Full byte layout: DESIGN.md, "Snapshot format v2". v2 is the only format:
// any other "PHT" version fails with kUnsupportedVersion.
#ifndef PHTREE_PHTREE_SERIALIZE_H_
#define PHTREE_PHTREE_SERIALIZE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "phtree/phtree.h"

namespace phtree {

/// Snapshot failures are plain Status values; the alias marks APIs whose
/// codes follow the snapshot error-class contract (see StatusCode).
using SnapshotError = Status;

inline constexpr uint32_t kSnapshotVersion = 2;  ///< "PHT2"

/// Writer knobs.
struct SaveOptions {
  /// Entries per length-framed record. Smaller records mean finer-grained
  /// corruption localisation and more CRC overhead (8 bytes per record);
  /// the default keeps overhead < 0.1% for typical trees. Must be >= 1.
  uint32_t entries_per_record = 512;
};

/// Loader knobs ("paranoid load" = both verifications on).
struct LoadOptions {
  /// Verify the header, per-record and whole-stream CRC32C checksums.
  /// Turning this off trades integrity for load speed — see
  /// bench/snapshot_persistence. The framing, count and z-order checks run
  /// either way.
  bool verify_checksums = true;

  /// Run ValidatePhTree on the rebuilt tree (on every shard tree, for
  /// PhTreeSharded::Load) and fail with kStructureInvalid if any
  /// structural invariant is violated.
  bool validate_structure = false;
};

/// The fields of a v2 header, as DecodeSnapshotOr hands them to its sink
/// before the first entry.
struct SnapshotHeader {
  uint32_t dim;
  PhTreeConfig config;
  uint64_t entry_count;    ///< declared by the header
  uint32_t record_count;   ///< declared by the header
  /// entry_count capped by the most entries the stream's size can hold,
  /// so reserving it is safe even when the count is forged.
  size_t capacity_hint;
};

/// Serialises `tree` into a format-v2 byte buffer.
std::vector<uint8_t> SerializePhTree(const PhTree& tree,
                                     const SaveOptions& options = {});

/// Serialises the entries of `parts`, in order, as ONE format-v2 stream:
/// the same bytes SerializePhTree writes for a single tree holding all of
/// them. The parts (at least one) share dimensionality and config, and all
/// keys of a part precede the next part's in z-order — the shards of a
/// PhTreeSharded in index order.
std::vector<uint8_t> SerializePhTree(std::span<const PhTree> parts,
                                     const SaveOptions& options = {});

/// The one snapshot decoder, run by every loader: verifies the header,
/// calls `begin` with it (a non-OK status aborts the decode), walks the
/// framing (DescribeSnapshot), then checks each record's CRC and calls
/// `add` for its entries, which must be in strictly ascending z-order;
/// last come the count and trailer checks. Errors carry the class, byte
/// offset and a message naming what broke (e.g. both CRC values).
Status DecodeSnapshotOr(
    const std::vector<uint8_t>& bytes, const LoadOptions& options,
    const std::function<Status(const SnapshotHeader&)>& begin,
    const std::function<void(const PhKey&, uint64_t)>& add);

/// Reconstructs a tree from SerializePhTree output (DecodeSnapshotOr into
/// a PhTree). The configuration of the returned tree is taken from the
/// stream.
Expected<PhTree, SnapshotError> DeserializePhTreeOr(
    const std::vector<uint8_t>& bytes, const LoadOptions& options = {});

/// Atomically and durably writes `tree`'s v2 snapshot to `path`: the bytes
/// go to `path + ".tmp"`, which is fsync'd, renamed over `path`, and the
/// parent directory fsync'd — a crash at any point leaves either the old
/// snapshot or the new one, never a torn file. Errors are kIoError with
/// the failing syscall and errno text in the message.
Status SavePhTreeOr(const PhTree& tree, const std::string& path,
                    const SaveOptions& options = {});

/// The atomic-durable half of SavePhTreeOr on its own: writes an already
/// serialised snapshot byte stream to `path` with the same tmp + fsync +
/// rename + dir-fsync protocol. Lets callers that must serialise under a
/// lock (PhTreeSharded::Save) do the disk I/O outside their critical
/// section.
Status WriteSnapshotFileOr(const std::vector<uint8_t>& bytes,
                           const std::string& path);

/// Reads a whole snapshot file. Missing/unreadable files, directories,
/// zero-length files and short reads fail with kIoError, with the errno
/// text or the condition in the message.
StatusOr<std::vector<uint8_t>> ReadSnapshotFileOr(const std::string& path);

/// Reads and deserialises a snapshot file. I/O failures come back as
/// kIoError (ReadSnapshotFileOr); malformed contents keep their format
/// error classes — callers can tell the two apart.
Expected<PhTree, SnapshotError> LoadPhTreeOr(const std::string& path,
                                             const LoadOptions& options = {});

/// Byte map of a v2 snapshot: where the header, each record and the
/// trailer sit. DecodeSnapshotOr decodes the records it lists; the
/// corruption fault-injection harness (src/benchlib/snapshot_fault.h) aims
/// mutations with it. Only framing is walked — CRCs are not verified and
/// no entry is decoded.
struct SnapshotLayout {
  struct Record {
    size_t begin;          ///< offset of the u32 payload-length field
    size_t payload_begin;  ///< offset of the record payload
    size_t crc_offset;     ///< offset of the u32 record CRC
    size_t end;            ///< one past the record CRC
    uint32_t entry_count;  ///< entries framed in this record
  };

  uint32_t version;       ///< kSnapshotVersion
  size_t header_end;      ///< header (incl. its CRC) is [0, header_end)
  uint64_t entry_count;   ///< total entries declared by the header
  std::vector<Record> records;
  size_t trailer_begin;   ///< trailer is [trailer_begin, trailer_end)
  /// trailer_begin + 16. Bytes past it are trailing garbage, which
  /// DecodeSnapshotOr rejects (kTrailerCorrupt) once the records checked.
  size_t trailer_end;
};

/// Walks a v2 stream's framing: the header fields (CRC not verified), each
/// record's length field, and the room left for the trailer. Fails with
/// the usual snapshot error classes on unframeable input — kTruncated for
/// a record or trailer the stream cannot hold.
StatusOr<SnapshotLayout> DescribeSnapshot(const std::vector<uint8_t>& bytes);

/// DescribeSnapshot on a file. Missing/unreadable files, directories and
/// zero-length files fail with kIoError (same classification as
/// LoadPhTreeOr) before any framing is parsed.
StatusOr<SnapshotLayout> DescribeSnapshotFile(const std::string& path);

}  // namespace phtree

#endif  // PHTREE_PHTREE_SERIALIZE_H_
