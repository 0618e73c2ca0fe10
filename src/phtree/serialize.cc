#include "phtree/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/bits.h"
#include "common/crc32c.h"
#include "common/vfs.h"
#include "phtree/validate.h"

// GCC 12 emits a false-positive stringop-overflow for std::vector<uint8_t>
// growth under -O3 (PR 106199); the code below only appends within bounds.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

namespace phtree {
namespace {

constexpr uint8_t kMagicV2[4] = {'P', 'H', 'T', '2'};

// v2 header: magic(4) + payload_len(4) + payload + header CRC(4). The
// payload is the fixed field block below; its length is stored so a reader
// can tell "unknown header shape" from "corrupt header".
constexpr uint32_t kHeaderPayloadLen = 30;  // dim4 repr1 hys8 hcmax4 sv1 n8 rc4
constexpr size_t kHeaderEnd = 4 + 4 + kHeaderPayloadLen + 4;
// v2 trailer: n(8) + record_count(4) + whole-stream CRC(4).
constexpr size_t kTrailerLen = 16;

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// Length-prefixed big-endian with leading zero bytes stripped. Entries are
/// emitted in z-order, so consecutive keys share long prefixes and their
/// XOR deltas are numerically small — the same prefix-sharing effect the
/// tree itself exploits (Sect. 3.4) applied to the wire format.
void PutDelta(std::vector<uint8_t>* out, uint64_t delta) {
  const uint32_t bytes = delta == 0 ? 0 : (71 - std::countl_zero(delta)) / 8;
  out->push_back(static_cast<uint8_t>(bytes));
  for (uint32_t i = bytes; i > 0; --i) {
    out->push_back(static_cast<uint8_t>(delta >> (8 * (i - 1))));
  }
}

/// Bounds-checked little-endian reader over a byte span. Reads never run
/// past `end`; a failed read trips `ok()` and freezes `pos()` at the spot
/// the stream fell short, which becomes the reported error offset.
class Reader {
 public:
  Reader(const uint8_t* data, size_t begin, size_t end)
      : data_(data), pos_(begin), end_(end) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == end_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return end_ - pos_; }

  uint8_t GetU8() {
    if (!ok_ || pos_ + 1 > end_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }

  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(GetU8()) << (8 * i);
    }
    return v;
  }

  uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(GetU8()) << (8 * i);
    }
    return v;
  }

  /// Inverse of PutDelta; a length byte > 8 is malformed and trips ok().
  uint64_t GetDelta() {
    const uint8_t bytes = GetU8();
    if (bytes > 8) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (uint32_t i = 0; i < bytes; ++i) {
      v = (v << 8) | GetU8();
    }
    return v;
  }

 private:
  const uint8_t* data_;
  size_t pos_;
  size_t end_;
  bool ok_ = true;
};

Status Err(StatusCode code, size_t offset, std::string message) {
  return Status(code, offset, std::move(message));
}

std::string HexU32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08X", v);
  return buf;
}

/// Checks the magic and parses the fixed v2 header, CRC-verified when
/// `verify_checksum` is set.
StatusOr<SnapshotHeader> ParseHeader(const std::vector<uint8_t>& bytes,
                                     bool verify_checksum) {
  if (bytes.size() < 4) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream is shorter than the 4-byte magic");
  }
  if (std::memcmp(bytes.data(), kMagicV2, 4) != 0) {
    if (std::memcmp(bytes.data(), "PHT", 3) == 0) {
      return Err(StatusCode::kUnsupportedVersion, 3,
                 "snapshot version '" +
                     std::string(1, static_cast<char>(bytes[3])) +
                     "' is not readable by this build (knows v2)");
    }
    return Err(StatusCode::kBadMagic, 0, "not a PH-tree snapshot");
  }
  if (bytes.size() < kHeaderEnd) {
    return Err(StatusCode::kTruncated, bytes.size(),
               "stream ends inside the header (need " +
                   std::to_string(kHeaderEnd) + " bytes, have " +
                   std::to_string(bytes.size()) + ")");
  }
  Reader r(bytes.data(), 4, kHeaderEnd);
  const uint32_t payload_len = r.GetU32();
  if (payload_len != kHeaderPayloadLen) {
    return Err(StatusCode::kHeaderCorrupt, 4,
               "header payload length is " + std::to_string(payload_len) +
                   ", expected " + std::to_string(kHeaderPayloadLen));
  }
  if (verify_checksum) {
    const size_t crc_offset = kHeaderEnd - 4;
    const uint32_t stored =
        static_cast<uint32_t>(bytes[crc_offset]) |
        static_cast<uint32_t>(bytes[crc_offset + 1]) << 8 |
        static_cast<uint32_t>(bytes[crc_offset + 2]) << 16 |
        static_cast<uint32_t>(bytes[crc_offset + 3]) << 24;
    const uint32_t computed = Crc32c(bytes.data(), crc_offset);
    if (stored != computed) {
      return Err(StatusCode::kHeaderCorrupt, crc_offset,
                 "header CRC mismatch (stored " + HexU32(stored) +
                     ", computed " + HexU32(computed) + ")");
    }
  }
  SnapshotHeader h;
  const size_t dim_offset = r.pos();
  h.dim = r.GetU32();
  if (h.dim < 1 || h.dim > kMaxDims) {
    return Err(StatusCode::kHeaderCorrupt, dim_offset,
               "dimensionality " + std::to_string(h.dim) +
                   " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  const size_t repr_offset = r.pos();
  const uint8_t repr = r.GetU8();
  if (repr > static_cast<uint8_t>(NodeRepr::kBhcOnly)) {
    return Err(StatusCode::kHeaderCorrupt, repr_offset,
               "unknown node representation " + std::to_string(repr));
  }
  h.config.repr = static_cast<NodeRepr>(repr);
  h.config.hysteresis = std::bit_cast<double>(r.GetU64());
  h.config.hc_max_dim = r.GetU32();
  h.config.store_values = r.GetU8() != 0;
  h.entry_count = r.GetU64();
  h.record_count = r.GetU32();
  // Each entry costs at least one delta byte per dimension, plus 8 value
  // bytes when values are stored.
  const uint64_t min_entry_bytes = h.dim + (h.config.store_values ? 8 : 0);
  h.capacity_hint = static_cast<size_t>(
      std::min<uint64_t>(h.entry_count, bytes.size() / min_entry_bytes));
  return h;
}

Status IoError(const std::string& what) {
  return Status(StatusCode::kIoError, Status::kNoOffset,
                what + ": " + std::strerror(errno));
}

// All file I/O below goes through the process-wide Vfs (common/vfs.h) so the
// fault-injection tests can swap in a FaultyVfs. Open/fsync/close retry on
// EINTR — a real signal must not fail a save — and the write/read loops
// already absorb both EINTR and short transfers.

int OpenRetry(Vfs& vfs, const char* path, int flags, mode_t mode) {
  for (;;) {
    const int fd = vfs.Open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) {
      return fd;
    }
  }
}

int FsyncRetry(Vfs& vfs, int fd) {
  for (;;) {
    const int rc = vfs.Fsync(fd);
    if (rc == 0 || errno != EINTR) {
      return rc;
    }
  }
}

/// close(2) retried on EINTR. POSIX leaves the fd state unspecified after
/// EINTR, but on Linux the fd is guaranteed still open, and the VFS
/// contract matches Linux (FaultyVfs keeps the fd open on simulated EINTR).
int CloseRetry(Vfs& vfs, int fd) {
  for (;;) {
    const int rc = vfs.Close(fd);
    if (rc == 0 || errno != EINTR) {
      return rc;
    }
  }
}

/// fsyncs the directory containing `path` so a preceding rename is durable.
/// Filesystems that cannot fsync a directory (EINVAL/ENOTSUP) are treated
/// as success — there is nothing more userland can do there.
Status FsyncParentDir(const std::string& path) {
  Vfs& vfs = *GetVfs();
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = OpenRetry(vfs, dir.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (dfd < 0) {
    return IoError("open directory " + dir);
  }
  if (FsyncRetry(vfs, dfd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    const Status st = IoError("fsync directory " + dir);
    CloseRetry(vfs, dfd);
    return st;
  }
  CloseRetry(vfs, dfd);
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<uint8_t>> ReadSnapshotFileOr(const std::string& path) {
  Vfs& vfs = *GetVfs();
  const int fd = OpenRetry(vfs, path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    return IoError("open " + path);
  }
  uint64_t size = 0;
  bool is_dir = false;
  if (vfs.Stat(fd, &size, &is_dir) != 0) {
    const Status st = IoError("stat " + path);
    CloseRetry(vfs, fd);
    return st;
  }
  if (is_dir) {
    CloseRetry(vfs, fd);
    return Status(StatusCode::kIoError, Status::kNoOffset,
                  path + " is a directory, not a snapshot file");
  }
  if (size == 0) {
    CloseRetry(vfs, fd);
    return Status(StatusCode::kIoError, Status::kNoOffset,
                  path + " is empty (zero-length file)");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t r = vfs.Read(fd, bytes.data() + off, bytes.size() - off);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status st = IoError("read " + path);
      CloseRetry(vfs, fd);
      return st;
    }
    if (r == 0) {
      CloseRetry(vfs, fd);
      return Status(StatusCode::kIoError, Status::kNoOffset,
                    "short read on " + path + ": got " + std::to_string(off) +
                        " of " + std::to_string(bytes.size()) + " bytes");
    }
    off += static_cast<size_t>(r);
  }
  CloseRetry(vfs, fd);
  return bytes;
}

std::vector<uint8_t> SerializePhTree(const PhTree& tree,
                                     const SaveOptions& options) {
  return SerializePhTree(std::span<const PhTree>(&tree, 1), options);
}

std::vector<uint8_t> SerializePhTree(std::span<const PhTree> parts,
                                     const SaveOptions& options) {
  assert(!parts.empty());
  const uint32_t dim = parts[0].dim();
  const PhTreeConfig& config = parts[0].config();
  const uint32_t epr = std::max<uint32_t>(1, options.entries_per_record);
  uint64_t n = 0;
  for (const PhTree& part : parts) {
    n += part.size();
  }
  const uint32_t record_count = static_cast<uint32_t>((n + epr - 1) / epr);

  std::vector<uint8_t> out;
  out.insert(out.end(), kMagicV2, kMagicV2 + 4);
  PutU32(&out, kHeaderPayloadLen);
  PutU32(&out, dim);
  PutU8(&out, static_cast<uint8_t>(config.repr));
  PutU64(&out, std::bit_cast<uint64_t>(config.hysteresis));
  PutU32(&out, config.hc_max_dim);
  PutU8(&out, config.store_values ? 1 : 0);
  PutU64(&out, n);
  PutU32(&out, record_count);
  PutU32(&out, Crc32c(out.data(), out.size()));  // header CRC

  // Entries in z-order with per-dimension XOR deltas vs the previous key,
  // chunked into `epr`-entry records. The delta chain runs across record
  // boundaries (records are a framing unit, not a decoding restart point).
  const bool store_values = config.store_values;
  std::vector<uint8_t> payload;
  uint32_t in_record = 0;
  auto flush_record = [&]() {
    // Patch the entry count into the 4 placeholder bytes at the front.
    for (int i = 0; i < 4; ++i) {
      payload[i] = static_cast<uint8_t>(in_record >> (8 * i));
    }
    PutU32(&out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    PutU32(&out, Crc32c(payload.data(), payload.size()));
    payload.clear();
    in_record = 0;
  };
  PhKey prev(dim, 0);
  auto put_entry = [&](const PhKey& key, uint64_t value) {
    if (in_record == 0) {
      payload.assign(4, 0);  // entry-count placeholder
    }
    for (uint32_t d = 0; d < dim; ++d) {
      PutDelta(&payload, key[d] ^ prev[d]);
    }
    if (store_values) {
      PutU64(&payload, value);
    }
    prev = key;
    if (++in_record == epr) {
      flush_record();
    }
  };
  for (const PhTree& part : parts) {
    part.ForEach(put_entry);
  }
  if (in_record > 0) {
    flush_record();
  }

  const uint32_t stream_crc = Crc32c(out.data(), out.size());
  PutU64(&out, n);
  PutU32(&out, record_count);
  PutU32(&out, stream_crc);
  return out;
}

Status DecodeSnapshotOr(
    const std::vector<uint8_t>& bytes, const LoadOptions& options,
    const std::function<Status(const SnapshotHeader&)>& begin,
    const std::function<void(const PhKey&, uint64_t)>& add) {
  auto header = ParseHeader(bytes, options.verify_checksums);
  if (!header) {
    return header.error();
  }
  const SnapshotHeader& h = *header;
  if (Status st = begin(h); !st.ok()) {
    return st;
  }
  auto layout = DescribeSnapshot(bytes);
  if (!layout) {
    return layout.error();
  }

  // Keys alternate between two buffers, so each one is compared with its
  // predecessor without a copy.
  PhKey key(h.dim, 0);
  PhKey prev(h.dim, 0);
  uint64_t decoded = 0;
  for (size_t rec = 0; rec < layout->records.size(); ++rec) {
    const SnapshotLayout::Record& record = layout->records[rec];
    if (options.verify_checksums) {
      Reader crc_reader(bytes.data(), record.crc_offset, record.end);
      const uint32_t stored = crc_reader.GetU32();
      const uint32_t computed =
          Crc32c(bytes.data() + record.payload_begin,
                 record.crc_offset - record.payload_begin);
      if (stored != computed) {
        return Err(StatusCode::kRecordCorrupt, record.begin,
                   "record " + std::to_string(rec) + " CRC mismatch (stored " +
                       HexU32(stored) + ", computed " + HexU32(computed) + ")");
      }
    }
    Reader r(bytes.data(), record.payload_begin, record.crc_offset);
    const uint32_t entry_count = r.GetU32();
    for (uint32_t i = 0; i < entry_count; ++i) {
      const size_t entry_offset = r.pos();
      key.swap(prev);
      for (uint32_t d = 0; d < h.dim; ++d) {
        key[d] = prev[d] ^ r.GetDelta();
      }
      const uint64_t value = h.config.store_values ? r.GetU64() : 0;
      if (!r.ok()) {
        return Err(StatusCode::kRecordCorrupt, entry_offset,
                   "record " + std::to_string(rec) + " entry " +
                       std::to_string(i) + " is undecodable (runs past the "
                       "record payload or has a delta length > 8)");
      }
      if (decoded > 0 && !ZOrderLess(prev, key)) {
        return Err(StatusCode::kRecordCorrupt, entry_offset,
                   "record " + std::to_string(rec) + " entry " +
                       std::to_string(i) +
                       " does not follow the previous key in z-order "
                       "(a duplicate or reordered key)");
      }
      add(key, value);
      ++decoded;
    }
    if (!r.AtEnd()) {
      return Err(StatusCode::kRecordCorrupt, r.pos(),
                 "record " + std::to_string(rec) + " has " +
                     std::to_string(r.remaining()) +
                     " stray bytes after its last entry");
    }
  }

  const size_t trailer_begin = layout->trailer_begin;
  if (decoded != h.entry_count) {
    return Err(StatusCode::kCountMismatch, trailer_begin,
               "header declares " + std::to_string(h.entry_count) +
                   " entries but the records hold " + std::to_string(decoded));
  }
  Reader t(bytes.data(), trailer_begin, layout->trailer_end);
  const uint64_t trailer_n = t.GetU64();
  const uint32_t trailer_records = t.GetU32();
  const uint32_t stored_stream_crc = t.GetU32();
  if (trailer_n != h.entry_count || trailer_records != h.record_count) {
    return Err(StatusCode::kTrailerCorrupt, trailer_begin,
               "trailer counts (" + std::to_string(trailer_n) + " entries, " +
                   std::to_string(trailer_records) +
                   " records) disagree with the header (" +
                   std::to_string(h.entry_count) + ", " +
                   std::to_string(h.record_count) + ")");
  }
  if (options.verify_checksums) {
    const uint32_t computed = Crc32c(bytes.data(), trailer_begin);
    if (stored_stream_crc != computed) {
      return Err(StatusCode::kTrailerCorrupt, trailer_begin + 12,
                 "stream CRC mismatch (stored " + HexU32(stored_stream_crc) +
                     ", computed " + HexU32(computed) + ")");
    }
  }
  if (layout->trailer_end != bytes.size()) {
    return Err(StatusCode::kTrailerCorrupt, layout->trailer_end,
               std::to_string(bytes.size() - layout->trailer_end) +
                   " trailing garbage bytes after the trailer");
  }
  return Status::Ok();
}

Expected<PhTree, SnapshotError> DeserializePhTreeOr(
    const std::vector<uint8_t>& bytes, const LoadOptions& options) {
  std::optional<PhTree> tree;
  const Status st = DecodeSnapshotOr(
      bytes, options,
      [&tree](const SnapshotHeader& h) {
        tree.emplace(h.dim, h.config);
        tree->ReserveNodes(h.capacity_hint);
        return Status::Ok();
      },
      [&tree](const PhKey& key, uint64_t value) {
        // Strict z-order already rules out duplicates.
        tree->Insert(key, value);
      });
  if (!st.ok()) {
    return st;
  }
  if (options.validate_structure) {
    const std::string violation = ValidatePhTree(*tree);
    if (!violation.empty()) {
      return Err(StatusCode::kStructureInvalid, Status::kNoOffset,
                 "rebuilt tree fails validation: " + violation);
    }
  }
  return std::move(*tree);
}

Status WriteSnapshotFileOr(const std::vector<uint8_t>& bytes,
                           const std::string& path) {
  Vfs& vfs = *GetVfs();
  const std::string tmp = path + ".tmp";
  const int fd = OpenRetry(vfs, tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
  if (fd < 0) {
    return IoError("open " + tmp);
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = vfs.Write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status st = IoError("write " + tmp);
      CloseRetry(vfs, fd);
      vfs.Unlink(tmp.c_str());
      return st;
    }
    off += static_cast<size_t>(w);
  }
  if (FsyncRetry(vfs, fd) != 0) {
    const Status st = IoError("fsync " + tmp);
    CloseRetry(vfs, fd);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  if (CloseRetry(vfs, fd) != 0) {
    const Status st = IoError("close " + tmp);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  if (vfs.Rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = IoError("rename " + tmp + " -> " + path);
    vfs.Unlink(tmp.c_str());
    return st;
  }
  return FsyncParentDir(path);
}

Status SavePhTreeOr(const PhTree& tree, const std::string& path,
                    const SaveOptions& options) {
  return WriteSnapshotFileOr(SerializePhTree(tree, options), path);
}

Expected<PhTree, SnapshotError> LoadPhTreeOr(const std::string& path,
                                             const LoadOptions& options) {
  auto bytes = ReadSnapshotFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return DeserializePhTreeOr(*bytes, options);
}

StatusOr<SnapshotLayout> DescribeSnapshot(const std::vector<uint8_t>& bytes) {
  auto header = ParseHeader(bytes, /*verify_checksum=*/false);
  if (!header) {
    return header.error();
  }
  SnapshotLayout layout;
  layout.version = kSnapshotVersion;
  layout.header_end = kHeaderEnd;
  layout.entry_count = header->entry_count;
  size_t pos = kHeaderEnd;
  for (uint32_t rec = 0; rec < header->record_count; ++rec) {
    if (bytes.size() - pos < 4) {
      return Err(StatusCode::kTruncated, pos,
                 "stream ends before the length field of record " +
                     std::to_string(rec));
    }
    Reader r(bytes.data(), pos, bytes.size());
    const uint32_t payload_len = r.GetU32();
    const size_t payload_begin = pos + 4;
    if (payload_len < 4 || payload_len > bytes.size() - payload_begin ||
        bytes.size() - payload_begin - payload_len < 4) {
      // A length that cannot fit its payload + CRC before the end of the
      // stream: either a flipped length field or a truncated stream.
      return Err(StatusCode::kTruncated, pos,
                 "record " + std::to_string(rec) + " claims " +
                     std::to_string(payload_len) +
                     " payload bytes but the stream cannot hold them");
    }
    SnapshotLayout::Record record;
    record.begin = pos;
    record.payload_begin = payload_begin;
    record.crc_offset = payload_begin + payload_len;
    record.end = record.crc_offset + 4;
    record.entry_count = r.GetU32();
    layout.records.push_back(record);
    pos = record.end;
  }
  if (bytes.size() - pos < kTrailerLen) {
    return Err(StatusCode::kTruncated, pos,
               "stream ends inside the trailer (need " +
                   std::to_string(kTrailerLen) + " bytes, have " +
                   std::to_string(bytes.size() - pos) + ")");
  }
  layout.trailer_begin = pos;
  layout.trailer_end = pos + kTrailerLen;
  return layout;
}

StatusOr<SnapshotLayout> DescribeSnapshotFile(const std::string& path) {
  auto bytes = ReadSnapshotFileOr(path);
  if (!bytes) {
    return bytes.error();
  }
  return DescribeSnapshot(*bytes);
}

}  // namespace phtree
