// A PH-tree node (paper Sect. 3.1-3.2). Each node sits at one bit level of
// the k-dimensional key space and stores:
//   * an infix: the prefix bits shared by everything below it (PATRICIA
//     prefix sharing),
//   * an entry table keyed by k-bit hypercube addresses, where each entry is
//     either a postfix (the remaining bits of one key, bit-packed) plus an
//     optional 64-bit payload, or a 32-bit arena handle of a sub-node.
// The entry table has three interchangeable representations behind one
// ordinal-based accessor surface:
//   * HC: dense 2^k slot array, O(1) access, O(2^k) space (Sect. 3.2),
//   * LHC: address-sorted compact table, O(k) binary-search access,
//     O(entries) space (Sect. 3.2),
//   * BHC: packed leaf — when every entry is a postfix (no sub-nodes), a
//     presence bitmap plus a contiguous rank-indexed postfix/payload stream;
//     O(1) bitmap probe like HC but only `entries` records instead of 2^k.
// The node switches automatically to whichever needs fewer bits
// (the PickRepr switching rule), per the policy in PhTreeConfig::repr.
#ifndef PHTREE_PHTREE_NODE_H_
#define PHTREE_PHTREE_NODE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_buffer.h"
#include "common/bits.h"
#include "phtree/config.h"

namespace phtree {

/// 32-bit arena handle of a Node, encoding slab index and slot offset.
/// Half the width of a Node*, so in-node child slots cost 32 bits, and
/// nodes never store raw pointers to each other (making them relocatable
/// in principle). Resolved through NodeArena::NodeAt.
using NodeHandle = uint32_t;

/// Sentinel handle meaning "no node".
inline constexpr NodeHandle kInvalidNodeHandle = ~NodeHandle{0};

class Node {
 public:
  /// Entry-table representation (see file comment).
  enum class Repr : uint8_t { kLhc = 0, kHc = 1, kBhc = 2 };

  /// Sentinel ordinal meaning "no entry".
  static constexpr uint64_t kNoOrdinal = ~uint64_t{0};

  /// Creates an empty node. `infix_len` bits per dimension are shared by all
  /// entries below this node; `postfix_len` bits per dimension remain below
  /// this node's address bit. Invariant vs the parent:
  ///   parent.postfix_len == infix_len + 1 + postfix_len.
  /// `pool` backs the node's bit stream (nullptr = global heap); tree-owned
  /// nodes are built by NodeArena::NewNode, which passes its word pool.
  Node(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
       bool store_values = true, WordPool* pool = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  uint32_t dim() const { return dim_; }
  uint32_t infix_len() const { return infix_len_; }
  uint32_t postfix_len() const { return postfix_len_; }
  Repr repr() const { return repr_; }
  bool is_hc() const { return repr_ == Repr::kHc; }
  bool is_bhc() const { return repr_ == Repr::kBhc; }
  /// True iff ordinals are hypercube addresses themselves (HC and BHC).
  bool addr_indexed() const { return repr_ != Repr::kLhc; }
  uint32_t num_entries() const { return num_entries_; }
  uint32_t num_subs() const { return num_subs_; }
  uint32_t num_postfixes() const { return num_entries_ - num_subs_; }

  // ---- Infix (prefix sharing) ----------------------------------------

  /// Stores bits [postfix_len+1, postfix_len+infix_len] of each dimension of
  /// `key` as this node's infix.
  void SetInfixFromKey(std::span<const uint64_t> key);

  /// Overwrites bits [postfix_len+1, postfix_len+infix_len] of each
  /// dimension of `key` with this node's infix.
  void ReadInfixInto(std::span<uint64_t> key) const;

  /// Compares the infix with the corresponding bits of `key`. Returns the
  /// key-space bit index (LSB = 0) of the highest mismatching bit, or -1 if
  /// the infix matches.
  int MatchInfix(std::span<const uint64_t> key) const;

  // ---- Entry lookup ----------------------------------------------------

  /// Finds the entry with hypercube address `addr`. Returns an ordinal
  /// handle or kNoOrdinal. Ordinals are invalidated by any mutation.
  uint64_t FindOrdinal(uint64_t addr) const;

  bool OrdinalIsSub(uint64_t ord) const;
  uint64_t OrdinalAddr(uint64_t ord) const;
  /// Unpacks the addresses of the `count` consecutive LHC entries
  /// [ord, ord+count) into `out` (ascending, since the table is sorted).
  /// LHC only — the batch feed of the vectorised window filter, which
  /// wants addresses in a flat uint64 array rather than packed bits.
  void ReadLhcAddrs(uint64_t ord, uint64_t count, uint64_t* out) const;
  /// Payload of the postfix entry `ord` (0 in key-only mode).
  uint64_t OrdinalPayload(uint64_t ord) const;
  /// Arena handle of the sub-node entry `ord` (which must be a sub entry).
  NodeHandle OrdinalSub(uint64_t ord) const;

  /// Overwrites bits [0, postfix_len) of each dimension of `key` with the
  /// postfix record of entry `ord` (which must be a postfix entry).
  void ReadPostfixInto(uint64_t ord, std::span<uint64_t> key) const;

  /// ReadPostfixInto plus the entry's payload (0 in key-only mode), with a
  /// single rank computation; the hot yield path of every scan.
  uint64_t ReadPostfixAndPayload(uint64_t ord, std::span<uint64_t> key) const;

  /// Compares the postfix record of `ord` with bits [0, postfix_len) of
  /// `key`. Returns the key-space bit index of the highest differing bit, or
  /// -1 if equal.
  int PostfixDivergence(uint64_t ord, std::span<const uint64_t> key) const;

  // ---- Ordinal iteration (ascending hypercube address) ------------------

  /// First ordinal whose address is >= addr, or kNoOrdinal.
  uint64_t OrdinalGE(uint64_t addr) const;

  /// Next ordinal after `ord`, or kNoOrdinal.
  uint64_t NextOrdinal(uint64_t ord) const;

  /// First ordinal, or kNoOrdinal if the node is empty.
  uint64_t FirstOrdinal() const { return OrdinalGE(0); }

  // ---- Mutation ----------------------------------------------------------
  //
  // Every structural mutator is commit-or-rollback: it either applies the
  // mutation completely (and atomically lands in the representation the
  // switching rule prescribes for the *final* state) or returns false
  // leaving the node bit-identical to its pre-call state. Fallibility comes
  // only from word-block allocation (the kWordAlloc fault site); mutations
  // that provably fit the current block run the historical in-place
  // bodies, so the common case costs exactly what it always did.

  /// Inserts a postfix entry (no entry with `addr` may exist).
  [[nodiscard]] bool TryInsertPostfix(uint64_t addr,
                                      std::span<const uint64_t> key,
                                      uint64_t value, const PhTreeConfig& cfg);

  /// Inserts a sub-node entry (no entry with `addr` may exist).
  [[nodiscard]] bool TryInsertSub(uint64_t addr, NodeHandle child,
                                  const PhTreeConfig& cfg);

  /// Removes the entry with address `addr` (which must exist).
  [[nodiscard]] bool TryRemoveEntry(uint64_t addr, const PhTreeConfig& cfg);

  /// Replaces the postfix entry at `addr` with the sub-node `child`.
  [[nodiscard]] bool TryReplaceEntryWithSub(uint64_t addr, NodeHandle child,
                                            const PhTreeConfig& cfg);

  /// Replaces the sub-node entry at `addr` with a postfix entry.
  [[nodiscard]] bool TryReplaceSubWithPostfix(uint64_t addr,
                                              std::span<const uint64_t> key,
                                              uint64_t value,
                                              const PhTreeConfig& cfg);

  /// Shortens the infix to its lowest `new_infix_len` bits per dimension
  /// (used when a node is split: the upper infix bits move to the new
  /// parent). Adjusts infix_len(); postfix_len() is unchanged.
  [[nodiscard]] bool TryTrimInfixToLow(uint32_t new_infix_len,
                                       const PhTreeConfig& cfg);

  /// Extends the infix upwards by absorbing the infix of `parent` plus this
  /// node's address bit `addr_in_parent` (used when `parent` is spliced out
  /// after a deletion left it with a single sub-node). Adjusts infix_len().
  [[nodiscard]] bool TryAbsorbParentInfix(const Node& parent,
                                          uint64_t addr_in_parent,
                                          const PhTreeConfig& cfg);

  /// Updates the child handle of the sub-node entry at ordinal `ord`.
  void SetSubAt(uint64_t ord, NodeHandle child);

  /// Updates the payload of the postfix entry at ordinal `ord`.
  void SetPayloadAt(uint64_t ord, uint64_t value);

  /// Overwrites the postfix record of the postfix entry at ordinal `ord`
  /// with bits [0, postfix_len) of `key`. The entry's address is unchanged,
  /// so this is purely in-place and infallible (the Update fast path for a
  /// move that stays in the same hypercube slot).
  void SetPostfixAt(uint64_t ord, std::span<const uint64_t> key);

  // ---- MVCC publication (copy-on-write mode) -----------------------------
  //
  // Copy-on-write mutation never edits a published node's entry table; it
  // builds a replacement node off to the side and swings one child-handle
  // slot in the parent (or the tree root) with a single release store.
  // These helpers are that store plus the alignment predicate deciding
  // whether the slot is atomically writable at all; the matching acquire
  // loads live in OrdinalSub.

  /// True iff the child-handle slot of sub entry `ord` sits at an alignment
  /// where one atomic store can republish it (LHC sub slots are always
  /// 32-bit aligned; HC value-mode slots are 64-bit aligned). Key-only HC
  /// keeps sub handles in an unaligned tail — COW callers must clone this
  /// node instead and publish one level further up.
  bool CanPublishSubAt(uint64_t ord) const;

  /// Atomically republishes the child handle of sub entry `ord` with
  /// release ordering. Requires CanPublishSubAt(ord).
  void PublishSubAt(uint64_t ord, NodeHandle child);

  /// Atomically republishes the payload of postfix entry `ord` with release
  /// ordering (value slots are always 64-bit aligned at the stream head).
  /// Keeps "payload overwrite never allocates" true in COW mode.
  void PublishPayloadAt(uint64_t ord, uint64_t value);

  /// Replaces this node's contents with a bit-identical copy of `src`
  /// (entries, infix, representation; `src` must have the same dim and
  /// value mode). The COW clone step. Fallible via word-block allocation
  /// only (kWordAlloc); returns false with the node unchanged.
  [[nodiscard]] bool TryAssignFrom(const Node& src);

  /// Moves the postfix entry at `old_addr` to the free address `new_addr`,
  /// giving it postfix bits from `key` and payload `value`. Occupancy is
  /// unchanged, so the final stream is exactly the pre-call size. When the
  /// transient one-entry-smaller stream of a remove-then-reinsert keeps the
  /// current pool block, the move happens in place and cannot fail;
  /// otherwise the stream is rebuilt with the entry moved (TryRebuild),
  /// which returns false — node untouched — only if the new block cannot
  /// be allocated.
  [[nodiscard]] bool TryRelocatePostfix(uint64_t old_addr, uint64_t new_addr,
                                        std::span<const uint64_t> key,
                                        uint64_t value);

  // ---- Accounting ---------------------------------------------------------

  /// Bytes owned by this node: the node object plus its bit-stream block.
  /// Exact for tree nodes, whose block is the granted word-pool block.
  uint64_t MemoryBytes() const;

  /// Exact bit sizes each representation would need for the current
  /// occupancy (used by the switching rule and exposed for tests). Bit
  /// precision matters: at k=2 the HC advantage over LHC is a single bit
  /// per slot, and BHC beats HC by exactly the is_sub bitmap plus the
  /// absent-slot records. BhcBits() is meaningful only for sub-free nodes.
  uint64_t HcBits() const { return HcBitsFor(num_postfixes()); }
  uint64_t LhcBits() const {
    return LhcBitsFor(num_entries_, num_postfixes());
  }
  uint64_t BhcBits() const { return BhcBitsFor(num_postfixes()); }

  /// Bit size of the representation currently in use.
  uint64_t CurrentReprBits() const;

 private:
  // ---- Single-bit-stream node layout (paper Sect. 3.4, ref [9]) ----------
  //
  // The whole node is serialised into one bit buffer `bits_`. vb is the
  // value width: 64 with stored values, 0 in key-only mode. Sub-node
  // entries always cost exactly 32 bits (their arena handle).
  //
  // LHC (n = num_entries, np = num_postfixes, ns = num_subs):
  //   [values: np x vb, by postfix rank] [subs: ns x 32, by sub rank]
  //   [infix: dim*il] [is_sub flags: n]
  //   [addresses: n x dim, sorted ascending] [postfix records: np x stride]
  // HC (S = 2^dim slots), value mode:
  //   [slots: S x 64 — value or zero-extended handle] [infix: dim*il]
  //   [present bitmap: S] [is_sub bitmap: S]
  //   [postfix records: S x stride, slot-addressed]
  // HC, key-only mode:
  //   [infix: dim*il] [present bitmap: S] [is_sub bitmap: S]
  //   [postfix records: S x stride, slot-addressed] [subs: ns x 32, by
  //   sub rank among set is_sub bits]
  // BHC (sub-free nodes only; ordinals are addresses, like HC):
  //   [values: np x vb, by presence rank] [infix: dim*il]
  //   [present bitmap: S] [postfix records: np x stride, by presence rank]
  //
  // Value slots are 64-bit aligned at offset 0 (single-word reads); all
  // other fields use exactly the bits they need. LHC and BHC mutations
  // shift the stream (the paper's shift-left/right costs); HC mutations
  // write in place except the key-only sub tail.

  uint64_t stride() const {
    return static_cast<uint64_t>(dim_) * postfix_len_;
  }
  uint64_t hc_slots() const { return uint64_t{1} << dim_; }
  uint64_t infix_bits() const {
    return static_cast<uint64_t>(dim_) * infix_len_;
  }
  /// Bits of one value slot.
  uint64_t vb() const { return store_values_ ? 64 : 0; }

  /// Start of the infix region (representation dependent).
  uint64_t infix_base() const {
    switch (repr_) {
      case Repr::kHc:
        return store_values_ ? hc_slots() * 64 : 0;
      case Repr::kBhc:
        return num_postfixes() * vb();
      case Repr::kLhc:
      default:
        return num_postfixes() * vb() + uint64_t{num_subs_} * 32;
    }
  }

  // LHC region bases.
  uint64_t lhc_subs_base() const { return num_postfixes() * vb(); }
  uint64_t lhc_flags_base() const { return infix_base() + infix_bits(); }
  uint64_t lhc_addrs_base() const { return lhc_flags_base() + num_entries_; }
  uint64_t lhc_records_base() const {
    return lhc_addrs_base() + static_cast<uint64_t>(num_entries_) * dim_;
  }
  // HC region bases.
  uint64_t hc_present_base() const { return infix_base() + infix_bits(); }
  uint64_t hc_sub_base() const { return hc_present_base() + hc_slots(); }
  uint64_t hc_records_base() const { return hc_sub_base() + hc_slots(); }
  uint64_t hc_subs_tail_base() const {
    return hc_records_base() + hc_slots() * stride();
  }
  // BHC region bases.
  uint64_t bhc_present_base() const { return infix_base() + infix_bits(); }
  uint64_t bhc_records_base() const {
    return bhc_present_base() + hc_slots();
  }

  uint64_t HcBitsFor(uint64_t n_postfixes) const;
  uint64_t LhcBitsFor(uint64_t n_entries, uint64_t n_postfixes) const;
  uint64_t BhcBitsFor(uint64_t n_postfixes) const;

  // Size functions over an explicit occupancy (n_entries, n_postfixes,
  // infix bits) instead of the node's current members: the Try* mutators
  // size and pick the representation of the *post-mutation* state before
  // touching anything.
  uint64_t HcBitsEx(uint64_t n_entries, uint64_t n_postfixes,
                    uint64_t ib) const;
  uint64_t LhcBitsEx(uint64_t n_entries, uint64_t n_postfixes,
                     uint64_t ib) const;
  uint64_t BhcBitsEx(uint64_t n_postfixes, uint64_t ib) const;
  uint64_t ReprBitsEx(Repr r, uint64_t n_entries, uint64_t n_postfixes,
                      uint64_t ib) const;

  /// The representation the switching policy prescribes for a node in this
  /// node's position holding (`n_entries`, `n_subs`) entries over `ib`
  /// infix bits: smallest wins with tie preference LHC, then BHC, then HC,
  /// damped by the hysteresis band relative to the current representation
  /// (an illegal current representation — BHC gaining a sub — is measured
  /// as LHC, the representation the legacy path converted through).
  Repr PickRepr(uint64_t n_entries, uint64_t n_subs, uint64_t ib,
                const PhTreeConfig& cfg) const;

  /// One atomic entry-table change applied during TryRebuild.
  struct EntryDelta {
    enum class Kind : uint8_t {
      kNone,           ///< no entry change (infix replacement only)
      kInsertPostfix,  ///< add postfix entry `addr` (key/payload)
      kInsertSub,      ///< add sub entry `addr` (payload = handle)
      kRemove,         ///< drop entry `addr`
      kToSub,          ///< postfix at `addr` becomes sub (payload = handle)
      kToPostfix,      ///< sub at `addr` becomes postfix (key/payload)
      kRelocatePostfix,  ///< postfix at `from_addr` moves to free `addr`
                         ///< with new key/payload
    };
    Kind kind = Kind::kNone;
    uint64_t addr = 0;
    uint64_t from_addr = 0;  ///< kRelocatePostfix source
    const uint64_t* key = nullptr;  ///< postfix source (kInsertPostfix/kToPostfix)
    uint64_t payload = 0;           ///< value or child handle
    bool new_infix = false;         ///< also replace the infix region
    uint32_t new_infix_len = 0;
    const uint64_t* infix_segments = nullptr;  ///< dim right-aligned segments
  };

  /// Builds a replacement bit stream in `target` representation holding the
  /// current entries with `delta` spliced in, then commits it in one move.
  /// Returns false — node untouched — if the new block cannot be allocated.
  [[nodiscard]] bool TryRebuild(Repr target, const EntryDelta& delta);

  /// Number of postfix entries among LHC entries [0, ord).
  uint64_t LhcPostfixRank(uint64_t ord) const {
    const uint64_t base = lhc_flags_base();
    return ord - bits_.CountOnesInRange(base, base + ord);
  }
  /// Number of present entries among BHC addresses [0, addr).
  uint64_t BhcRank(uint64_t addr) const {
    const uint64_t base = bhc_present_base();
    return bits_.CountOnesInRange(base, base + addr);
  }
  /// Number of sub entries among key-only-HC addresses [0, addr).
  uint64_t HcSubRank(uint64_t addr) const {
    const uint64_t base = hc_sub_base();
    return bits_.CountOnesInRange(base, base + addr);
  }

  /// Bit position of the postfix record of entry `ord` in the current
  /// representation.
  uint64_t RecordPos(uint64_t ord) const;

  // Historical in-place mutation bodies, used when the Try* fast-path guard
  // proves them infallible (post-state representation unchanged and the
  // final stream still fits the current backing block).
  void InsertPostfixInPlace(uint64_t addr, std::span<const uint64_t> key,
                            uint64_t value);
  void InsertSubInPlace(uint64_t addr, NodeHandle child);
  void RemoveEntryInPlace(uint64_t addr);

  void WritePostfixRecord(uint64_t record_pos, std::span<const uint64_t> key);
  void ZeroBits(uint64_t pos, uint64_t n);

  /// Single-pass LHC entry insertion at entry position `p`: grows the
  /// stream once and moves each region segment exactly once (instead of
  /// shifting the tail once per region). `key` is null for sub-node
  /// entries; `payload` is the value (postfix) or the handle (sub).
  void LhcInsertEntry(uint64_t p, uint64_t addr, bool is_sub,
                      uint64_t payload, const uint64_t* key);

  /// Single-pass LHC entry removal at entry position `p`.
  void LhcRemoveEntry(uint64_t p);

  /// Single-pass BHC postfix insertion/removal at address `addr`.
  void BhcInsertEntry(uint64_t addr, uint64_t value, const uint64_t* key);
  void BhcRemoveEntry(uint64_t addr);

  /// Replaces the infix region with `new_infix_len` bits per dimension taken
  /// from `segments` (one right-aligned segment per dimension).
  void ReplaceInfix(uint32_t new_infix_len,
                    std::span<const uint64_t> segments);

  /// Shared body of the fallible infix mutators: replaces the infix with
  /// `segments` and applies the representation policy for the resulting
  /// sizes, committing both atomically (in place when provably infallible,
  /// via TryRebuild otherwise).
  [[nodiscard]] bool TryReplaceInfixPolicy(uint32_t new_infix_len,
                                           const uint64_t* segments,
                                           const PhTreeConfig& cfg);

  uint16_t dim_;
  uint8_t infix_len_;
  uint8_t postfix_len_;
  bool store_values_ = true;
  Repr repr_ = Repr::kLhc;
  uint32_t num_entries_ = 0;
  uint32_t num_subs_ = 0;
  BitBuffer bits_;
};

// ---- Read-path accessors, inline -------------------------------------------
//
// Every query descent calls these several times per visited node (and window
// scans once or twice per yielded entry), so they live in the header: the
// representation switch folds into the caller and the bit extraction
// compiles to straight-line shifts/popcounts instead of cross-TU calls.

inline void Node::ReadInfixInto(std::span<uint64_t> key) const {
  const uint32_t il = infix_len_;
  if (il == 0) {
    return;
  }
  const uint64_t base = infix_base();
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg = bits_.ReadBits(base + static_cast<uint64_t>(d) * il,
                                        il);
    key[d] = (key[d] & ~(LowMask(il) << (postfix_len_ + 1))) |
             (seg << (postfix_len_ + 1));
  }
}

inline int Node::MatchInfix(std::span<const uint64_t> key) const {
  const uint32_t il = infix_len_;
  if (il == 0) {
    return -1;
  }
  const uint64_t base = infix_base();
  uint64_t agg = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t stored =
        bits_.ReadBits(base + static_cast<uint64_t>(d) * il, il);
    const uint64_t keyseg = (key[d] >> (postfix_len_ + 1)) & LowMask(il);
    agg |= stored ^ keyseg;
  }
  if (agg == 0) {
    return -1;
  }
  // Highest differing segment bit j corresponds to key bit postfix_len+1+j.
  const int j = static_cast<int>(std::bit_width(agg)) - 1;
  return static_cast<int>(postfix_len_) + 1 + j;
}

inline uint64_t Node::FindOrdinal(uint64_t addr) const {
  if (addr_indexed()) {
    // HC and BHC both keep the present bitmap right after the infix.
    const uint64_t base = infix_base() + infix_bits();
    return bits_.GetBit(base + addr) ? addr : kNoOrdinal;
  }
  // Binary search over the packed, sorted address table (paper Sect. 3.2:
  // keys are extracted from the bit stream at each search step).
  const uint64_t base = lhc_addrs_base();
  uint64_t lo = 0;
  uint64_t hi = num_entries_;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    const uint64_t a = bits_.ReadBits(base + mid * dim_, dim_);
    if (a < addr) {
      lo = mid + 1;
    } else if (a > addr) {
      hi = mid;
    } else {
      return mid;
    }
  }
  return kNoOrdinal;
}

inline bool Node::OrdinalIsSub(uint64_t ord) const {
  switch (repr_) {
    case Repr::kBhc:
      return false;  // BHC nodes are sub-free by construction
    case Repr::kHc:
      return bits_.GetBit(hc_sub_base() + ord) != 0;
    case Repr::kLhc:
    default:
      return bits_.GetBit(lhc_flags_base() + ord) != 0;
  }
}

inline uint64_t Node::OrdinalAddr(uint64_t ord) const {
  if (addr_indexed()) {
    return ord;
  }
  return bits_.ReadBits(lhc_addrs_base() + ord * dim_, dim_);
}

inline uint64_t Node::OrdinalPayload(uint64_t ord) const {
  assert(!OrdinalIsSub(ord));
  if (!store_values_) {
    return 0;  // key-only mode: postfix entries carry no payload
  }
  uint64_t slot;
  switch (repr_) {
    case Repr::kHc:
      slot = ord;
      break;
    case Repr::kBhc:
      slot = BhcRank(ord);
      break;
    case Repr::kLhc:
    default:
      slot = LhcPostfixRank(ord);
      break;
  }
  return bits_.ReadBits(slot * 64, 64);
}

inline NodeHandle Node::OrdinalSub(uint64_t ord) const {
  assert(OrdinalIsSub(ord));  // implies repr != kBhc
  // Acquire loads pair with PublishSubAt: a reader that observes a
  // republished handle also observes the replacement node's bit stream.
  if (repr_ == Repr::kHc) {
    if (store_values_) {
      return static_cast<NodeHandle>(bits_.AcquireLoad64(ord * 64));
    }
    // Key-only HC sub tails are never republished in place (see
    // CanPublishSubAt); the handle is immutable once this node is
    // published, so the plain read is race-free.
    return static_cast<NodeHandle>(
        bits_.ReadBits(hc_subs_tail_base() + HcSubRank(ord) * 32, 32));
  }
  const uint64_t srank = ord - LhcPostfixRank(ord);
  return static_cast<NodeHandle>(
      bits_.AcquireLoad32(lhc_subs_base() + srank * 32));
}

inline bool Node::CanPublishSubAt(uint64_t ord) const {
  assert(OrdinalIsSub(ord));
  static_cast<void>(ord);
  // LHC sub slots live at np*vb + srank*32 with vb in {0, 64} — always
  // 32-bit aligned. HC value-mode slots are whole 64-bit words. Key-only
  // HC packs handles in a tail at an arbitrary bit offset.
  if (repr_ == Repr::kHc) {
    return store_values_;
  }
  return true;
}

inline void Node::PublishSubAt(uint64_t ord, NodeHandle child) {
  assert(CanPublishSubAt(ord));
  if (repr_ == Repr::kHc) {
    bits_.ReleaseStore64(ord * 64, child);
    return;
  }
  const uint64_t srank = ord - LhcPostfixRank(ord);
  bits_.ReleaseStore32(lhc_subs_base() + srank * 32,
                       static_cast<uint32_t>(child));
}

inline void Node::PublishPayloadAt(uint64_t ord, uint64_t value) {
  assert(!OrdinalIsSub(ord));
  if (!store_values_) {
    return;
  }
  uint64_t slot;
  switch (repr_) {
    case Repr::kHc:
      slot = ord;
      break;
    case Repr::kBhc:
      slot = BhcRank(ord);
      break;
    case Repr::kLhc:
    default:
      slot = LhcPostfixRank(ord);
      break;
  }
  bits_.ReleaseStore64(slot * 64, value);
}

inline uint64_t Node::RecordPos(uint64_t ord) const {
  switch (repr_) {
    case Repr::kHc:
      return hc_records_base() + ord * stride();
    case Repr::kBhc:
      return bhc_records_base() + BhcRank(ord) * stride();
    case Repr::kLhc:
    default:
      return lhc_records_base() + LhcPostfixRank(ord) * stride();
  }
}

inline void Node::ReadPostfixInto(uint64_t ord, std::span<uint64_t> key) const {
  const uint32_t pl = postfix_len_;
  if (pl == 0) {
    return;
  }
  const uint64_t record_pos = RecordPos(ord);
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg =
        bits_.ReadBits(record_pos + static_cast<uint64_t>(d) * pl, pl);
    key[d] = (key[d] & ~LowMask(pl)) | seg;
  }
}

inline uint64_t Node::ReadPostfixAndPayload(uint64_t ord,
                                            std::span<uint64_t> key) const {
  assert(!OrdinalIsSub(ord));
  // One rank/postfix-rank evaluation shared by the record position and the
  // value slot (ReadPostfixInto + OrdinalPayload would compute it twice).
  uint64_t slot;
  switch (repr_) {
    case Repr::kHc:
      slot = ord;
      break;
    case Repr::kBhc:
      slot = BhcRank(ord);
      break;
    case Repr::kLhc:
    default:
      slot = LhcPostfixRank(ord);
      break;
  }
  const uint32_t pl = postfix_len_;
  if (pl != 0) {
    uint64_t record_pos;
    switch (repr_) {
      case Repr::kHc:
        record_pos = hc_records_base() + ord * stride();
        break;
      case Repr::kBhc:
        record_pos = bhc_records_base() + slot * stride();
        break;
      case Repr::kLhc:
      default:
        record_pos = lhc_records_base() + slot * stride();
        break;
    }
    for (uint32_t d = 0; d < dim_; ++d) {
      const uint64_t seg =
          bits_.ReadBits(record_pos + static_cast<uint64_t>(d) * pl, pl);
      key[d] = (key[d] & ~LowMask(pl)) | seg;
    }
  }
  if (!store_values_) {
    return 0;
  }
  return bits_.ReadBits(slot * 64, 64);
}

inline int Node::PostfixDivergence(uint64_t ord,
                                   std::span<const uint64_t> key) const {
  const uint32_t pl = postfix_len_;
  if (pl == 0) {
    return -1;
  }
  const uint64_t record_pos = RecordPos(ord);
  uint64_t agg = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg =
        bits_.ReadBits(record_pos + static_cast<uint64_t>(d) * pl, pl);
    agg |= seg ^ (key[d] & LowMask(pl));
  }
  if (agg == 0) {
    return -1;
  }
  return static_cast<int>(std::bit_width(agg)) - 1;
}

inline uint64_t Node::OrdinalGE(uint64_t addr) const {
  if (addr_indexed()) {
    const uint64_t base = infix_base() + infix_bits();
    const uint64_t bit = bits_.FindNextOne(base + addr);
    if (bit == BitBuffer::kNpos || bit >= base + hc_slots()) {
      return kNoOrdinal;
    }
    return bit - base;
  }
  const uint64_t base = lhc_addrs_base();
  uint64_t lo = 0;
  uint64_t hi = num_entries_;
  while (lo < hi) {
    const uint64_t mid = (lo + hi) / 2;
    if (bits_.ReadBits(base + mid * dim_, dim_) < addr) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < num_entries_ ? lo : kNoOrdinal;
}

inline void Node::ReadLhcAddrs(uint64_t ord, uint64_t count,
                               uint64_t* out) const {
  assert(repr_ == Repr::kLhc && ord + count <= num_entries_);
  const uint64_t base = lhc_addrs_base() + ord * dim_;
  for (uint64_t i = 0; i < count; ++i) {
    out[i] = bits_.ReadBits(base + i * dim_, dim_);
  }
}

inline uint64_t Node::NextOrdinal(uint64_t ord) const {
  if (addr_indexed()) {
    const uint64_t base = infix_base() + infix_bits();
    const uint64_t bit = bits_.FindNextOne(base + ord + 1);
    if (bit == BitBuffer::kNpos || bit >= base + hc_slots()) {
      return kNoOrdinal;
    }
    return bit - base;
  }
  return ord + 1 < num_entries_ ? ord + 1 : kNoOrdinal;
}

}  // namespace phtree

#endif  // PHTREE_PHTREE_NODE_H_
