#include "phtree/node.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace phtree {

Node::Node(uint32_t dim, uint32_t infix_len, uint32_t postfix_len,
           bool store_values, WordPool* pool)
    : dim_(static_cast<uint16_t>(dim)),
      infix_len_(static_cast<uint8_t>(infix_len)),
      postfix_len_(static_cast<uint8_t>(postfix_len)),
      store_values_(store_values),
      bits_(pool) {
  assert(dim >= 1 && dim <= kMaxDims);
  assert(infix_len + 1 + postfix_len <= kBitWidth);
  bits_.Resize(infix_bits());  // empty LHC node: just the (zero) infix
}

// ---- Infix ------------------------------------------------------------

void Node::SetInfixFromKey(std::span<const uint64_t> key) {
  const uint32_t il = infix_len_;
  if (il == 0) {
    return;
  }
  const uint64_t base = infix_base();
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg = (key[d] >> (postfix_len_ + 1)) & LowMask(il);
    bits_.WriteBits(base + static_cast<uint64_t>(d) * il, il, seg);
  }
}

void Node::ReplaceInfix(uint32_t new_infix_len,
                        std::span<const uint64_t> segments) {
  // The infix precedes every region it can shift in all three
  // representations, so a resize-in-place is safe repr-independently.
  const uint64_t base = infix_base();
  const uint64_t old_bits = infix_bits();
  const uint64_t new_bits = static_cast<uint64_t>(dim_) * new_infix_len;
  if (new_bits > old_bits) {
    bits_.InsertBits(base, new_bits - old_bits);
  } else if (new_bits < old_bits) {
    bits_.RemoveBits(base, old_bits - new_bits);
  }
  infix_len_ = static_cast<uint8_t>(new_infix_len);
  for (uint32_t d = 0; d < dim_; ++d) {
    bits_.WriteBits(base + static_cast<uint64_t>(d) * new_infix_len,
                    new_infix_len, segments[d]);
  }
}

bool Node::TryTrimInfixToLow(uint32_t new_infix_len, const PhTreeConfig& cfg) {
  assert(new_infix_len <= infix_len_);
  const uint32_t il = infix_len_;
  const uint64_t base = infix_base();
  uint64_t segments[kMaxDims];
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t seg = bits_.ReadBits(base + static_cast<uint64_t>(d) * il,
                                        il);
    segments[d] = seg & LowMask(new_infix_len);
  }
  // The infix length changes the representation sizes too, so the new infix
  // and any prescribed representation switch commit together.
  return TryReplaceInfixPolicy(new_infix_len, segments, cfg);
}

bool Node::TryAbsorbParentInfix(const Node& parent, uint64_t addr_in_parent,
                                const PhTreeConfig& cfg) {
  const uint32_t il = infix_len_;
  const uint32_t pil = parent.infix_len_;
  const uint32_t new_il = il + 1 + pil;
  assert(new_il + 1 + postfix_len_ <= kBitWidth);
  const uint64_t base = infix_base();
  const uint64_t pbase = parent.infix_base();
  uint64_t segments[kMaxDims];
  for (uint32_t d = 0; d < dim_; ++d) {
    const uint64_t my_seg =
        il > 0 ? bits_.ReadBits(base + static_cast<uint64_t>(d) * il, il) : 0;
    const uint64_t parent_seg =
        pil > 0
            ? parent.bits_.ReadBits(pbase + static_cast<uint64_t>(d) * pil,
                                    pil)
            : 0;
    const uint64_t addr_bit = (addr_in_parent >> (dim_ - 1 - d)) & 1u;
    segments[d] = (parent_seg << (1 + il)) | (addr_bit << il) | my_seg;
  }
  return TryReplaceInfixPolicy(new_il, segments, cfg);
}

bool Node::TryReplaceInfixPolicy(uint32_t new_infix_len,
                                 const uint64_t* segments,
                                 const PhTreeConfig& cfg) {
  const uint64_t ib2 = static_cast<uint64_t>(dim_) * new_infix_len;
  const uint64_t n = num_entries_;
  const uint64_t np = num_postfixes();
  const Repr target = PickRepr(n, num_subs_, ib2, cfg);
  if (target == repr_ &&
      !bits_.ResizeWouldRelocate(ReprBitsEx(target, n, np, ib2))) {
    ReplaceInfix(new_infix_len, {segments, dim_});
    return true;
  }
  EntryDelta d;
  d.new_infix = true;
  d.new_infix_len = new_infix_len;
  d.infix_segments = segments;
  return TryRebuild(target, d);
}

// Lookup and ordinal iteration are inline in node.h (query hot path).

// ---- Mutation -------------------------------------------------------------

void Node::WritePostfixRecord(uint64_t record_pos,
                              std::span<const uint64_t> key) {
  const uint32_t pl = postfix_len_;
  for (uint32_t d = 0; d < dim_; ++d) {
    bits_.WriteBits(record_pos + static_cast<uint64_t>(d) * pl, pl,
                    key[d] & LowMask(pl));
  }
}

void Node::ZeroBits(uint64_t pos, uint64_t n) {
  while (n > 0) {
    const uint32_t chunk = n >= 64 ? 64 : static_cast<uint32_t>(n);
    bits_.WriteBits(pos, chunk, 0);
    pos += chunk;
    n -= chunk;
  }
}

void Node::LhcInsertEntry(uint64_t p, uint64_t addr, bool is_sub,
                          uint64_t payload, const uint64_t* key) {
  const uint64_t n = num_entries_;
  const uint64_t np = num_postfixes();
  const uint64_t ns = num_subs_;
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t v = vb();
  const uint64_t rank = LhcPostfixRank(p);
  const uint64_t srank = p - rank;
  const uint64_t has_rec = is_sub ? 0 : 1;
  // Old region bases.
  const uint64_t o_sub = np * v;
  const uint64_t o_inf = o_sub + ns * 32;
  const uint64_t o_flg = o_inf + ib;
  const uint64_t o_adr = o_flg + n;
  const uint64_t o_rec = o_adr + n * dim_;
  // New region bases (n+1 entries).
  const uint64_t n_sub = (np + has_rec) * v;
  const uint64_t n_inf = n_sub + (ns + (is_sub ? 1 : 0)) * 32;
  const uint64_t n_flg = n_inf + ib;
  const uint64_t n_adr = n_flg + (n + 1);
  const uint64_t n_rec = n_adr + (n + 1) * dim_;
  bits_.Resize(n_rec + (np + has_rec) * st);
  // Move each segment exactly once, highest source first (all displacements
  // are rightward, so later (lower) sources are never clobbered).
  bits_.MoveBits(o_rec + rank * st, n_rec + (rank + has_rec) * st,
                 (np - rank) * st);
  bits_.MoveBits(o_rec, n_rec, rank * st);
  bits_.MoveBits(o_adr + p * dim_, n_adr + (p + 1) * dim_, (n - p) * dim_);
  bits_.MoveBits(o_adr, n_adr, p * dim_);
  bits_.MoveBits(o_flg + p, n_flg + p + 1, n - p);
  bits_.MoveBits(o_flg, n_flg, p);
  bits_.MoveBits(o_inf, n_inf, ib);
  if (is_sub) {
    bits_.MoveBits(o_sub + srank * 32, n_sub + (srank + 1) * 32,
                   (ns - srank) * 32);
    bits_.MoveBits(o_sub, n_sub, srank * 32);
    bits_.WriteBits(n_sub + srank * 32, 32, payload);
  } else {
    bits_.MoveBits(o_sub, n_sub, ns * 32);
    if (v > 0) {
      bits_.MoveBits(rank * 64, (rank + 1) * 64, (np - rank) * 64);
      bits_.WriteBits(rank * 64, 64, payload);
    }
  }
  // Write the new entry (every field is fully overwritten).
  bits_.SetBit(n_flg + p, is_sub ? 1 : 0);
  bits_.WriteBits(n_adr + p * dim_, dim_, addr);
  ++num_entries_;
  if (is_sub) {
    ++num_subs_;
  } else {
    WritePostfixRecord(lhc_records_base() + rank * st,
                       {key, static_cast<size_t>(dim_)});
  }
}

void Node::LhcRemoveEntry(uint64_t p) {
  const uint64_t n = num_entries_;
  const uint64_t np = num_postfixes();
  const uint64_t ns = num_subs_;
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t v = vb();
  const bool was_sub = OrdinalIsSub(p);
  const uint64_t rank = LhcPostfixRank(p);
  const uint64_t srank = p - rank;
  const uint64_t has_rec = was_sub ? 0 : 1;
  const uint64_t o_sub = np * v;
  const uint64_t o_inf = o_sub + ns * 32;
  const uint64_t o_flg = o_inf + ib;
  const uint64_t o_adr = o_flg + n;
  const uint64_t o_rec = o_adr + n * dim_;
  const uint64_t n_sub = (np - has_rec) * v;
  const uint64_t n_inf = n_sub + (ns - (was_sub ? 1 : 0)) * 32;
  const uint64_t n_flg = n_inf + ib;
  const uint64_t n_adr = n_flg + (n - 1);
  const uint64_t n_rec = n_adr + (n - 1) * dim_;
  // Leftward displacements: process lowest source first.
  if (was_sub) {
    bits_.MoveBits(o_sub, n_sub, srank * 32);
    bits_.MoveBits(o_sub + (srank + 1) * 32, n_sub + srank * 32,
                   (ns - 1 - srank) * 32);
  } else {
    if (v > 0) {
      bits_.MoveBits((rank + 1) * 64, rank * 64, (np - 1 - rank) * 64);
    }
    bits_.MoveBits(o_sub, n_sub, ns * 32);
  }
  bits_.MoveBits(o_inf, n_inf, ib);
  bits_.MoveBits(o_flg, n_flg, p);
  bits_.MoveBits(o_flg + p + 1, n_flg + p, n - 1 - p);
  bits_.MoveBits(o_adr, n_adr, p * dim_);
  bits_.MoveBits(o_adr + (p + 1) * dim_, n_adr + p * dim_,
                 (n - 1 - p) * dim_);
  bits_.MoveBits(o_rec, n_rec, rank * st);
  bits_.MoveBits(o_rec + (rank + has_rec) * st, n_rec + rank * st,
                 (np - rank - has_rec) * st);
  bits_.Resize(n_rec + (np - has_rec) * st);
  --num_entries_;
  if (was_sub) {
    --num_subs_;
  }
}

void Node::BhcInsertEntry(uint64_t addr, uint64_t value, const uint64_t* key) {
  const uint64_t np = num_entries_;  // sub-free: every entry is a postfix
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t s = hc_slots();
  const uint64_t v = vb();
  const uint64_t rank = BhcRank(addr);
  const uint64_t o_inf = np * v;
  const uint64_t o_pres = o_inf + ib;
  const uint64_t o_rec = o_pres + s;
  const uint64_t n_inf = o_inf + v;
  const uint64_t n_pres = n_inf + ib;
  const uint64_t n_rec = n_pres + s;
  bits_.Resize(n_rec + (np + 1) * st);
  // Rightward displacements: highest source first.
  bits_.MoveBits(o_rec + rank * st, n_rec + (rank + 1) * st,
                 (np - rank) * st);
  bits_.MoveBits(o_rec, n_rec, rank * st);
  bits_.MoveBits(o_pres, n_pres, s);
  bits_.MoveBits(o_inf, n_inf, ib);
  if (v > 0) {
    bits_.MoveBits(rank * 64, (rank + 1) * 64, (np - rank) * 64);
    bits_.WriteBits(rank * 64, 64, value);
  }
  bits_.SetBit(n_pres + addr, 1);
  ++num_entries_;
  WritePostfixRecord(bhc_records_base() + rank * st,
                     {key, static_cast<size_t>(dim_)});
}

void Node::BhcRemoveEntry(uint64_t addr) {
  const uint64_t np = num_entries_;
  const uint64_t ib = infix_bits();
  const uint64_t st = stride();
  const uint64_t s = hc_slots();
  const uint64_t v = vb();
  const uint64_t rank = BhcRank(addr);
  const uint64_t o_inf = np * v;
  const uint64_t o_pres = o_inf + ib;
  const uint64_t o_rec = o_pres + s;
  const uint64_t n_inf = o_inf - v;
  const uint64_t n_pres = n_inf + ib;
  const uint64_t n_rec = n_pres + s;
  bits_.SetBit(o_pres + addr, 0);
  // Leftward displacements: lowest source first.
  if (v > 0) {
    bits_.MoveBits((rank + 1) * 64, rank * 64, (np - 1 - rank) * 64);
  }
  bits_.MoveBits(o_inf, n_inf, ib);
  bits_.MoveBits(o_pres, n_pres, s);
  bits_.MoveBits(o_rec, n_rec, rank * st);
  bits_.MoveBits(o_rec + (rank + 1) * st, n_rec + rank * st,
                 (np - 1 - rank) * st);
  bits_.Resize(n_rec + (np - 1) * st);
  --num_entries_;
}

void Node::InsertPostfixInPlace(uint64_t addr, std::span<const uint64_t> key,
                                uint64_t value) {
  switch (repr_) {
    case Repr::kHc:
      if (store_values_) {
        bits_.WriteBits(addr * 64, 64, value);
      }
      bits_.SetBit(hc_present_base() + addr, 1);
      bits_.SetBit(hc_sub_base() + addr, 0);
      WritePostfixRecord(hc_records_base() + addr * stride(), key);
      ++num_entries_;
      break;
    case Repr::kBhc:
      BhcInsertEntry(addr, value, key.data());
      break;
    case Repr::kLhc:
    default: {
      const uint64_t ge = OrdinalGE(addr);
      const uint64_t p = ge == kNoOrdinal ? num_entries_ : ge;
      LhcInsertEntry(p, addr, /*is_sub=*/false, value, key.data());
      break;
    }
  }
}

bool Node::TryInsertPostfix(uint64_t addr, std::span<const uint64_t> key,
                            uint64_t value, const PhTreeConfig& cfg) {
  assert(FindOrdinal(addr) == kNoOrdinal);
  const uint64_t n2 = num_entries_ + 1;
  const uint64_t np2 = n2 - num_subs_;
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n2, num_subs_, ib, cfg);
  if (target == repr_ &&
      !bits_.ResizeWouldRelocate(ReprBitsEx(target, n2, np2, ib))) {
    InsertPostfixInPlace(addr, key, value);
    return true;
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kInsertPostfix;
  d.addr = addr;
  d.key = key.data();
  d.payload = value;
  return TryRebuild(target, d);
}

void Node::InsertSubInPlace(uint64_t addr, NodeHandle child) {
  assert(!is_bhc());
  if (is_hc()) {
    if (store_values_) {
      bits_.WriteBits(addr * 64, 64, child);
    } else {
      const uint64_t srank = HcSubRank(addr);
      bits_.InsertBits(hc_subs_tail_base() + srank * 32, 32);
      bits_.WriteBits(hc_subs_tail_base() + srank * 32, 32, child);
    }
    bits_.SetBit(hc_present_base() + addr, 1);
    bits_.SetBit(hc_sub_base() + addr, 1);
    ++num_subs_;
    ++num_entries_;
  } else {
    const uint64_t ge = OrdinalGE(addr);
    const uint64_t p = ge == kNoOrdinal ? num_entries_ : ge;
    LhcInsertEntry(p, addr, /*is_sub=*/true, child, nullptr);
  }
}

bool Node::TryInsertSub(uint64_t addr, NodeHandle child,
                        const PhTreeConfig& cfg) {
  assert(FindOrdinal(addr) == kNoOrdinal);
  const uint64_t n2 = num_entries_ + 1;
  const uint64_t ns2 = uint64_t{num_subs_} + 1;
  const uint64_t ib = infix_bits();
  // target is never kBhc (ns2 > 0), so a BHC node always takes the rebuild
  // path — rebuilt atomically out of its sub-free form into the target.
  const Repr target = PickRepr(n2, ns2, ib, cfg);
  if (target == repr_ &&
      !bits_.ResizeWouldRelocate(ReprBitsEx(target, n2, n2 - ns2, ib))) {
    InsertSubInPlace(addr, child);
    return true;
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kInsertSub;
  d.addr = addr;
  d.payload = child;
  return TryRebuild(target, d);
}

void Node::RemoveEntryInPlace(uint64_t addr) {
  const uint64_t ord = FindOrdinal(addr);
  assert(ord != kNoOrdinal);
  switch (repr_) {
    case Repr::kHc: {
      const bool was_sub = OrdinalIsSub(ord);
      if (was_sub) {
        if (store_values_) {
          bits_.WriteBits(addr * 64, 64, 0);
        } else {
          const uint64_t srank = HcSubRank(addr);
          bits_.RemoveBits(hc_subs_tail_base() + srank * 32, 32);
        }
        --num_subs_;
      } else {
        // Zero freed slots so the stream stays a pure function of content.
        ZeroBits(hc_records_base() + addr * stride(), stride());
        if (store_values_) {
          bits_.WriteBits(addr * 64, 64, 0);
        }
      }
      bits_.SetBit(hc_present_base() + addr, 0);
      bits_.SetBit(hc_sub_base() + addr, 0);
      --num_entries_;
      break;
    }
    case Repr::kBhc:
      BhcRemoveEntry(addr);
      break;
    case Repr::kLhc:
    default:
      LhcRemoveEntry(ord);
      break;
  }
}

bool Node::TryRemoveEntry(uint64_t addr, const PhTreeConfig& cfg) {
  const uint64_t ord = FindOrdinal(addr);
  assert(ord != kNoOrdinal);
  const bool was_sub = OrdinalIsSub(ord);
  const uint64_t n2 = num_entries_ - 1;
  const uint64_t ns2 = uint64_t{num_subs_} - (was_sub ? 1 : 0);
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n2, ns2, ib, cfg);
  if (target == repr_ &&
      !bits_.ResizeWouldRelocate(ReprBitsEx(target, n2, n2 - ns2, ib))) {
    RemoveEntryInPlace(addr);
    return true;
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kRemove;
  d.addr = addr;
  return TryRebuild(target, d);
}

bool Node::TryReplaceEntryWithSub(uint64_t addr, NodeHandle child,
                                  const PhTreeConfig& cfg) {
  assert(FindOrdinal(addr) != kNoOrdinal &&
         !OrdinalIsSub(FindOrdinal(addr)));
  const uint64_t n = num_entries_;
  const uint64_t ns2 = uint64_t{num_subs_} + 1;
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n, ns2, ib, cfg);
  // HC keeps this in place (a slot rewrite, plus a 32-bit tail insert in
  // key-only mode); LHC needs a remove+reinsert — two stream resizes whose
  // intermediate state cannot be guarded — so it always rebuilds, as does
  // any representation change (including BHC shedding its sub-free form).
  if (target == repr_ && repr_ == Repr::kHc &&
      !bits_.ResizeWouldRelocate(ReprBitsEx(target, n, n - ns2, ib))) {
    ZeroBits(hc_records_base() + addr * stride(), stride());
    if (store_values_) {
      bits_.WriteBits(addr * 64, 64, child);
    } else {
      const uint64_t srank = HcSubRank(addr);
      bits_.InsertBits(hc_subs_tail_base() + srank * 32, 32);
      bits_.WriteBits(hc_subs_tail_base() + srank * 32, 32, child);
    }
    bits_.SetBit(hc_sub_base() + addr, 1);
    ++num_subs_;
    return true;
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kToSub;
  d.addr = addr;
  d.payload = child;
  return TryRebuild(target, d);
}

bool Node::TryReplaceSubWithPostfix(uint64_t addr,
                                    std::span<const uint64_t> key,
                                    uint64_t value, const PhTreeConfig& cfg) {
  assert(FindOrdinal(addr) != kNoOrdinal &&
         OrdinalIsSub(FindOrdinal(addr)));  // never BHC
  const uint64_t n = num_entries_;
  const uint64_t ns2 = uint64_t{num_subs_} - 1;
  const uint64_t ib = infix_bits();
  const Repr target = PickRepr(n, ns2, ib, cfg);
  if (target == repr_ && repr_ == Repr::kHc &&
      !bits_.ResizeWouldRelocate(ReprBitsEx(target, n, n - ns2, ib))) {
    if (store_values_) {
      bits_.WriteBits(addr * 64, 64, value);
    } else {
      const uint64_t srank = HcSubRank(addr);
      bits_.RemoveBits(hc_subs_tail_base() + srank * 32, 32);
    }
    bits_.SetBit(hc_sub_base() + addr, 0);
    WritePostfixRecord(hc_records_base() + addr * stride(), key);
    --num_subs_;
    return true;
  }
  EntryDelta d;
  d.kind = EntryDelta::Kind::kToPostfix;
  d.addr = addr;
  d.key = key.data();
  d.payload = value;
  return TryRebuild(target, d);
}

void Node::SetSubAt(uint64_t ord, NodeHandle child) {
  assert(OrdinalIsSub(ord));  // implies repr != kBhc
  if (repr_ == Repr::kHc) {
    if (store_values_) {
      bits_.WriteBits(ord * 64, 64, child);
    } else {
      bits_.WriteBits(hc_subs_tail_base() + HcSubRank(ord) * 32, 32, child);
    }
    return;
  }
  const uint64_t srank = ord - LhcPostfixRank(ord);
  bits_.WriteBits(lhc_subs_base() + srank * 32, 32, child);
}

void Node::SetPayloadAt(uint64_t ord, uint64_t value) {
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
  bits_.WriteBits(slot * 64, 64, value);
}

void Node::SetPostfixAt(uint64_t ord, std::span<const uint64_t> key) {
  assert(!OrdinalIsSub(ord));
  if (postfix_len_ == 0) {
    return;
  }
  WritePostfixRecord(RecordPos(ord), key);
}

bool Node::TryAssignFrom(const Node& src) {
  assert(dim_ == src.dim_ && store_values_ == src.store_values_);
  if (!bits_.TryResize(src.bits_.size_bits())) {
    return false;
  }
  bits_.CopyFrom(src.bits_, 0, 0, src.bits_.size_bits());
  infix_len_ = src.infix_len_;
  postfix_len_ = src.postfix_len_;
  repr_ = src.repr_;
  num_entries_ = src.num_entries_;
  num_subs_ = src.num_subs_;
  return true;
}

bool Node::TryRelocatePostfix(uint64_t old_addr, uint64_t new_addr,
                              std::span<const uint64_t> key, uint64_t value) {
  assert(old_addr != new_addr);
  assert(FindOrdinal(old_addr) != kNoOrdinal &&
         !OrdinalIsSub(FindOrdinal(old_addr)));
  assert(FindOrdinal(new_addr) == kNoOrdinal);
  // The remove shrinks the stream by one entry before the reinsert grows it
  // back; if that shrink would trade the backing block, the grow-back would
  // need a fresh allocation and could fail mid-flight. Occupancy and the
  // representation policy inputs are otherwise unchanged, so staying in the
  // current block makes the in-place move infallible.
  const uint64_t mid_bits = ReprBitsEx(repr_, uint64_t{num_entries_} - 1,
                                       num_postfixes() - 1, infix_bits());
  // mid_bits == 0 (single-entry root, zero infix): the shrink would release
  // the pooled block outright, making the grow-back fallible.
  if (mid_bits != 0 && !bits_.ResizeWouldRelocate(mid_bits)) {
    RemoveEntryInPlace(old_addr);
    InsertPostfixInPlace(new_addr, key, value);
    return true;
  }
  // Otherwise rebuild the stream with the entry moved, in one commit.
  EntryDelta d;
  d.kind = EntryDelta::Kind::kRelocatePostfix;
  d.addr = new_addr;
  d.from_addr = old_addr;
  d.key = key.data();
  d.payload = value;
  return TryRebuild(repr_, d);
}

// ---- Representation switching ------------------------------------------

// Size comparisons use exact bit counts: any coarser rounding would hide
// the HC advantage at low dimensionality (k-1 bits per slot at full
// occupancy), and the switching decision must be a deterministic pure
// function of the node contents.
uint64_t Node::HcBitsEx(uint64_t n_entries, uint64_t n_postfixes,
                        uint64_t ib) const {
  const uint64_t s = hc_slots();
  const uint64_t n_subs = n_entries - n_postfixes;
  const uint64_t payload_bits = store_values_ ? s * 64 : n_subs * 32;
  return payload_bits + ib + 2 * s + s * stride();
}

uint64_t Node::LhcBitsEx(uint64_t n_entries, uint64_t n_postfixes,
                         uint64_t ib) const {
  const uint64_t n_subs = n_entries - n_postfixes;
  return n_postfixes * vb() + n_subs * 32 + ib + n_entries +
         n_entries * dim_ + n_postfixes * stride();
}

uint64_t Node::BhcBitsEx(uint64_t n_postfixes, uint64_t ib) const {
  return n_postfixes * vb() + ib + hc_slots() + n_postfixes * stride();
}

uint64_t Node::ReprBitsEx(Repr r, uint64_t n_entries, uint64_t n_postfixes,
                          uint64_t ib) const {
  switch (r) {
    case Repr::kHc:
      return HcBitsEx(n_entries, n_postfixes, ib);
    case Repr::kBhc:
      return BhcBitsEx(n_postfixes, ib);
    case Repr::kLhc:
    default:
      return LhcBitsEx(n_entries, n_postfixes, ib);
  }
}

uint64_t Node::HcBitsFor(uint64_t n_postfixes) const {
  return HcBitsEx(num_entries_, n_postfixes, infix_bits());
}

uint64_t Node::LhcBitsFor(uint64_t n_entries, uint64_t n_postfixes) const {
  return LhcBitsEx(n_entries, n_postfixes, infix_bits());
}

uint64_t Node::BhcBitsFor(uint64_t n_postfixes) const {
  return BhcBitsEx(n_postfixes, infix_bits());
}

Node::Repr Node::PickRepr(uint64_t n_entries, uint64_t n_subs, uint64_t ib,
                          const PhTreeConfig& cfg) const {
  const uint64_t np = n_entries - n_subs;
  const bool hc_allowed = dim_ <= cfg.hc_max_dim;
  const bool bhc_eligible = hc_allowed && n_subs == 0;
  switch (cfg.repr) {
    case NodeRepr::kLhcOnly:
      return Repr::kLhc;
    case NodeRepr::kHcOnly:
      return hc_allowed ? Repr::kHc : Repr::kLhc;
    case NodeRepr::kBhcOnly:
      return bhc_eligible ? Repr::kBhc : Repr::kLhc;
    case NodeRepr::kAdaptive:
      break;
  }
  Repr best = Repr::kLhc;
  uint64_t best_bits = LhcBitsEx(n_entries, np, ib);
  if (bhc_eligible) {
    const uint64_t b = BhcBitsEx(np, ib);
    if (b < best_bits) {
      best = Repr::kBhc;
      best_bits = b;
    }
  }
  if (hc_allowed) {
    const uint64_t h = HcBitsEx(n_entries, np, ib);
    if (h < best_bits) {
      best = Repr::kHc;
      best_bits = h;
    }
  }
  // The hysteresis band is relative to the representation the node would be
  // in *at this occupancy*: the current one if it stays legal, otherwise
  // LHC (an ineligible BHC node passes through LHC form, so LHC is the
  // state the switching rule compares against).
  Repr cur = repr_;
  const bool current_legal =
      cur == Repr::kLhc || (cur == Repr::kHc ? hc_allowed : bhc_eligible);
  if (!current_legal) {
    cur = Repr::kLhc;
  }
  if (best == cur) {
    return cur;
  }
  if (cfg.hysteresis < 1.0 &&
      static_cast<double>(best_bits) >=
          static_cast<double>(ReprBitsEx(cur, n_entries, np, ib)) *
              cfg.hysteresis) {
    return cur;
  }
  return best;
}

uint64_t Node::CurrentReprBits() const {
  switch (repr_) {
    case Repr::kHc:
      return HcBits();
    case Repr::kBhc:
      return BhcBits();
    case Repr::kLhc:
    default:
      return LhcBits();
  }
}

bool Node::TryRebuild(Repr target, const EntryDelta& delta) {
  using K = EntryDelta::Kind;
  // Post-state occupancy.
  uint64_t n2 = num_entries_;
  uint64_t ns2 = num_subs_;
  switch (delta.kind) {
    case K::kNone:
      break;
    case K::kInsertPostfix:
      ++n2;
      break;
    case K::kInsertSub:
      ++n2;
      ++ns2;
      break;
    case K::kRemove: {
      const uint64_t ord = FindOrdinal(delta.addr);
      assert(ord != kNoOrdinal);
      --n2;
      if (OrdinalIsSub(ord)) {
        --ns2;
      }
      break;
    }
    case K::kToSub:
      ++ns2;
      break;
    case K::kToPostfix:
      --ns2;
      break;
    case K::kRelocatePostfix:
      break;
  }
  assert(target != Repr::kBhc || ns2 == 0);
  const uint64_t np2 = n2 - ns2;
  const uint32_t il2 = delta.new_infix ? delta.new_infix_len : infix_len_;
  const uint64_t ib2 = static_cast<uint64_t>(dim_) * il2;
  const uint64_t st = stride();
  const uint64_t s = hc_slots();
  const uint64_t v = vb();
  const uint32_t pl = postfix_len_;
  // Target-layout region bases for the post-state occupancy (the layout
  // definitions from the node.h region comment).
  uint64_t n_sub = 0;
  uint64_t n_inf = 0;
  uint64_t n_flg = 0;
  uint64_t n_adr = 0;
  uint64_t n_pres = 0;
  uint64_t n_subbm = 0;
  uint64_t n_rec = 0;
  uint64_t n_subtail = 0;
  uint64_t total = 0;
  switch (target) {
    case Repr::kLhc:
      n_sub = np2 * v;
      n_inf = n_sub + ns2 * 32;
      n_flg = n_inf + ib2;
      n_adr = n_flg + n2;
      n_rec = n_adr + n2 * dim_;
      total = n_rec + np2 * st;
      break;
    case Repr::kHc:
      n_inf = store_values_ ? s * 64 : 0;
      n_pres = n_inf + ib2;
      n_subbm = n_pres + s;
      n_rec = n_subbm + s;
      n_subtail = n_rec + s * st;
      total = n_subtail + (store_values_ ? 0 : ns2 * 32);
      break;
    case Repr::kBhc:
      n_inf = np2 * v;
      n_pres = n_inf + ib2;
      n_rec = n_pres + s;
      total = n_rec + np2 * st;
      break;
  }
  // The single fallible step: one allocation for the whole replacement
  // stream. Nothing below can fail, and the node's own state is not
  // touched until the final commit.
  BitBuffer nb(bits_.pool());
  if (!nb.TryResize(total)) {
    return false;
  }
  if (delta.new_infix) {
    for (uint32_t d = 0; d < dim_; ++d) {
      nb.WriteBits(n_inf + static_cast<uint64_t>(d) * il2, il2,
                   delta.infix_segments[d]);
    }
  } else {
    nb.CopyFrom(bits_, infix_base(), n_inf, ib2);
  }
  uint64_t idx = 0;
  uint64_t prank = 0;
  uint64_t srank = 0;
  const auto write_record = [&](uint64_t pos, const uint64_t* key_src) {
    for (uint32_t d = 0; d < dim_; ++d) {
      nb.WriteBits(pos + static_cast<uint64_t>(d) * pl, pl,
                   key_src[d] & LowMask(pl));
    }
  };
  // Emits one post-state entry; `src_ord` names the old-node ordinal to
  // copy the postfix record from, kNoOrdinal when `key_src` supplies it.
  const auto emit = [&](uint64_t addr, bool sub, uint64_t payload,
                        const uint64_t* key_src, uint64_t src_ord) {
    switch (target) {
      case Repr::kLhc:
        nb.SetBit(n_flg + idx, sub ? 1 : 0);
        nb.WriteBits(n_adr + idx * dim_, dim_, addr);
        if (sub) {
          nb.WriteBits(n_sub + srank * 32, 32, payload);
        } else {
          if (v > 0) {
            nb.WriteBits(prank * 64, 64, payload);
          }
          if (key_src != nullptr) {
            write_record(n_rec + prank * st, key_src);
          } else {
            nb.CopyFrom(bits_, RecordPos(src_ord), n_rec + prank * st, st);
          }
        }
        break;
      case Repr::kHc:
        nb.SetBit(n_pres + addr, 1);
        if (sub) {
          nb.SetBit(n_subbm + addr, 1);
          if (store_values_) {
            nb.WriteBits(addr * 64, 64, payload);
          } else {
            nb.WriteBits(n_subtail + srank * 32, 32, payload);
          }
        } else {
          if (v > 0) {
            nb.WriteBits(addr * 64, 64, payload);
          }
          if (key_src != nullptr) {
            write_record(n_rec + addr * st, key_src);
          } else {
            nb.CopyFrom(bits_, RecordPos(src_ord), n_rec + addr * st, st);
          }
        }
        break;
      case Repr::kBhc:
        nb.SetBit(n_pres + addr, 1);
        if (v > 0) {
          nb.WriteBits(prank * 64, 64, payload);
        }
        if (key_src != nullptr) {
          write_record(n_rec + prank * st, key_src);
        } else {
          nb.CopyFrom(bits_, RecordPos(src_ord), n_rec + prank * st, st);
        }
        break;
    }
    if (sub) {
      ++srank;
    } else {
      ++prank;
    }
    ++idx;
  };
  bool pending_insert = delta.kind == K::kInsertPostfix ||
                        delta.kind == K::kInsertSub ||
                        delta.kind == K::kRelocatePostfix;
  for (uint64_t ord = FirstOrdinal(); ord != kNoOrdinal;
       ord = NextOrdinal(ord)) {
    const uint64_t addr = OrdinalAddr(ord);
    if (delta.kind == K::kRelocatePostfix && addr == delta.from_addr) {
      continue;
    }
    if (pending_insert && delta.addr < addr) {
      emit(delta.addr, delta.kind == K::kInsertSub, delta.payload, delta.key,
           kNoOrdinal);
      pending_insert = false;
    }
    if (addr == delta.addr) {
      if (delta.kind == K::kRemove) {
        continue;
      }
      if (delta.kind == K::kToSub) {
        emit(addr, /*sub=*/true, delta.payload, nullptr, kNoOrdinal);
        continue;
      }
      if (delta.kind == K::kToPostfix) {
        emit(addr, /*sub=*/false, delta.payload, delta.key, kNoOrdinal);
        continue;
      }
    }
    const bool sub = OrdinalIsSub(ord);
    emit(addr, sub, sub ? OrdinalSub(ord) : OrdinalPayload(ord), nullptr,
         ord);
  }
  if (pending_insert) {
    emit(delta.addr, delta.kind == K::kInsertSub, delta.payload, delta.key,
         kNoOrdinal);
  }
  // Commit.
  bits_ = std::move(nb);
  repr_ = target;
  num_entries_ = static_cast<uint32_t>(n2);
  num_subs_ = static_cast<uint32_t>(ns2);
  infix_len_ = static_cast<uint8_t>(il2);
  return true;
}

// ---- Accounting ---------------------------------------------------------

uint64_t Node::MemoryBytes() const {
  // Exact for arena nodes: the arena slot plus the granted size-class block
  // (a pure function of the stored bits — see BitBuffer::Resize). Summed
  // over all nodes this equals NodeArena::LiveBytes() — the space tables
  // measure the allocator instead of modelling it.
  return sizeof(Node) + bits_.MemoryBytes();
}

}  // namespace phtree
