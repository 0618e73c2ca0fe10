#include "phtree/phtree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <utility>

#include "common/fault.h"
#include "common/simd.h"
#include "phtree/cursor.h"

namespace phtree {
namespace {

/// Stack scratch space for one key; the tree never exceeds kMaxDims.
struct KeyBuf {
  uint64_t data[kMaxDims];
  std::span<uint64_t> span(uint32_t dim) { return {data, dim}; }
};

void CopyKey(std::span<const uint64_t> src, std::span<uint64_t> dst) {
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i];
  }
}

/// Scope of one public mutation. In an MVCC tree the writer pins the epoch
/// for the whole mutation — the advance scan's load of this slot's exit
/// store is what orders the publication before any later reclamation (see
/// EpochManager) — and reclaims once unpinned. A plain tree has no epoch
/// manager and the pin does nothing.
class WriterPin {
 public:
  explicit WriterPin(NodeArena* arena)
      : arena_(arena),
        epochs_(arena != nullptr ? arena->epoch_manager() : nullptr),
        slot_(epochs_ != nullptr ? epochs_->Enter() : 0) {}
  ~WriterPin() {
    if (epochs_ != nullptr) {
      epochs_->Exit(slot_);
      arena_->Reclaim();
    }
  }
  WriterPin(const WriterPin&) = delete;
  WriterPin& operator=(const WriterPin&) = delete;

 private:
  NodeArena* arena_;
  EpochManager* epochs_;
  uint32_t slot_;
};

}  // namespace

// ---- The mutation path ----------------------------------------------------
//
// Insert, Erase and Update each make one iterative descent that records the
// (node, sub-ordinal) frames it passes, then run one structural case. A case
// never edits a live node directly: it asks Writable() for the node to edit —
// the live node itself in a plain tree, a private clone in an MVCC tree —
// and makes the single fallible edit of that node its last fallible step,
// after every fresh node it needs is completely built. A failure before
// that edit drops the Edit, which deletes the fresh nodes (never linked
// in); the edit itself is commit-or-rollback. Either way the tree stays
// bit-identical to its pre-call state. Commit() then links the result in —
// nothing to do for an in-place edit, one child-handle or root store
// otherwise — and retires every unlinked node: deleted at once without an
// epoch manager, epoch-deferred with one. The paper's at-most-two-touched-
// nodes bound (Sect. 3.6) keeps every case to at most two writable nodes.

/// One level of a recorded descent: `ord` is the sub entry of `node` the
/// descent followed — the slot a replacement child is published to. No
/// member initializers: a descent keeps a kBitWidth-deep stack of frames
/// and fills only the levels it visits.
struct PhTree::PathFrame {
  Node* node;
  NodeHandle handle;
  uint64_t ord;
};

/// The nodes one mutation allocated and the live nodes it unlinks. An edit
/// destroyed uncommitted (every failure path) deletes the nodes it
/// allocated; Commit() retires the unlinked ones instead.
class PhTree::Edit {
 public:
  explicit Edit(NodeArena* arena) : arena_(arena) {}
  ~Edit() {
    if (!committed_) {
      for (uint32_t i = 0; i < n_created_; ++i) {
        arena_->DeleteNode(Ref(created_[i]));
      }
    }
  }
  Edit(const Edit&) = delete;
  Edit& operator=(const Edit&) = delete;

  void Created(NodeHandle h) {
    assert(n_created_ < kMaxNodes);
    created_[n_created_++] = h;
  }
  void Unlinked(NodeHandle h) {
    assert(n_unlinked_ < kMaxNodes);
    unlinked_[n_unlinked_++] = h;
  }
  void Commit() {
    committed_ = true;
    for (uint32_t i = 0; i < n_unlinked_; ++i) {
      arena_->RetireNode(Ref(unlinked_[i]));
    }
  }

 private:
  /// Two nodes per case plus one clone per ancestor a publication climbs.
  static constexpr uint32_t kMaxNodes = kBitWidth + 2;

  NodeRef Ref(NodeHandle h) const { return NodeRef{arena_->NodeAt(h), h}; }

  NodeArena* arena_;
  // Handles rather than NodeRefs: left uninitialized like the path stack.
  NodeHandle created_[kMaxNodes];
  NodeHandle unlinked_[kMaxNodes];
  uint32_t n_created_ = 0;
  uint32_t n_unlinked_ = 0;
  bool committed_ = false;
};

NodeRef PhTree::Writable(NodeRef node, Edit* edit) {
  if (arena_->epoch_manager() == nullptr) {
    return node;
  }
  NodeRef copy = NewNode(node.ptr->infix_len(), node.ptr->postfix_len());
  if (!copy) {
    return NodeRef{};
  }
  edit->Created(copy.handle);
  if (!copy.ptr->TryAssignFrom(*node.ptr)) {
    return NodeRef{};
  }
  edit->Unlinked(node.handle);
  return copy;
}

bool PhTree::Commit(NodeRef replacement, NodeRef replaced,
                    const PathFrame* path, size_t depth, Edit* edit) {
  if (replacement.ptr != replaced.ptr) {
    // Link `replacement` into the slot `replaced` hangs from: path[depth-1]
    // or, at depth 0, the root. A key-only HC ancestor keeps sub handles in
    // an unaligned tail that one atomic store cannot republish, so under
    // MVCC its clone takes the new handle and the climb goes on (ending at
    // the root pointer at the latest); a plain tree edits it in place.
    size_t i = depth;
    for (; i > 0; --i) {
      const PathFrame& f = path[i - 1];
      if (f.node->CanPublishSubAt(f.ord)) {
        f.node->PublishSubAt(f.ord, replacement.handle);
        break;
      }
      const NodeRef w = Writable(NodeRef{f.node, f.handle}, edit);
      if (!w) {
        return false;
      }
      w.ptr->SetSubAt(f.ord, replacement.handle);
      if (w.ptr == f.node) {
        break;
      }
      replacement = w;
    }
    if (i == 0) {
      SetRoot(replacement);
    }
  }
  edit->Commit();
  return true;
}

PhTree::PhTree(uint32_t dim, const PhTreeConfig& config)
    : dim_(dim), config_(config), arena_(std::make_unique<NodeArena>()) {
  assert(dim >= 1 && dim <= kMaxDims);
}

// Destruction is never concurrent with readers (wrappers quiesce through the
// epoch manager before deleting a tree), so the arena releases every node —
// retired ones included — wholesale, without a tree walk.
PhTree::~PhTree() = default;

PhTree::PhTree(PhTree&& other) noexcept
    : dim_(other.dim_),
      config_(other.config_),
      size_(other.size_.load(std::memory_order_relaxed)),
      update_stats_(other.update_stats_),
      root_(other.root_),
      root_ptr_(other.root_.ptr),
      arena_(std::move(other.arena_)) {
  // The arena object (and with it every node and word-pool block) changes
  // owner but not address, so all internal pointers and handles stay valid.
  other.root_ = NodeRef{};
  other.root_ptr_.store(nullptr, std::memory_order_relaxed);
  other.size_.store(0, std::memory_order_relaxed);
  other.update_stats_ = PhUpdateStats{};
}

PhTree& PhTree::operator=(PhTree&& other) noexcept {
  if (this != &other) {
    // Moves are never concurrent with readers of *this: taking over the
    // other arena releases the old one, and every node in it, wholesale.
    dim_ = other.dim_;
    config_ = other.config_;
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    update_stats_ = other.update_stats_;
    root_ = other.root_;
    root_ptr_.store(other.root_.ptr, std::memory_order_relaxed);
    arena_ = std::move(other.arena_);
    other.root_ = NodeRef{};
    other.root_ptr_.store(nullptr, std::memory_order_relaxed);
    other.size_.store(0, std::memory_order_relaxed);
    other.update_stats_ = PhUpdateStats{};
  }
  return *this;
}

void PhTree::EnableMvcc(EpochManager* epochs) {
  assert(arena_ != nullptr && epochs != nullptr);
  arena_->SetEpochManager(epochs);
}

void PhTree::Clear() {
  if (!mvcc_enabled()) {
    if (arena_ != nullptr) {
      // O(slabs): drop every node and word block wholesale; no tree walk.
      arena_->Reset();
    }
    root_ = NodeRef{};
    root_ptr_.store(nullptr, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    return;
  }
  // Readers may be traversing: unpublish the root atomically, then retire
  // the whole subtree through the epoch queue instead of the wholesale
  // reset (which would recycle slots under the readers).
  WriterPin pin(arena_.get());
  const NodeRef old_root = root_;
  SetRoot(NodeRef{});
  size_.store(0, std::memory_order_relaxed);
  if (old_root) {
    RetireSubtree(old_root);
  }
}

void PhTree::RetireSubtree(NodeRef node) {
  for (uint64_t ord = node.ptr->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node.ptr->NextOrdinal(ord)) {
    if (node.ptr->OrdinalIsSub(ord)) {
      const NodeHandle ch = node.ptr->OrdinalSub(ord);
      RetireSubtree(NodeRef{arena_->NodeAt(ch), ch});
    }
  }
  arena_->RetireNode(node);
}

void PhTree::ReserveNodes(size_t n) {
  if (arena_ != nullptr) {
    arena_->ReserveNodes(n);
  }
}

NodeRef PhTree::NewNode(uint32_t infix_len, uint32_t postfix_len) {
  if (arena_ == nullptr) {
    // Moved-from tree being refilled: give it a fresh arena.
    arena_ = std::make_unique<NodeArena>();
  }
  return arena_->NewNode(dim_, infix_len, postfix_len, config_.store_values);
}

bool PhTree::Insert(std::span<const uint64_t> key, uint64_t value) {
  const OpStatus st = TryInsert(key, value);
  if (st == OpStatus::kNoMem) {
    throw std::bad_alloc();
  }
  return st == OpStatus::kApplied;
}

bool PhTree::InsertOrAssign(std::span<const uint64_t> key, uint64_t value) {
  const OpStatus st = TryInsertOrAssign(key, value);
  if (st == OpStatus::kNoMem) {
    throw std::bad_alloc();
  }
  return st == OpStatus::kApplied;
}

OpStatus PhTree::TryInsert(std::span<const uint64_t> key, uint64_t value) {
  assert(key.size() == dim_);
  WriterPin pin(arena_.get());
  return InsertImpl(key, value, /*assign=*/false);
}

OpStatus PhTree::TryInsertOrAssign(std::span<const uint64_t> key,
                                   uint64_t value) {
  assert(key.size() == dim_);
  WriterPin pin(arena_.get());
  return InsertImpl(key, value, /*assign=*/true);
}

size_t PhTree::BulkLoad(std::span<const PhEntry> entries) {
  size_t inserted = 0;
  for (const PhEntry& e : entries) {
    if (Insert(e.key, e.value)) {
      ++inserted;
    }
  }
  return inserted;
}

OpStatus PhTree::InsertImpl(std::span<const uint64_t> key, uint64_t value,
                            bool assign) {
  if (!root_) {
    // Build the root off-tree; publish (SetRoot) only once it is complete.
    NodeRef r = NewNode(/*infix_len=*/0, /*postfix_len=*/kBitWidth - 1);
    if (!r) {
      return OpStatus::kNoMem;
    }
    if (!r.ptr->TryInsertPostfix(HcAddressAt(key, kBitWidth - 1), key, value,
                                 config_)) {
      arena_->DeleteNode(r);
      return OpStatus::kNoMem;
    }
    SetRoot(r);
    size_.store(1, std::memory_order_relaxed);
    return OpStatus::kApplied;
  }
  PathFrame path[kBitWidth];
  size_t depth = 0;
  NodeRef node = root_;
  Edit edit(arena_.get());
  NodeRef replacement{};
  for (;;) {
    const int mis = node.ptr->MatchInfix(key);
    if (mis >= 0) {
      // Infix split (paper Sect. 3.6): the key diverges from this node's
      // infix at key bit `mis`, so a new parent at that depth takes the
      // node's place, holding the node with its infix trimmed plus the new
      // postfix. The parent is complete before the trim, the one edit of
      // the writable node.
      const uint32_t pl = node.ptr->postfix_len();
      const uint32_t il = node.ptr->infix_len();
      KeyBuf rep;
      CopyKey(key, rep.span(dim_));
      node.ptr->ReadInfixInto(rep.span(dim_));
      const uint64_t addr_node = HcAddressAt(rep.span(dim_), mis);
      const uint64_t addr_key = HcAddressAt(key, mis);
      assert(addr_node != addr_key);

      const NodeRef parent = NewNode(pl + il - static_cast<uint32_t>(mis),
                                     static_cast<uint32_t>(mis));
      if (!parent) {
        return OpStatus::kNoMem;
      }
      edit.Created(parent.handle);
      parent.ptr->SetInfixFromKey(key);
      const NodeRef trimmed = Writable(node, &edit);
      if (!trimmed ||
          !parent.ptr->TryInsertSub(addr_node, trimmed.handle, config_) ||
          !parent.ptr->TryInsertPostfix(addr_key, key, value, config_) ||
          !trimmed.ptr->TryTrimInfixToLow(static_cast<uint32_t>(mis) - 1 - pl,
                                          config_)) {
        return OpStatus::kNoMem;
      }
      replacement = parent;
      break;
    }
    const uint64_t addr = HcAddressAt(key, node.ptr->postfix_len());
    const uint64_t ord = node.ptr->FindOrdinal(addr);
    if (ord == Node::kNoOrdinal) {
      // Free slot: the entry lands in the writable node.
      replacement = Writable(node, &edit);
      if (!replacement ||
          !replacement.ptr->TryInsertPostfix(addr, key, value, config_)) {
        return OpStatus::kNoMem;
      }
      break;
    }
    if (node.ptr->OrdinalIsSub(ord)) {
      assert(depth < kBitWidth);
      path[depth++] = PathFrame{node.ptr, node.handle, ord};
      const NodeHandle ch = node.ptr->OrdinalSub(ord);
      node = NodeRef{arena_->NodeAt(ch), ch};
      continue;
    }
    const int div = node.ptr->PostfixDivergence(ord, key);
    if (div < 0) {
      // Exact duplicate: a payload overwrite is one atomic store into an
      // aligned value slot, so it stays in place in both modes.
      if (assign) {
        node.ptr->PublishPayloadAt(ord, value);
      }
      return OpStatus::kNoop;
    }
    // Postfix collision: both keys share bits (div, postfix_len) below this
    // node, so a fresh child at depth `div` holds the two postfixes. It is
    // complete before the colliding entry of the writable node becomes its
    // sub.
    const uint32_t pl = node.ptr->postfix_len();
    KeyBuf old_key;
    CopyKey(key, old_key.span(dim_));
    node.ptr->ReadPostfixInto(ord, old_key.span(dim_));
    const uint64_t old_value = node.ptr->OrdinalPayload(ord);
    const NodeRef child = NewNode(pl - 1 - static_cast<uint32_t>(div),
                                  static_cast<uint32_t>(div));
    if (!child) {
      return OpStatus::kNoMem;
    }
    edit.Created(child.handle);
    child.ptr->SetInfixFromKey(key);
    if (!child.ptr->TryInsertPostfix(HcAddressAt(old_key.span(dim_), div),
                                     old_key.span(dim_), old_value,
                                     config_) ||
        !child.ptr->TryInsertPostfix(HcAddressAt(key, div), key, value,
                                     config_)) {
      return OpStatus::kNoMem;
    }
    replacement = Writable(node, &edit);
    if (!replacement ||
        !replacement.ptr->TryReplaceEntryWithSub(addr, child.handle,
                                                 config_)) {
      return OpStatus::kNoMem;
    }
    break;
  }
  if (!Commit(replacement, node, path, depth, &edit)) {
    return OpStatus::kNoMem;
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  return OpStatus::kApplied;
}

std::optional<uint64_t> PhTree::Find(std::span<const uint64_t> key) const {
  assert(key.size() == dim_);
  // A point query is the degenerate window [key, key]: the cursor's masks
  // collapse to m_lower == m_upper == the key's exact address at every
  // node, so the engine descends the single matching path (one ordinal
  // probe per level) — no separate lookup loop.
  const TreeCursor cursor(*this, key, key);
  if (!cursor.Valid()) {
    return std::nullopt;
  }
  return cursor.value();
}

std::vector<std::optional<uint64_t>> PhTree::FindBatch(
    std::span<const PhKey> keys) const {
  std::vector<std::optional<uint64_t>> results(keys.size());
  // One root snapshot for the whole batch: an MVCC reader must not mix
  // nodes from two different published roots in one shared-descent stack.
  const Node* batch_root = root();
  if (keys.empty() || batch_root == nullptr) {
    return results;
  }
  // Visit the keys in z-order so the walk shares descents: consecutive
  // sorted keys agree on a prefix, and the stack below keeps exactly the
  // path nodes that prefix still pins down. Sorting compares a one-word
  // sample of each z-address (the top floor(64/dim) bits of every
  // dimension, interleaved — simd::ZSamplePrefix) computed once per key;
  // a full multi-word ZOrderLess per comparison would chase two heap
  // vectors every time and dominate the batch's cost. The sample covers
  // the tree's top levels, which is all the descent sharing cares about —
  // the order is a pure heuristic (the walk is correct for any visit
  // order), so ties on the sample just keep their relative input order.
  std::vector<std::pair<uint64_t, uint32_t>> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    order[i] = {simd::ZSamplePrefix(keys[i].data(), dim_),
                static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end());

  // The current descent path. Invariant: every stacked node's infix (and
  // path above it) matches the current key — a node at postfix_len pl fixes
  // all bit positions > pl, and consecutive keys differing first at bit hb
  // agree on positions > pl whenever pl >= hb, so those frames carry over
  // verbatim. Nodes whose infix mismatched are never pushed.
  const Node* stack[kBitWidth];
  size_t depth = 0;
  stack[depth++] = batch_root;

  const uint64_t* prev = nullptr;
  std::optional<uint64_t> prev_result;
  for (size_t si = 0; si < order.size(); ++si) {
    if (si + 1 < order.size()) {
      // One-step-ahead prefetch of the next key's coordinates (each PhKey
      // is its own heap block) so the z-compare below never stalls.
      simd::PrefetchRead(keys[order[si + 1].second].data());
    }
    const PhKey& key_vec = keys[order[si].second];
    assert(key_vec.size() == dim_);
    const std::span<const uint64_t> key{key_vec.data(), dim_};
    if (prev != nullptr) {
      uint64_t agg = 0;
      for (uint32_t d = 0; d < dim_; ++d) {
        agg |= key[d] ^ prev[d];
      }
      if (agg == 0) {
        results[order[si].second] = prev_result;  // duplicate key
        continue;
      }
      const uint32_t hb = static_cast<uint32_t>(std::bit_width(agg)) - 1;
      while (depth > 0 && stack[depth - 1]->postfix_len() < hb) {
        --depth;
      }
      if (depth == 0) {
        stack[depth++] = batch_root;
      }
    }
    std::optional<uint64_t> res;
    const Node* node = stack[depth - 1];
    while (true) {
      const uint64_t addr = HcAddressAt(key, node->postfix_len());
      const uint64_t ord = node->FindOrdinal(addr);
      if (ord == Node::kNoOrdinal) {
        break;
      }
      if (node->OrdinalIsSub(ord)) {
        const Node* child = arena_->NodeAt(node->OrdinalSub(ord));
        // Start the child's cache-line fetch before the infix compare
        // dereferences it.
        simd::PrefetchRead(child);
        if (child->MatchInfix(key) >= 0) {
          break;  // mismatched infix: never stacked (see invariant above)
        }
        assert(depth < kBitWidth);
        stack[depth++] = child;
        node = child;
        continue;
      }
      if (node->PostfixDivergence(ord, key) < 0) {
        res = node->OrdinalPayload(ord);
      }
      break;
    }
    results[order[si].second] = res;
    prev = key.data();
    prev_result = res;
  }
  return results;
}

bool PhTree::Erase(std::span<const uint64_t> key) {
  const OpStatus st = TryErase(key);
  if (st == OpStatus::kNoMem) {
    throw std::bad_alloc();
  }
  return st == OpStatus::kApplied;
}

OpStatus PhTree::TryErase(std::span<const uint64_t> key) {
  assert(key.size() == dim_);
  WriterPin pin(arena_.get());
  return EraseImpl(key);
}

OpStatus PhTree::EraseImpl(std::span<const uint64_t> key) {
  if (!root_) {
    return OpStatus::kNoop;
  }
  PathFrame path[kBitWidth];
  size_t depth = 0;
  NodeRef node = root_;
  uint64_t addr;
  uint64_t ord;
  for (;;) {
    if (node.ptr->MatchInfix(key) >= 0) {
      return OpStatus::kNoop;
    }
    addr = HcAddressAt(key, node.ptr->postfix_len());
    ord = node.ptr->FindOrdinal(addr);
    if (ord == Node::kNoOrdinal) {
      return OpStatus::kNoop;
    }
    if (!node.ptr->OrdinalIsSub(ord)) {
      if (node.ptr->PostfixDivergence(ord, key) >= 0) {
        return OpStatus::kNoop;
      }
      break;  // the key lives at postfix `ord` of `node`
    }
    assert(depth < kBitWidth);
    path[depth++] = PathFrame{node.ptr, node.handle, ord};
    const NodeHandle ch = node.ptr->OrdinalSub(ord);
    node = NodeRef{arena_->NodeAt(ch), ch};
  }
  if (depth == 0 && node.ptr->num_entries() == 1) {
    // Last entry of the tree: unpublish the root.
    SetRoot(NodeRef{});
    arena_->RetireNode(node);
    size_.store(0, std::memory_order_relaxed);
    return OpStatus::kApplied;
  }
  Edit edit(arena_.get());
  NodeRef replaced = node;
  NodeRef replacement{};
  size_t publish_depth = depth;
  if (depth > 0 && node.ptr->num_entries() == 2) {
    // The removal would leave a non-root node with one entry, so `node` is
    // unlinked whole (never edited) and its surviving entry moves into the
    // paper's second touched node, whose writable version takes the one
    // fallible edit.
    const PathFrame& pf = path[depth - 1];
    uint64_t sord = node.ptr->FirstOrdinal();  // the surviving entry
    if (sord == ord) {
      sord = node.ptr->NextOrdinal(sord);
    }
    const uint64_t saddr = node.ptr->OrdinalAddr(sord);
    edit.Unlinked(node.handle);
    if (node.ptr->OrdinalIsSub(sord)) {
      // Splice: the grandchild absorbs `node`'s infix and address bit and
      // takes `node`'s slot in the parent.
      const NodeHandle gh = node.ptr->OrdinalSub(sord);
      replacement = Writable(NodeRef{arena_->NodeAt(gh), gh}, &edit);
      if (!replacement || !replacement.ptr->TryAbsorbParentInfix(
                              *node.ptr, saddr, config_)) {
        return OpStatus::kNoMem;
      }
    } else {
      // Merge: the parent's sub entry for `node` becomes the surviving
      // postfix, rebuilt from node infix + node address bit + node postfix.
      KeyBuf buf;
      for (uint32_t d = 0; d < dim_; ++d) {
        buf.data[d] = 0;
      }
      node.ptr->ReadPostfixInto(sord, buf.span(dim_));
      ApplyHcAddress(saddr, node.ptr->postfix_len(), buf.span(dim_));
      node.ptr->ReadInfixInto(buf.span(dim_));
      const uint64_t value = node.ptr->OrdinalPayload(sord);
      const uint64_t addr_in_parent = pf.node->OrdinalAddr(pf.ord);
      replaced = NodeRef{pf.node, pf.handle};
      replacement = Writable(replaced, &edit);
      if (!replacement || !replacement.ptr->TryReplaceSubWithPostfix(
                              addr_in_parent, buf.span(dim_), value,
                              config_)) {
        return OpStatus::kNoMem;
      }
      publish_depth = depth - 1;
    }
  } else {
    replacement = Writable(node, &edit);
    if (!replacement || !replacement.ptr->TryRemoveEntry(addr, config_)) {
      return OpStatus::kNoMem;
    }
  }
  if (!Commit(replacement, replaced, path, publish_depth, &edit)) {
    return OpStatus::kNoMem;
  }
  size_.fetch_sub(1, std::memory_order_relaxed);
  return OpStatus::kApplied;
}

UpdateOutcome PhTree::Update(std::span<const uint64_t> old_key,
                             std::span<const uint64_t> new_key,
                             std::optional<uint64_t> value) {
  const UpdateOutcome out = TryUpdate(old_key, new_key, value);
  if (out == UpdateOutcome::kNoMem) {
    throw std::bad_alloc();
  }
  return out;
}

UpdateOutcome PhTree::TryUpdate(std::span<const uint64_t> old_key,
                                std::span<const uint64_t> new_key,
                                std::optional<uint64_t> value) {
  assert(old_key.size() == dim_ && new_key.size() == dim_);
  WriterPin pin(arena_.get());
  return UpdateImpl(old_key, new_key, value);
}

UpdateOutcome PhTree::UpdateImpl(std::span<const uint64_t> old_key,
                                 std::span<const uint64_t> new_key,
                                 std::optional<uint64_t> value) {
  if (!root_) {
    return UpdateOutcome::kOldMissing;
  }
  // First differing bit of the two keys across all dimensions — the level
  // of their lowest common ancestor (the FindBatch shared-prefix logic).
  uint64_t agg = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    agg |= old_key[d] ^ new_key[d];
  }

  // Single descent along old_key. Invariant: every visited node's infix
  // (and the path above it) matches old_key.
  PathFrame path[kBitWidth];
  size_t depth = 0;
  NodeRef node = root_;
  uint64_t addr;
  uint64_t ord;
  for (;;) {
    if (node.ptr->MatchInfix(old_key) >= 0) {
      return UpdateOutcome::kOldMissing;
    }
    addr = HcAddressAt(old_key, node.ptr->postfix_len());
    ord = node.ptr->FindOrdinal(addr);
    if (ord == Node::kNoOrdinal) {
      return UpdateOutcome::kOldMissing;
    }
    if (!node.ptr->OrdinalIsSub(ord)) {
      if (node.ptr->PostfixDivergence(ord, old_key) >= 0) {
        return UpdateOutcome::kOldMissing;
      }
      break;  // old_key found: postfix `ord` of `node`
    }
    assert(depth < kBitWidth);
    path[depth++] = PathFrame{node.ptr, node.handle, ord};
    const NodeHandle ch = node.ptr->OrdinalSub(ord);
    node = NodeRef{arena_->NodeAt(ch), ch};
  }

  if (agg == 0) {
    // old_key == new_key: a pure payload rewrite, one atomic store in place.
    if (value.has_value()) {
      node.ptr->PublishPayloadAt(ord, *value);
    }
    ++update_stats_.fast_path;
    return UpdateOutcome::kMoved;
  }

  const uint32_t hb = static_cast<uint32_t>(std::bit_width(agg)) - 1;
  const uint32_t pl = node.ptr->postfix_len();
  const uint64_t v = value.has_value() ? *value : node.ptr->OrdinalPayload(ord);

  if (hb <= pl) {
    // In-node relocation: the keys agree on every bit above `pl`, so
    // new_key belongs in this same node and the move is a slot change (or a
    // pure postfix rewrite) of its writable version — one touched node, and
    // under MVCC a reader sees the entry jump atomically.
    const uint64_t new_addr = HcAddressAt(new_key, pl);
    const uint64_t nord =
        new_addr == addr ? Node::kNoOrdinal : node.ptr->FindOrdinal(new_addr);
    if (nord != Node::kNoOrdinal && !node.ptr->OrdinalIsSub(nord) &&
        node.ptr->PostfixDivergence(nord, new_key) < 0) {
      return UpdateOutcome::kNewOccupied;
    }
    if (nord == Node::kNoOrdinal) {
      Edit edit(arena_.get());
      const NodeRef w = Writable(node, &edit);
      if (!w) {
        return UpdateOutcome::kNoMem;
      }
      if (new_addr == addr) {
        // Same slot, and that slot holds old_key itself — new_key cannot
        // exist anywhere else, so the rewrite is conflict-free.
        w.ptr->SetPostfixAt(ord, new_key);
        w.ptr->SetPayloadAt(ord, v);
      } else if (!w.ptr->TryRelocatePostfix(addr, new_addr, new_key, v)) {
        return UpdateOutcome::kNoMem;
      }
      if (!Commit(w, node, path, depth, &edit)) {
        return UpdateOutcome::kNoMem;
      }
      ++update_stats_.fast_path;
      return UpdateOutcome::kMoved;
    }
    // Otherwise new_addr holds a sub or a diverging postfix: the fallback
    // resolves the conflict through the insert itself.
  }

  // Insert-then-erase fallback, each commit-or-rollback. old_key is proven
  // present by the descent above, so the old-missing-beats-new-occupied
  // precedence holds, and a kNoop from the insert can only mean a different
  // entry already owns new_key (old != new here). Under MVCC readers may
  // transiently observe both keys — the documented relaxation for
  // structural moves.
  const OpStatus ins = InsertImpl(new_key, v, /*assign=*/false);
  if (ins == OpStatus::kNoMem) {
    return UpdateOutcome::kNoMem;
  }
  if (ins == OpStatus::kNoop) {
    return UpdateOutcome::kNewOccupied;
  }
  const OpStatus er = EraseImpl(old_key);
  if (er == OpStatus::kApplied) {
    ++update_stats_.fallback;
    return UpdateOutcome::kMoved;
  }
  // The erase needed an allocation (node merge) and failed: undo the
  // insert to restore the pre-call tree. The undo removes a postfix that
  // was just inserted; injected faults are suspended for it so the
  // rollback itself cannot be failed by the test harness (a genuine OOM
  // here is best-effort, like any destructor-time cleanup).
  assert(er == OpStatus::kNoMem);
  {
    FaultInjectorSuspend suspend;
    const OpStatus undo = EraseImpl(new_key);
    (void)undo;
    assert(undo == OpStatus::kApplied);
  }
  return UpdateOutcome::kNoMem;
}

void PhTree::ForEach(
    const std::function<void(const PhKey&, uint64_t)>& fn) const {
  PhKey key(dim_, 0);
  for (TreeCursor cursor(*this); cursor.Valid(); cursor.Next()) {
    const std::span<const uint64_t> k = cursor.key();
    std::copy(k.begin(), k.end(), key.begin());
    fn(key, cursor.value());
  }
}

PhTreeStats PhTree::ComputeStats() const {
  PhTreeStats stats;
  stats.n_entries = size_;
  if (root_) {
    StatsRec(root_.ptr, 1, &stats);
  }
  if (arena_ != nullptr) {
    // Exact, measured allocator state. Invariant (checked by the arena
    // tests): memory_bytes accumulated above plus retired-but-unreclaimed
    // bytes == arena_live_bytes (retired nodes are unreachable from the
    // root but still hold their slot and stream until their grace period
    // ends).
    stats.arena_slab_bytes = arena_->SlabBytes();
    stats.arena_live_bytes = arena_->LiveBytes();
    stats.arena_freelist_bytes = arena_->FreeListBytes();
    stats.arena_retired_bytes = arena_->RetiredBytes();
    stats.arena_retired_nodes = arena_->retired_nodes();
    stats.arena_reclaimed_nodes = arena_->reclaimed_nodes_total();
    if (arena_->epoch_manager() != nullptr) {
      stats.epoch = arena_->epoch_manager()->epoch();
    }
  }
  return stats;
}

void PhTree::StatsRec(const Node* node, size_t depth,
                      PhTreeStats* stats) const {
  ++stats->n_nodes;
  const uint64_t bytes = node->MemoryBytes();
  switch (node->repr()) {
    case Node::Repr::kHc:
      ++stats->n_hc_nodes;
      stats->hc_node_bytes += bytes;
      break;
    case Node::Repr::kBhc:
      ++stats->n_bhc_nodes;
      stats->bhc_node_bytes += bytes;
      break;
    case Node::Repr::kLhc:
      ++stats->n_lhc_nodes;
      stats->lhc_node_bytes += bytes;
      break;
  }
  stats->memory_bytes += bytes;
  stats->max_depth = std::max(stats->max_depth, depth);
  stats->sum_node_depth += depth;
  stats->infix_bits += static_cast<uint64_t>(node->infix_len()) * dim_;
  stats->n_postfix_entries += node->num_postfixes();
  for (uint64_t ord = node->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node->NextOrdinal(ord)) {
    if (node->OrdinalIsSub(ord)) {
      StatsRec(arena_->NodeAt(node->OrdinalSub(ord)), depth + 1, stats);
    }
  }
}

}  // namespace phtree
