// Internal (a,b)-tree flavour: a fanout-16 routing layer of separator
// keys built once over the key range, with fat 240 B leaves (the paper's
// ABtree node size) that hold up to 28 keys each and are replaced
// copy-on-write. Every mutation builds a fresh immutable leaf and
// publishes it with one CAS on the routing layer's leaf slot, retiring
// the old leaf — so updates are lock-free, every update churns one fat
// node through the reclaimer exactly like the paper's ABtree write path,
// and lookups race retirement with nothing but the Guard protecting the
// leaf hop. The routing layer is immutable after construction
// (rebalancing is elided — see docs/DATA_STRUCTURES.md for the fidelity
// caveats vs Brown's LLX/SCX ABtree).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ds/set.hpp"

namespace emr::ds {
namespace {

constexpr std::size_t kLeafCap = 28;   // keys per 240 B leaf
constexpr std::size_t kFanout = 16;    // routing-node fanout

struct LeafNode {
  smr::NodeHeader hdr;                 // 8
  std::uint64_t count;                 // 8
  std::uint64_t keys[kLeafCap];        // 224, sorted

  LeafNode() : count(0) {}
};
static_assert(sizeof(LeafNode) == 240);
static_assert(std::is_standard_layout_v<LeafNode>);

/// One routing node: separator keys over up to kFanout children. Interior
/// levels point at further routers; the last level indexes into the flat
/// leaf-slot array. Built once, never retired.
struct Router {
  bool leaf_level = false;
  std::uint32_t nkeys = 0;             // #children - 1 separators
  std::uint64_t sep[kFanout - 1] = {};
  Router* child[kFanout] = {};
  std::size_t first_slot = 0;          // leaf level: slots_[first_slot + i]
};

class AbTree final : public ConcurrentSet {
 public:
  AbTree(const SetConfig& cfg, smr::Reclaimer* r) : r_(r) {
    const std::uint64_t keyrange = std::max<std::uint64_t>(cfg.keyrange, 2);
    nslots_ = static_cast<std::size_t>((keyrange + kLeafCap - 1) / kLeafCap);
    slots_ = std::make_unique<std::atomic<LeafNode*>[]>(nslots_);
    for (std::size_t i = 0; i < nslots_; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
    root_ = build();
  }

  ~AbTree() override {
    // Single-threaded teardown; the cursor degrades gracefully when
    // the slot table is exhausted (destructors must not throw).
    smr::TeardownCursor td(*r_);
    for (std::size_t i = 0; i < nslots_; ++i) {
      LeafNode* leaf = slots_[i].load(std::memory_order_relaxed);
      if (leaf != nullptr) td.dealloc(leaf);
    }
  }

  bool insert(smr::ThreadHandle& h, std::uint64_t key) override {
    smr::Guard g(h);
    std::atomic<LeafNode*>& slot = route(key);
    for (;;) {
      if (!g.validate()) continue;  // slot is static: just re-protect
      LeafNode* old = g.protect(0, slot);
      if (old != nullptr && leaf_contains(*old, key)) return false;
      // Only out-of-contract keys (>= keyrange) can fill a leaf past the
      // 28 distinct in-segment values; refuse rather than overflow.
      if (old != nullptr && old->count >= kLeafCap) return false;
      LeafNode* fresh = smr::make_node<LeafNode>(h);
      if (old != nullptr) {
        std::copy(old->keys, old->keys + old->count, fresh->keys);
        fresh->count = old->count;
      }
      std::uint64_t* end = fresh->keys + fresh->count;
      std::uint64_t* at = std::lower_bound(fresh->keys, end, key);
      std::copy_backward(at, end, end + 1);
      *at = key;
      ++fresh->count;
      LeafNode* expected = old;
      if (slot.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel)) {
        if (old != nullptr) g.retire(old);
        return true;
      }
      r_->dealloc_unpublished(h, fresh);  // lost the CAS; rebuild
    }
  }

  bool erase(smr::ThreadHandle& h, std::uint64_t key) override {
    smr::Guard g(h);
    std::atomic<LeafNode*>& slot = route(key);
    for (;;) {
      if (!g.validate()) continue;
      LeafNode* old = g.protect(0, slot);
      if (old == nullptr || !leaf_contains(*old, key)) return false;
      LeafNode* fresh = nullptr;
      if (old->count > 1) {
        fresh = smr::make_node<LeafNode>(h);
        const std::uint64_t* okeys = old->keys;
        const std::uint64_t* oend = okeys + old->count;
        const std::uint64_t* oat = std::lower_bound(okeys, oend, key);
        std::uint64_t* out = std::copy(okeys, oat, fresh->keys);
        std::copy(oat + 1, oend, out);
        fresh->count = old->count - 1;
      }
      LeafNode* expected = old;
      if (slot.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel)) {
        g.retire(old);
        return true;
      }
      if (fresh != nullptr) r_->dealloc_unpublished(h, fresh);
    }
  }

  bool contains(smr::ThreadHandle& h, std::uint64_t key) override {
    smr::Guard g(h);
    std::atomic<LeafNode*>& slot = route(key);
    for (;;) {
      if (!g.validate()) continue;
      LeafNode* leaf = g.protect(0, slot);
      if (leaf == nullptr) return false;
      return leaf_contains(*leaf, key);
    }
  }

  const char* name() const override { return "abtree"; }
  std::size_t node_size() const override { return sizeof(LeafNode); }

 private:
  static bool leaf_contains(const LeafNode& leaf, std::uint64_t key) {
    const std::uint64_t* end = leaf.keys + leaf.count;
    return std::binary_search(leaf.keys, end, key);
  }

  /// Builds the routing layer bottom-up at full fanout: each leaf-level
  /// router covers 16 consecutive slots, each level above groups 16
  /// routers, and each separator is the first key of the child to its
  /// right. Returns the root.
  Router* build() {
    std::vector<Router*> level;
    for (std::size_t lo = 0; lo < nslots_; lo += kFanout) {
      Router* n = new_router();
      n->leaf_level = true;
      n->first_slot = lo;
      n->nkeys = static_cast<std::uint32_t>(
          std::min(kFanout, nslots_ - lo) - 1);
      for (std::uint32_t i = 0; i < n->nkeys; ++i) {
        n->sep[i] = static_cast<std::uint64_t>(lo + i + 1) * kLeafCap;
      }
      level.push_back(n);
    }
    while (level.size() > 1) {
      std::vector<Router*> up;
      for (std::size_t lo = 0; lo < level.size(); lo += kFanout) {
        Router* n = new_router();
        const std::size_t nchildren = std::min(kFanout, level.size() - lo);
        for (std::size_t i = 0; i < nchildren; ++i) {
          n->child[i] = level[lo + i];
        }
        n->nkeys = static_cast<std::uint32_t>(nchildren - 1);
        for (std::uint32_t i = 0; i < n->nkeys; ++i) {
          n->sep[i] = first_key(n->child[i + 1]);
        }
        up.push_back(n);
      }
      level = std::move(up);
    }
    return level.front();
  }

  Router* new_router() {
    routers_.push_back(std::make_unique<Router>());
    return routers_.back().get();
  }

  static std::uint64_t first_key(const Router* n) {
    while (!n->leaf_level) n = n->child[0];
    return static_cast<std::uint64_t>(n->first_slot) * kLeafCap;
  }

  /// Separator walk from the root to the leaf slot covering `key`. The
  /// routing layer is immutable, so these hops are plain reads; the leaf
  /// slot the caller protects through is the only retire-able hop.
  std::atomic<LeafNode*>& route(std::uint64_t key) {
    Router* n = root_;
    for (;;) {
      std::uint32_t i = 0;
      while (i < n->nkeys && key >= n->sep[i]) ++i;
      if (n->leaf_level) return slots_[n->first_slot + i];
      n = n->child[i];
    }
  }

  smr::Reclaimer* r_;
  std::size_t nslots_;
  std::unique_ptr<std::atomic<LeafNode*>[]> slots_;
  std::vector<std::unique_ptr<Router>> routers_;
  Router* root_;
};

}  // namespace

std::unique_ptr<ConcurrentSet> make_abtree(const SetConfig& cfg,
                                           smr::Reclaimer* r) {
  return std::make_unique<AbTree>(cfg, r);
}

std::size_t abtree_node_size() { return sizeof(LeafNode); }

}  // namespace emr::ds
