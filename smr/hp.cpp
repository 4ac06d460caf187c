// Classic hazard pointers (Michael, "Hazard Pointers: Safe Memory
// Reclamation for Lock-Free Objects", TPDS 2004). Each thread owns K
// single-writer hazard slots; protect() publishes the loaded pointer
// into a slot, fences, and re-reads the source until the publication is
// known to have been visible while the pointer was still reachable.
// Retired nodes collect in a per-thread list; once the list reaches the
// scan threshold the thread snapshots every slot in the system and hands
// the unprotected suffix to the FreeExecutor as one bag — so the
// paper's batch/amortized/pooling free schedules apply to HP retires
// exactly as they do to epoch bags.
//
// Churn: a departing handle nulls its hazard slots (nothing it ever
// protected stays pinned) and runs one departure scan over its retire
// list whose freeable part drains through the executor's on_adopted()
// path — at the FreeSchedule quota per op — instead of one batch free;
// survivors still hazarded by other threads park in the slot for the
// next owner's scans (or flush_all).
//
// Batching policy: the scan threshold comes from the FreeSchedule
// (fixed = the configured batch, adaptive = prorated by the registered
// population), floored at Michael's H+1 bound; this TU never reads the
// config's batching knobs.
#include <algorithm>
#include <atomic>
#include <vector>

#include "core/timing.hpp"
#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

struct alignas(64) HpThread {
  std::unique_ptr<std::atomic<void*>[]> slots;
  std::vector<void*> retired;
  // Next retired-list size that triggers a scan; grows past the base
  // threshold while every candidate stays protected so a pinned scan
  // cannot degenerate into O(n) work per retire.
  std::size_t scan_at = 0;
};

class HpReclaimer final : public Reclaimer {
 public:
  HpReclaimer(const SmrContext& ctx, const SmrConfig& cfg,
              FreeExecutor* executor)
      : Reclaimer(cfg, executor),
        ctx_(ctx),
        nlanes_(cfg.slot_capacity()),
        // Floor of 2: the ds/ traversals alternate two slots so the
        // previous hop stays protected while the next one publishes.
        nslots_(std::max<std::size_t>(cfg.hp_slots, 2)),
        threads_(cfg.slot_capacity()) {
    const std::size_t threshold = scan_threshold();
    for (HpThread& t : threads_) {
      t.slots = std::make_unique<std::atomic<void*>[]>(nslots_);
      for (std::size_t i = 0; i < nslots_; ++i) {
        t.slots[i].store(nullptr, std::memory_order_relaxed);
      }
      t.retired.reserve(threshold);
      t.scan_at = threshold;
    }
  }

  ~HpReclaimer() override { flush_all(); }

  void flush_all() override {
    for (HpThread& t : threads_) {
      for (std::size_t i = 0; i < nslots_; ++i) {
        t.slots[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    const std::size_t threshold = scan_threshold();
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      HpThread& t = threads_[i];
      const int lane = static_cast<int>(i);
      if (!t.retired.empty()) {
        executor_->on_reclaimable(lane, std::move(t.retired));
        t.retired = {};
        t.scan_at = threshold;
      }
      executor_->quiesce(lane);
    }
  }

  const char* name() const override { return "hp"; }
  const char* family() const override { return "hp"; }

 protected:
  std::uint64_t progress_beats() const override {
    return scans_.load(std::memory_order_relaxed);
  }

  void begin_op_slot(int) override {}

  void end_op_slot(int slot_idx) override {
    HpThread& t = slot(slot_idx);
    for (std::size_t i = 0; i < nslots_; ++i) {
      if (t.slots[i].load(std::memory_order_relaxed) != nullptr) {
        t.slots[i].store(nullptr, std::memory_order_release);
      }
    }
    executor_->on_op_end(slot_idx);
  }

  void* protect_slot(int slot_idx, int idx, LoadFn load,
                     const void* src) override {
    HpThread& t = slot(slot_idx);
    std::atomic<void*>& hp =
        t.slots[static_cast<std::size_t>(idx < 0 ? 0 : idx) % nslots_];
    void* p = load(src);
    for (;;) {
      hp.store(p, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      void* q = load(src);
      if (q == p) return p;  // publication was visible while p was live
      p = q;
    }
  }

  void retire_slot(int slot_idx, void* p) override {
    HpThread& t = slot(slot_idx);
    t.retired.push_back(p);
    if (t.retired.size() >= t.scan_at) scan(slot_idx, t);
  }

  void* alloc_node_slot(int slot_idx, std::size_t size) override {
    return executor_->alloc_node(slot_idx, size);
  }

  void dealloc_unpublished_slot(int slot_idx, void* p) override {
    ctx_.allocator->deallocate(slot_idx, p);
  }

  /// Departure: drop every hazard publication, then one scan hands the
  /// unprotected retires to the executor's adoption path (drained at
  /// the schedule's quota, never one burst); still-hazarded survivors
  /// park in the slot for the successor's scans.
  void on_slot_deregister(int slot_idx) override {
    HpThread& t = slot(slot_idx);
    for (std::size_t i = 0; i < nslots_; ++i) {
      if (t.slots[i].load(std::memory_order_relaxed) != nullptr) {
        t.slots[i].store(nullptr, std::memory_order_release);
      }
    }
    if (!t.retired.empty()) scan(slot_idx, t, /*departing=*/true);
  }

 private:
  HpThread& slot(int slot_idx) {
    const std::size_t i = static_cast<std::size_t>(slot_idx);
    return threads_[i < threads_.size() ? i : 0];
  }

  /// Scan threshold from the free-schedule policy, floored at Michael's
  /// R bound: a scan can only free anything once the list exceeds the
  /// total hazard count H = N*K.
  std::size_t scan_threshold() const {
    return std::max<std::size_t>(
        executor_->schedule().scan_threshold(active_slots()),
        nlanes_ * nslots_ + 1);
  }

  /// Snapshot every hazard slot, hand the unprotected retires to the
  /// executor, keep the protected ones for the next scan.
  void scan(int slot_idx, HpThread& t, bool departing = false) {
    std::vector<void*> hazards;
    hazards.reserve(nlanes_ * nslots_);
    for (const HpThread& th : threads_) {
      for (std::size_t i = 0; i < nslots_; ++i) {
        void* h = th.slots[i].load(std::memory_order_acquire);
        if (h != nullptr) hazards.push_back(h);
      }
    }
    std::sort(hazards.begin(), hazards.end());

    std::vector<void*> bag;
    std::vector<void*> keep;
    bag.reserve(t.retired.size());
    for (void* p : t.retired) {
      if (std::binary_search(hazards.begin(), hazards.end(), p)) {
        keep.push_back(p);
      } else {
        bag.push_back(p);
      }
    }
    t.retired = std::move(keep);
    t.scan_at = next_scan_at(scan_threshold(), t.retired.size());

    const std::uint64_t beat =
        scans_.fetch_add(1, std::memory_order_relaxed) + 1;
    record_progress_beat(*this, ctx_, slot_idx, beat);
    if (!bag.empty()) {
      executor_->hand_over(slot_idx, departing, std::move(bag));
    }
  }

  SmrContext ctx_;
  std::size_t nlanes_;
  std::size_t nslots_;
  std::vector<HpThread> threads_;
  std::atomic<std::uint64_t> scans_{0};
};

}  // namespace

std::unique_ptr<Reclaimer> make_hp(const SmrContext& ctx,
                                   const SmrConfig& cfg,
                                   FreeExecutor* executor) {
  return std::make_unique<HpReclaimer>(ctx, cfg, executor);
}

}  // namespace emr::smr::internal
