// Epoch-based reclamation family: DEBRA (amortized epoch checks,
// per-thread limbo bags), QSBR/RCU (quiescent-state announcement, no
// fences), and the leaking "none" baseline. Reads are plain loads — the
// begin_op/end_op bracket is the protection. The pointer-protecting
// schemes that used to alias this machinery live in their own
// translation units now (smr/hp.cpp, smr/he_ibr_wfe.cpp, smr/nbr.cpp).
//
// Grace periods on demand: an epoch advance only matters because it
// lets a sealed bag be freed, so the every-16th-op advance attempt runs
// only while some sealed bag waits for grace. One bundle-wide count of
// waiting bags, on its own cache line, is written once at seal and once
// when the bag leaves for the executor (before the hand-over, so a
// batch free's burst does not keep the others advancing); with nothing
// waiting, an op end reads no other thread's announcement. The
// seal-time and departure attempts are unconditional.
//
// Churn: a departing handle clears its announcement (so it can never pin
// the epoch again), seals its bag and drains whatever grace already
// allows; sealed bags that are still too young stay parked in the slot,
// stamped with their seal epoch, and the slot's next owner adopts them
// on registration (flush_all drains vacant slots at teardown). Every bag
// a departing thread leaves behind is marked adopted: when grace later
// admits it, it goes through the executor's on_adopted() path and drains
// at the FreeSchedule quota over the successor's next ops instead of in
// one free burst.
//
// Batching policy: the bag-seal threshold comes from the FreeSchedule
// (fixed = the configured batch, adaptive = prorated by the registered
// population); this TU never reads the config's batching knobs.
#include <algorithm>
#include <atomic>
#include <deque>
#include <vector>

#include "core/timing.hpp"
#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

constexpr std::uint64_t kAdvanceEveryOps = 16;

struct SealedBag {
  std::uint64_t epoch = 0;
  bool adopted = false;  // left behind by a departed generation
  std::vector<void*> nodes;
};

struct alignas(64) EbrSlot {
  // (epoch << 1) | active. Inactive threads never block an advance.
  std::atomic<std::uint64_t> announce{0};
  // Owner-private bookkeeping starts on its own cache line: every
  // advance scan reads every slot's announce, and the owner rewrites
  // bag/ops on every retire — sharing the line would bounce it across
  // the whole population once per epoch check.
  alignas(64) std::vector<void*> bag;
  std::deque<SealedBag> sealed;
  std::uint64_t ops = 0;
};
static_assert(alignof(EbrSlot) == 64 && sizeof(EbrSlot) % 64 == 0,
              "EbrSlot must tile cache lines so announce never shares "
              "one with a neighbour slot");

class EbrReclaimer final : public Reclaimer {
 public:
  EbrReclaimer(const EbrOptions& opt, const SmrContext& ctx,
               const SmrConfig& cfg, FreeExecutor* executor)
      : Reclaimer(cfg, executor),
        opt_(opt),
        ctx_(ctx),
        slots_(cfg.slot_capacity()) {
    seal_threshold_.store(compute_seal_threshold(),
                          std::memory_order_relaxed);
  }

  ~EbrReclaimer() override { flush_all(); }

  void flush_all() override {
    for (std::size_t t = 0; t < slots_.size(); ++t) {
      EbrSlot& s = slots_[t];
      seal(s);
      while (!s.sealed.empty()) {
        waiting_bags_.fetch_sub(1, std::memory_order_relaxed);
        executor_->on_reclaimable(static_cast<int>(t),
                                  std::move(s.sealed.front().nodes));
        s.sealed.pop_front();
      }
      executor_->quiesce(static_cast<int>(t));
    }
  }

  const char* name() const override { return opt_.name; }
  const char* family() const override { return "ebr"; }

 protected:
  std::uint64_t progress_beats() const override {
    return epochs_advanced_.load(std::memory_order_relaxed);
  }

  void begin_op_slot(int slot_idx) override {
    EbrSlot& s = slot(slot_idx);
    if (opt_.quiescent) {
      const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
      s.announce.store((e << 1) | 1, std::memory_order_relaxed);
    } else {
      const std::uint64_t e = epoch_.load(std::memory_order_acquire);
      s.announce.store((e << 1) | 1, std::memory_order_seq_cst);
    }
  }

  void end_op_slot(int slot_idx) override {
    EbrSlot& s = slot(slot_idx);
    s.announce.store(s.announce.load(std::memory_order_relaxed) & ~1ULL,
                     opt_.quiescent ? std::memory_order_relaxed
                                    : std::memory_order_release);
    if (++s.ops % kAdvanceEveryOps == 0 &&
        waiting_bags_.load(std::memory_order_relaxed) != 0) {
      try_advance(slot_idx);
    }
    if (!opt_.leak) collect_safe(slot_idx, s);
    executor_->on_op_end(slot_idx);
  }

  void* protect_slot(int, int, LoadFn load, const void* src) override {
    return load(src);  // epoch-class scheme: reads need no publication
  }

  void retire_slot(int slot_idx, void* p) override {
    EbrSlot& s = slot(slot_idx);
    s.bag.push_back(p);
    if (s.bag.size() >= seal_threshold()) {
      seal(s);
      try_advance(slot_idx);
    }
  }

  void* alloc_node_slot(int slot_idx, std::size_t size) override {
    return executor_->alloc_node(slot_idx, size);
  }

  void dealloc_unpublished_slot(int slot_idx, void* p) override {
    ctx_.allocator->deallocate(slot_idx, p);
  }

  /// Generation hand-off: the incoming thread adopts its predecessor's
  /// parked bags, draining the ones whose grace has already elapsed.
  void on_slot_register(int slot_idx) override {
    if (!opt_.leak) collect_safe(slot_idx, slot(slot_idx));
  }

  void on_population_change(std::size_t) override {
    seal_threshold_.store(compute_seal_threshold(),
                          std::memory_order_relaxed);
  }

  /// Departure: the announcement drops (a vacated slot can never hold
  /// an epoch back), the open bag is sealed, and every parked bag is
  /// marked adopted — whenever grace admits it, it drains at the
  /// schedule's quota over the successor's ops, never in one burst.
  void on_slot_deregister(int slot_idx) override {
    EbrSlot& s = slot(slot_idx);
    s.announce.store(0, std::memory_order_release);
    seal(s);
    for (SealedBag& b : s.sealed) b.adopted = true;
    if (!opt_.leak) {
      try_advance(slot_idx);
      collect_safe(slot_idx, s);
    }
  }

 private:
  EbrSlot& slot(int slot_idx) {
    const std::size_t i = static_cast<std::size_t>(slot_idx);
    return slots_[i < slots_.size() ? i : 0];
  }

  /// Bag size that seals the open bag. The policy answer only moves on
  /// population beats, so it is cached out of the per-retire path and
  /// refreshed by on_population_change (the adaptive schedule's only
  /// input besides the config is the registered population).
  std::size_t seal_threshold() const {
    return seal_threshold_.load(std::memory_order_relaxed);
  }

  std::size_t compute_seal_threshold() const {
    return std::max<std::size_t>(
        executor_->schedule().scan_threshold(active_slots()), 1);
  }

  void seal(EbrSlot& s) {
    if (s.bag.empty()) return;
    const std::size_t sealed_size = s.bag.size();
    s.sealed.push_back(SealedBag{epoch_.load(std::memory_order_relaxed),
                                 /*adopted=*/false, std::move(s.bag)});
    s.bag = {};
    s.bag.reserve(sealed_size);
    waiting_bags_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Hands every bag two epochs behind the global epoch to the executor
  /// (adopted bags through the amortizing adoption path). Each bag stops
  /// counting as waiting before its hand-over: a batch executor frees it
  /// in place, and the other threads need no advance meanwhile.
  void collect_safe(int slot_idx, EbrSlot& s) {
    if (s.sealed.empty()) return;
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    while (!s.sealed.empty() && s.sealed.front().epoch + 2 <= e) {
      waiting_bags_.fetch_sub(1, std::memory_order_relaxed);
      executor_->hand_over(slot_idx, s.sealed.front().adopted,
                           std::move(s.sealed.front().nodes));
      s.sealed.pop_front();
    }
  }

  void try_advance(int slot_idx) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    for (const EbrSlot& s : slots_) {
      const std::uint64_t a = s.announce.load(std::memory_order_acquire);
      if ((a & 1) != 0 && (a >> 1) != e) return;  // active in an old epoch
    }
    std::uint64_t expected = e;
    if (epoch_.compare_exchange_strong(expected, e + 1,
                                       std::memory_order_acq_rel)) {
      epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
      record_progress_beat(*this, ctx_, slot_idx, e + 1);
    }
  }

  EbrOptions opt_;
  SmrContext ctx_;
  std::vector<EbrSlot> slots_;
  std::atomic<std::size_t> seal_threshold_{1};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> epochs_advanced_{0};
  // Sealed bags not yet handed to the executor, parked ones included.
  // Per-bag writes only; every 16th op end reads it.
  alignas(64) std::atomic<std::uint64_t> waiting_bags_{0};
};

}  // namespace

std::unique_ptr<Reclaimer> make_ebr(const EbrOptions& opt,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor* executor) {
  return std::make_unique<EbrReclaimer>(opt, ctx, cfg, executor);
}

}  // namespace emr::smr::internal
