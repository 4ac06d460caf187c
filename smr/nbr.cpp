// Neutralization-based reclamation (Singh, Brown & Mashtizadeh,
// "NBR: Neutralization Based Reclamation", PPoPP 2021). Readers run
// inside restartable read blocks and announce the era their block
// started at; reads themselves are plain loads. A reclaiming thread
// whose retire list fills "neutralizes" the readers — the original
// delivers a POSIX signal whose handler longjmps back to the top of the
// read block; this reproduction raises a per-thread flag that the
// reader's next protect() honours by restarting its announcement at the
// current era. A retired node is handed to the FreeExecutor once every
// active announcement is newer than the node's retire era, so an
// unresponsive reader (one that never calls validate again) is never
// yanked.
//
// Restart contract: exactly as after the original's longjmp, a restart
// invalidates every pointer obtained earlier in the read block. The
// restart lives in validate(), not protect(): protect() is a plain load
// that never moves the announcement, and a traversal polls validate()
// once per hop — false means the thread was neutralized, the
// announcement has been re-entered at the current era, and the caller
// must drop every pointer it holds and re-traverse from a structure
// root (exactly what the ds/ traversal loops do). Keeping the restart
// out of protect() means a neutralization can never silently invalidate
// the very pointer a protect() call is about to return — the flag-based
// approximation's footgun in the previous revision. A reader that never
// polls validate() simply keeps its old announcement and blocks
// reclamation, which is safe. See docs/SMR_SCHEMES.md.
//
//   nbr     - neutralize on every scan (each time the list reaches the
//             batch threshold), like the original's per-full-list
//             signal burst.
//   nbrplus - NBR+'s reduced signalling: scans at the batch threshold
//             reclaim whatever grace already allows, and only a list at
//             twice the threshold forces a neutralization round.
//
// Churn: a departing handle drops its announcement (a vacated slot never
// blocks grace) and runs a departure scan whose freeable part drains
// through the executor's on_adopted() path — at the FreeSchedule quota
// per op — instead of one batch free; neutralize_all already skips
// slots with no announcement, so vacant slots are never "signalled".
//
// Batching policy: the retire-list scan threshold comes from the
// FreeSchedule (fixed = the configured batch, adaptive = prorated by
// the registered population); this TU never reads the config's batching
// knobs.
#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "core/timing.hpp"
#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

struct RetiredNode {
  void* p;
  std::uint64_t retire;
};

struct alignas(64) NbrThread {
  // Era at the top of the current read block; 0 = not in an operation.
  std::atomic<std::uint64_t> start{0};
  // Raised by reclaimers; the next protect() restarts the read block.
  std::atomic<bool> neutralize{false};
  // Owner-private bookkeeping on its own line: scanners read start and
  // write neutralize on every reclaim pass, while the owner appends to
  // retired on every retire — keep the ping-pong off the retire path.
  alignas(64) std::vector<RetiredNode> retired;
  std::size_t scan_at = 0;
  std::uint64_t allocs = 0;
};
static_assert(alignof(NbrThread) == 64 && sizeof(NbrThread) % 64 == 0,
              "NbrThread must tile cache lines so start/neutralize never "
              "share one with a neighbour slot");

class NbrReclaimer final : public Reclaimer {
 public:
  NbrReclaimer(bool plus, const SmrContext& ctx, const SmrConfig& cfg,
               FreeExecutor* executor)
      : Reclaimer(cfg, executor),
        name_(plus ? "nbrplus" : "nbr"),
        plus_(plus),
        ctx_(ctx),
        epoch_freq_(std::max<std::size_t>(cfg.epoch_freq, 1)),
        threads_(cfg.slot_capacity()) {
    const std::size_t threshold = scan_threshold();
    for (NbrThread& t : threads_) {
      t.retired.reserve(threshold);
      t.scan_at = threshold;
    }
  }

  ~NbrReclaimer() override { flush_all(); }

  void begin_op_slot(int tid) override {
    NbrThread& t = slot(tid);
    t.neutralize.store(false, std::memory_order_relaxed);
    t.start.store(era_.load(std::memory_order_acquire),
                  std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void end_op_slot(int tid) override {
    NbrThread& t = slot(tid);
    t.start.store(0, std::memory_order_release);
    executor_->on_op_end(tid);
  }

  void* protect_slot(int, int, LoadFn load, const void* src) override {
    return load(src);  // reads are plain; the announcement is the shield
  }

  bool validate_slot(int tid) override {
    NbrThread& t = slot(tid);
    if (!t.neutralize.load(std::memory_order_relaxed)) return true;
    // Restart the read block: drop the old announcement and re-enter at
    // the current era (the signal handler's longjmp analogue). Every
    // pointer the caller obtained earlier in this block is now invalid.
    t.neutralize.store(false, std::memory_order_relaxed);
    t.start.store(era_.load(std::memory_order_acquire),
                  std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    neutralized_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void retire_slot(int tid, void* p) override {
    NbrThread& t = slot(tid);
    t.retired.push_back(
        RetiredNode{p, era_.load(std::memory_order_acquire)});
    if (t.retired.size() < t.scan_at) return;
    // nbr neutralizes on every full list; nbrplus lets grace do the work
    // at the low watermark and only signals at twice the threshold.
    if (!plus_ || t.retired.size() >= 2 * scan_threshold()) {
      neutralize_all(tid);
    }
    scan(tid, t);
  }

  void* alloc_node_slot(int tid, std::size_t size) override {
    NbrThread& t = slot(tid);
    if (++t.allocs % epoch_freq_ == 0) advance_era(tid);
    return executor_->alloc_node(tid, size);
  }

  void dealloc_unpublished_slot(int tid, void* p) override {
    ctx_.allocator->deallocate(tid, p);
  }

  /// Departure: the announcement drops (a vacated slot never blocks
  /// grace again) and one scan drains every retire older than the
  /// remaining announcements through the executor's adoption path (at
  /// the schedule's quota per op); the rest parks for the successor.
  void on_slot_deregister(int tid) override {
    NbrThread& t = slot(tid);
    t.start.store(0, std::memory_order_release);
    t.neutralize.store(false, std::memory_order_relaxed);
    if (!t.retired.empty()) scan(tid, t, /*departing=*/true);
  }

  void flush_all() override {
    for (NbrThread& t : threads_) {
      t.start.store(0, std::memory_order_relaxed);
      t.neutralize.store(false, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      NbrThread& t = threads_[i];
      const int tid = static_cast<int>(i);
      if (!t.retired.empty()) {
        std::vector<void*> bag;
        bag.reserve(t.retired.size());
        for (const RetiredNode& n : t.retired) bag.push_back(n.p);
        t.retired.clear();
        t.scan_at = scan_threshold();
        executor_->on_reclaimable(tid, std::move(bag));
      }
      executor_->quiesce(tid);
    }
  }

  std::uint64_t progress_beats() const override {
    return era_.load(std::memory_order_relaxed) - 1;
  }

  const char* name() const override { return name_; }
  const char* family() const override { return "nbr"; }

  std::uint64_t neutralizations() const {
    return neutralized_.load(std::memory_order_relaxed);
  }

 private:
  NbrThread& slot(int tid) {
    const std::size_t i = static_cast<std::size_t>(tid);
    return threads_[i < threads_.size() ? i : 0];
  }

  /// Retire-list scan threshold, asked of the free-schedule policy with
  /// the live population.
  std::size_t scan_threshold() const {
    return std::max<std::size_t>(
        executor_->schedule().scan_threshold(active_slots()), 1);
  }

  void neutralize_all(int tid) {
    advance_era(tid);
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (static_cast<int>(i) == tid) continue;
      NbrThread& t = threads_[i];
      if (t.start.load(std::memory_order_acquire) != 0) {
        t.neutralize.store(true, std::memory_order_release);
      }
    }
  }

  /// Frees every node retired strictly before the oldest active read
  /// block's announcement.
  void scan(int tid, NbrThread& t, bool departing = false) {
    std::uint64_t min_active = std::numeric_limits<std::uint64_t>::max();
    for (const NbrThread& th : threads_) {
      const std::uint64_t s = th.start.load(std::memory_order_acquire);
      if (s != 0) min_active = std::min(min_active, s);
    }
    std::vector<void*> bag;
    std::vector<RetiredNode> keep;
    bag.reserve(t.retired.size());
    for (const RetiredNode& n : t.retired) {
      if (n.retire < min_active) {
        bag.push_back(n.p);
      } else {
        keep.push_back(n);
      }
    }
    t.retired = std::move(keep);
    t.scan_at = next_scan_at(scan_threshold(), t.retired.size());
    if (!bag.empty()) executor_->hand_over(tid, departing, std::move(bag));
  }

  void advance_era(int tid) {
    const std::uint64_t e =
        era_.fetch_add(1, std::memory_order_acq_rel) + 1;
    record_progress_beat(*this, ctx_, tid, e);
  }

  const char* name_;
  bool plus_;
  SmrContext ctx_;
  std::size_t epoch_freq_;
  std::vector<NbrThread> threads_;
  std::atomic<std::uint64_t> era_{1};
  std::atomic<std::uint64_t> neutralized_{0};
};

}  // namespace

std::unique_ptr<Reclaimer> make_nbr(bool plus, const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor* executor) {
  return std::make_unique<NbrReclaimer>(plus, ctx, cfg, executor);
}

}  // namespace emr::smr::internal
