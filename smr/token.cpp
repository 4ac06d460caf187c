// Token-EBR family (the paper's section 5 progression). A single token
// circulates among the *registered* slots; holding it proves every other
// thread has quiesced since the previous visit, so a bag sealed at pass
// p is safe once enough further passes have happened for two full
// rotations. The variants differ only in the free schedule the holder
// runs:
//
//   token_naive     - the holder frees EVERY thread's safe bags before
//                     passing: frees serialize on one thread, rotations
//                     stall, and garbage piles up without bound (Fig 6).
//   token_passfirst - pass first, then free your own safe bags: frees are
//                     concurrent again, but still arbitrarily large
//                     batches (Fig 7).
//   token           - pass first, free at most one bag per receipt: the
//                     periodic variant (Fig 8).
//   token_af        - token_passfirst's policy over the amortized
//                     executor: per-op drains, no pile-up (Fig 9).
//
// Churn: pass_token routes to the next *active* slot, so a vacated slot
// is skipped instead of stalling the rotation forever; if the token is
// parked on a slot whose owner departed (or the departing holder loses
// the hand-off race), any active thread's next end_op adopts it with a
// CAS. A departing handle seals its bag, drains what is already safe and
// parks the rest for the slot's successor (or flush_all); every bag the
// departing thread leaves behind is marked adopted and later drains
// through the executor's on_adopted() path — at the FreeSchedule quota
// per op — instead of in one burst.
//
// Batching policy: the bag-seal threshold comes from the FreeSchedule
// (fixed = the configured batch, adaptive = prorated by the registered
// population); this TU never reads the config's batching knobs.
#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <vector>

#include "core/timing.hpp"
#include "smr/internal.hpp"

namespace emr::smr::internal {
namespace {

struct SealedBag {
  std::uint64_t pass = 0;
  bool adopted = false;  // left behind by a departed generation
  std::vector<void*> nodes;
};

struct alignas(64) TokenSlot {
  std::mutex mu;  // naive's holder drains other threads' queues
  std::vector<void*> bag;
  std::deque<SealedBag> sealed;
};

class TokenReclaimer final : public Reclaimer {
 public:
  TokenReclaimer(const TokenOptions& opt, const SmrContext& ctx,
                 const SmrConfig& cfg, FreeExecutor* executor)
      : Reclaimer(cfg, executor),
        opt_(opt),
        ctx_(ctx),
        nlanes_(static_cast<int>(cfg.slot_capacity())),
        slots_(cfg.slot_capacity()) {
    seal_threshold_.store(compute_seal_threshold(),
                          std::memory_order_relaxed);
  }

  ~TokenReclaimer() override { flush_all(); }

  void flush_all() override {
    for (std::size_t t = 0; t < slots_.size(); ++t) {
      TokenSlot& s = slots_[t];
      std::lock_guard<std::mutex> lock(s.mu);
      seal(s);
      while (!s.sealed.empty()) {
        executor_->on_reclaimable(static_cast<int>(t),
                                  std::move(s.sealed.front().nodes));
        s.sealed.pop_front();
      }
      executor_->quiesce(static_cast<int>(t));
    }
  }

  const char* name() const override { return opt_.name; }
  const char* family() const override { return "token"; }

 protected:
  std::uint64_t progress_beats() const override {
    return passes_.load(std::memory_order_relaxed) /
           static_cast<std::uint64_t>(nlanes_);
  }

  void begin_op_slot(int) override {}

  void end_op_slot(int slot_idx) override {
    std::uint64_t word = holder_.load(std::memory_order_acquire);
    if (holder_slot(word) == slot_idx) {
      on_token(slot_idx, word);
    } else if (!slot_active(holder_slot(word))) {
      // The token is parked on a vacated slot (its owner deregistered
      // after the hand-off landed, or the departing holder found nobody
      // active). Adopt it so the rotation never stalls. Every holder
      // transition bumps the word's version through a CAS, so a stale
      // observation — the parked slot re-registered and its new owner
      // took the fast path above — loses here rather than minting a
      // second token.
      const std::uint64_t adopted = holder_word(word, slot_idx);
      if (holder_.compare_exchange_strong(word, adopted,
                                          std::memory_order_acq_rel)) {
        on_token(slot_idx, adopted);
      }
    }
    executor_->on_op_end(slot_idx);
  }

  void* protect_slot(int, int, LoadFn load, const void* src) override {
    return load(src);  // epoch-class scheme: reads need no publication
  }

  void retire_slot(int slot_idx, void* p) override {
    TokenSlot& s = slot(slot_idx);
    const std::size_t threshold = seal_threshold();
    std::lock_guard<std::mutex> lock(s.mu);
    s.bag.push_back(p);
    if (s.bag.size() >= threshold) seal(s);
  }

  void* alloc_node_slot(int slot_idx, std::size_t size) override {
    return executor_->alloc_node(slot_idx, size);
  }

  void dealloc_unpublished_slot(int slot_idx, void* p) override {
    ctx_.allocator->deallocate(slot_idx, p);
  }

  /// Departure: seal, mark every parked bag adopted (so whenever grace
  /// admits it, it drains at the schedule's quota over the successor's
  /// ops), drain what's already safe through the same amortizing path,
  /// and hand the token onward if this slot holds it (a racing adopter
  /// may win the CAS instead — either way it moves). The hand-off is a
  /// transfer, not a quiesce: passes_ stays put.
  void on_population_change(std::size_t) override {
    seal_threshold_.store(compute_seal_threshold(),
                          std::memory_order_relaxed);
  }

  void on_slot_deregister(int slot_idx) override {
    TokenSlot& s = slot(slot_idx);
    {
      std::lock_guard<std::mutex> lock(s.mu);
      seal(s);
      for (SealedBag& b : s.sealed) b.adopted = true;
    }
    const std::uint64_t pass_now = passes_.load(std::memory_order_relaxed);
    for (SealedBag& b : take_safe(s, pass_now, 0)) {
      hand_over(slot_idx, std::move(b));
    }
    std::uint64_t word = holder_.load(std::memory_order_acquire);
    const int next = next_active(slot_idx);
    if (holder_slot(word) == slot_idx && next != slot_idx) {
      holder_.compare_exchange_strong(word, holder_word(word, next),
                                      std::memory_order_acq_rel);
    }
  }

 private:
  TokenSlot& slot(int slot_idx) {
    const std::size_t i = static_cast<std::size_t>(slot_idx);
    return slots_[i < slots_.size() ? i : 0];
  }

  /// Bag size that seals the open bag. The policy answer only moves on
  /// population beats, so it is cached out of the per-retire path and
  /// refreshed by on_population_change.
  std::size_t seal_threshold() const {
    return seal_threshold_.load(std::memory_order_relaxed);
  }

  std::size_t compute_seal_threshold() const {
    return std::max<std::size_t>(
        executor_->schedule().scan_threshold(active_slots()), 1);
  }

  void seal(TokenSlot& s) {
    if (s.bag.empty()) return;
    const std::size_t sealed_size = s.bag.size();
    s.sealed.push_back(SealedBag{passes_.load(std::memory_order_relaxed),
                                 /*adopted=*/false, std::move(s.bag)});
    s.bag = {};
    s.bag.reserve(sealed_size);
  }

  /// Routes one safe bag to the executor: adopted bags through the
  /// amortizing adoption path, fresh ones straight to the schedule.
  void hand_over(int slot_idx, SealedBag&& b) {
    executor_->hand_over(slot_idx, b.adopted, std::move(b.nodes));
  }

  /// A bag is safe once 2 * slot_capacity passes have elapsed since its
  /// seal: the ring visits every active slot at least twice in that
  /// window (each pass goes to the next active slot in ring order), a
  /// pass is a quiesce point, and threads registered after the seal are
  /// fresh — they cannot reach a node that was already unlinked.
  bool safe(const SealedBag& b, std::uint64_t pass_now) const {
    return b.pass + 2 * static_cast<std::uint64_t>(nlanes_) <= pass_now;
  }

  /// Next registered slot after `from` in ring order; `from` itself when
  /// no other slot is active (the token then parks until an adopter).
  int next_active(int from) const {
    for (int i = 1; i <= nlanes_; ++i) {
      const int c = (from + i) % nlanes_;
      if (slot_active(c)) return c;
    }
    return from;
  }

  // The holder word packs (version << 32) | slot; every transition —
  // pass, adoption, departure hand-off — bumps the version through one
  // CAS, so exactly one of any set of racing transfers wins and
  // passes_ counts each genuine hand-off once. safe()'s grace bound
  // rests on that count being honest.
  static int holder_slot(std::uint64_t word) {
    return static_cast<int>(word & 0xffffffffULL);
  }
  static std::uint64_t holder_word(std::uint64_t prev, int slot) {
    const std::uint64_t version = (prev >> 32) + 1;
    return (version << 32) | static_cast<std::uint64_t>(slot);
  }

  /// Hands the token to the next active slot. `word` is the holder
  /// value this thread took the token under; a failed CAS means the
  /// token was concurrently adopted away (stale observation) and this
  /// thread must not count a pass.
  void pass_token(int slot_idx, std::uint64_t word) {
    if (!holder_.compare_exchange_strong(
            word, holder_word(word, next_active(slot_idx)),
            std::memory_order_acq_rel)) {
      return;
    }
    const std::uint64_t p =
        passes_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (p % static_cast<std::uint64_t>(nlanes_) == 0) {
      const std::uint64_t rotation = p / static_cast<std::uint64_t>(nlanes_);
      record_progress_beat(*this, ctx_, slot_idx, rotation);
    }
  }

  /// Pops up to `max_bags` safe bags from `s` (0 = all).
  std::vector<SealedBag> take_safe(TokenSlot& s, std::uint64_t pass_now,
                                   std::size_t max_bags) {
    std::vector<SealedBag> out;
    std::lock_guard<std::mutex> lock(s.mu);
    while (!s.sealed.empty() && safe(s.sealed.front(), pass_now) &&
           (max_bags == 0 || out.size() < max_bags)) {
      out.push_back(std::move(s.sealed.front()));
      s.sealed.pop_front();
    }
    return out;
  }

  /// Runs the holder's policy. Frees stay safe even under a stale
  /// token observation (pass_token's CAS then simply fails): take_safe
  /// admits only bags aged past the passes_-counted grace bound, which
  /// never depends on who currently holds the token.
  void on_token(int slot_idx, std::uint64_t word) {
    const std::uint64_t pass_now = passes_.load(std::memory_order_relaxed);
    switch (opt_.policy) {
      case TokenPolicy::kNaive:
        // Serialize: the holder reclaims for everyone, then passes.
        for (TokenSlot& s : slots_) {
          for (SealedBag& b : take_safe(s, pass_now, 0)) {
            hand_over(slot_idx, std::move(b));
          }
        }
        pass_token(slot_idx, word);
        break;
      case TokenPolicy::kPassFirst:
        pass_token(slot_idx, word);
        for (SealedBag& b : take_safe(slot(slot_idx), pass_now, 0)) {
          hand_over(slot_idx, std::move(b));
        }
        break;
      case TokenPolicy::kPeriodic:
        pass_token(slot_idx, word);
        for (SealedBag& b : take_safe(slot(slot_idx), pass_now, 1)) {
          hand_over(slot_idx, std::move(b));
        }
        break;
    }
  }

  TokenOptions opt_;
  SmrContext ctx_;
  int nlanes_;
  std::vector<TokenSlot> slots_;
  std::atomic<std::size_t> seal_threshold_{1};
  // (version << 32) | slot — see holder_word(). Starts at slot 0,
  // version 0.
  std::atomic<std::uint64_t> holder_{0};
  std::atomic<std::uint64_t> passes_{0};
};

}  // namespace

std::unique_ptr<Reclaimer> make_token(const TokenOptions& opt,
                                      const SmrContext& ctx,
                                      const SmrConfig& cfg,
                                      FreeExecutor* executor) {
  return std::make_unique<TokenReclaimer>(opt, ctx, cfg, executor);
}

}  // namespace emr::smr::internal
