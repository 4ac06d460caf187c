// Allocator decorator for the traced run. It forwards every virtual of
// emr::alloc::Allocator to the wrapped backend, home_lane and
// free_local_hint included, so the reclaimer's routing decisions are
// unchanged. While the calling lane has an op span open, each call is
// timestamped as a child of that span.
//
// Lanes are registration slots, and one thread drives a slot at a time,
// so span state is per lane and needs no atomics: the client thread
// opens the span, every allocator call the structure makes on its
// behalf lands on the same lane, and the client reads the span back
// when the structure call returns. Shared atomic counters cost the
// prototype 25-46% of its throughput.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/timing.hpp"

namespace emrbench {

enum class Call : std::uint8_t { kAllocate, kFree, kFreeLocalHint };

inline const char* call_name(Call c) {
  switch (c) {
    case Call::kAllocate:
      return "allocate";
    case Call::kFree:
      return "free";
    case Call::kFreeLocalHint:
      return "free_local_hint";
  }
  return "?";
}

struct Child {
  Call call = Call::kAllocate;
  std::uint64_t t0 = 0;
  std::uint64_t dur = 0;
};

/// The allocator calls made inside one op span. Every call is counted;
/// the first kMaxChildren are also kept with their timestamps.
struct Span {
  static constexpr std::size_t kMaxChildren = 8;
  std::uint32_t n_alloc = 0;
  std::uint32_t n_free = 0;
  std::uint64_t alloc_ns = 0;
  std::uint64_t free_ns = 0;
  std::uint32_t n_children = 0;
  Child children[kMaxChildren];

  std::uint64_t child_ns() const { return alloc_ns + free_ns; }
};

class TimedAllocator final : public emr::alloc::Allocator {
 public:
  TimedAllocator(std::unique_ptr<emr::alloc::Allocator> inner, int lanes)
      : inner_(std::move(inner)),
        lanes_(static_cast<std::size_t>(lanes < 1 ? 1 : lanes)) {}

  void* allocate(int tid, std::size_t size) override {
    const std::uint64_t t0 = emr::now_ns();
    void* p = inner_->allocate(tid, size);
    note(tid, Call::kAllocate, t0, emr::now_ns());
    return p;
  }

  void deallocate(int tid, void* p) override {
    const std::uint64_t t0 = emr::now_ns();
    inner_->deallocate(tid, p);
    note(tid, Call::kFree, t0, emr::now_ns());
  }

  int home_lane(void* p) const override { return inner_->home_lane(p); }

  void free_local_hint(int tid, void* p) override {
    const std::uint64_t t0 = emr::now_ns();
    inner_->free_local_hint(tid, p);
    note(tid, Call::kFreeLocalHint, t0, emr::now_ns());
  }

  void flush_thread_caches() override { inner_->flush_thread_caches(); }
  emr::alloc::AllocStats stats() const override { return inner_->stats(); }
  const char* name() const override { return inner_->name(); }

  /// Starts recording `lane`'s allocator calls. Lane owner only.
  void open_span(int lane) {
    Lane& l = lane_state(lane);
    l.span = Span{};
    l.open = true;
  }

  /// Stops recording and returns what the span collected; valid until
  /// the lane's next open_span. Lane owner only.
  const Span& close_span(int lane) {
    Lane& l = lane_state(lane);
    l.open = false;
    return l.span;
  }

 private:
  struct alignas(64) Lane {
    bool open = false;
    Span span;
  };

  Lane& lane_state(int tid) {
    // Out-of-range lanes fold onto 0, as the modelled allocator does.
    const std::size_t i = static_cast<std::size_t>(tid);
    return lanes_[i < lanes_.size() ? i : 0];
  }

  void note(int tid, Call c, std::uint64_t t0, std::uint64_t t1) {
    Lane& l = lane_state(tid);
    if (!l.open) return;
    Span& s = l.span;
    const std::uint64_t d = t1 - t0;
    if (c == Call::kAllocate) {
      ++s.n_alloc;
      s.alloc_ns += d;
    } else {
      ++s.n_free;
      s.free_ns += d;
    }
    if (s.n_children < Span::kMaxChildren) s.children[s.n_children++] = {c, t0, d};
  }

  std::unique_ptr<emr::alloc::Allocator> inner_;
  std::vector<Lane> lanes_;
};

}  // namespace emrbench
