// Free-schedule executors. The reclaimer hands a FreeExecutor bags of
// nodes that have become safe to reclaim; the executor turns them into
// allocator traffic, sourcing every quantum (per-op drain, pool cap)
// from the FreeSchedule policy it is constructed over:
//
//   BatchFreeExecutor     - free the whole bag on the spot (the classical
//                           EBR behaviour the paper shows is harmful).
//   AmortizedFreeExecutor - append to a per-lane freeable list; each
//                           end_op drains at most the schedule's quota
//                           (the paper's asynchronous-free fix).
//   PoolingFreeExecutor   - like amortized, but alloc_node is served from
//                           the freeable list first (section 3.3 pooling)
//                           and only the excess over the schedule's pool
//                           cap is ever freed.
//
// Contract (see the FreeExecutor base in smr/reclaimer.hpp for the full
// statement): ownership of every pointer in an on_reclaimable() or
// on_adopted() bag transfers here, and each such node leaves limbo
// exactly once — through one allocator deallocate (timed_free) or, for
// pooling, by being handed back out of alloc_node(). Bags arrive already
// safe; delaying a free is always allowed, freeing early is impossible
// by construction. `lane` is the registration slot of the calling
// ThreadHandle: entry points are safe across different lanes (each
// lane's thread owns its state), and a recycled slot hands its lane —
// backlog included — to the successor thread. on_adopted() is the
// churn path: departure hand-offs drain at the schedule's quota per op
// instead of in one burst. quiesce() is teardown-only and drains a lane
// completely.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::smr {

class BatchFreeExecutor final : public FreeExecutor {
 public:
  using FreeExecutor::FreeExecutor;
  void on_reclaimable(int lane, std::vector<void*>&& bag) override;
};

class AmortizedFreeExecutor : public FreeExecutor {
 public:
  AmortizedFreeExecutor(const SmrContext& ctx, const SmrConfig& cfg,
                        FreeSchedule* schedule);
  void on_reclaimable(int lane, std::vector<void*>&& bag) override;
  void on_adopted(int lane, std::vector<void*>&& bag) override;
  void on_op_end(int lane) override;
  void quiesce(int lane) override;
  std::size_t daemon_drain(int lane, std::size_t quota,
                           int daemon_lane) override;

 protected:
  struct alignas(64) Freeable {
    std::deque<void*> nodes;
    std::atomic<std::uint64_t> size{0};
    /// Allocations the pooling executor served from `nodes`.
    std::atomic<std::uint64_t> recycled{0};
  };
  Freeable& lane(int lane_idx);
  std::uint64_t lane_backlog(int lane_idx) const override;
  /// Frees up to `quota` nodes from the lane's freeable list (down to
  /// `floor` survivors — the pooling inventory); returns how many.
  /// Takes the lane lock internally when a daemon is hooked.
  std::size_t drain_freeable(int lane_idx, std::size_t quota,
                             std::size_t floor);
  std::vector<Freeable> freeable_;
};

}  // namespace emr::smr
