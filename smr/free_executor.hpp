// Free-schedule executors. The reclaimer hands a FreeExecutor bags of
// nodes that have become safe to reclaim; the executor turns them into
// allocator traffic, sourcing every quantum (per-op drain, pool cap)
// from the FreeSchedule policy it is constructed over:
//
//   FreeExecutor        - the amortized executor (smr/reclaimer.hpp):
//                         append to the lane's one FIFO backlog; each
//                         end_op drains at most the schedule's quota
//                         (the paper's asynchronous-free fix).
//   BatchFreeExecutor   - free the whole bag on the spot (the classical
//                         EBR behaviour the paper shows is harmful).
//   PoolingFreeExecutor - amortized, but alloc_node is served from the
//                         lane's backlog first (section 3.3 pooling, the
//                         optimization footnote 4 credits for VBR's
//                         numbers), and the drains leave the schedule's
//                         pool cap in place as stock.
//
// Contract (see the FreeExecutor base in smr/reclaimer.hpp for the full
// statement): ownership of every pointer in an on_reclaimable() or
// on_adopted() bag transfers here, and each such node leaves limbo
// exactly once — through one allocator deallocate (timed_free_as) or,
// for pooling, by being handed back out of alloc_node(). Bags arrive
// already safe; delaying a free is always allowed, freeing early is
// impossible by construction. `lane` is the registration slot of the
// calling ThreadHandle: entry points are safe across different lanes
// (each lane's thread owns its state), and a recycled slot hands its
// lane — backlog included — to the successor thread. on_adopted() is
// the churn path: departure hand-offs join the backlog under every
// executor, batch included, and drain at the schedule's quota per op
// instead of in one burst. quiesce() is teardown-only and drains a lane
// completely.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::smr {

class BatchFreeExecutor final : public FreeExecutor {
 public:
  using FreeExecutor::FreeExecutor;
  void on_reclaimable(int lane, std::vector<void*>&& bag) override;
};

class PoolingFreeExecutor final : public FreeExecutor {
 public:
  PoolingFreeExecutor(const SmrContext& ctx, const SmrConfig& cfg,
                      FreeSchedule* schedule);

  /// Serves from the lane's backlog when a recycled node of a
  /// compatible size is available; falls back to the allocator.
  void* alloc_node(int lane, std::size_t size) override;

 private:
  std::atomic<std::size_t> common_size_{0};
};

}  // namespace emr::smr
