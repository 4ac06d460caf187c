// Object-pooling free schedule (the optimization the paper's section 3.3
// declines to use and footnote 4 credits for VBR's numbers): reclaimable
// nodes are recycled into subsequent alloc_node calls, so most node
// traffic never reaches the allocator at all.
#pragma once

#include "smr/free_executor.hpp"

namespace emr::smr {

class PoolingFreeExecutor final : public AmortizedFreeExecutor {
 public:
  PoolingFreeExecutor(const SmrContext& ctx, const SmrConfig& cfg,
                      FreeSchedule* schedule);

  /// Serves from the lane's freeable list when a recycled node of a
  /// compatible size is available; falls back to the allocator.
  void* alloc_node(int lane, std::size_t size) override;

  /// Pooling keeps the backlog as inventory: the per-op drain only
  /// trims what exceeds the schedule's pool cap, so on_op_end frees far
  /// less than the amortized executor does.
  void on_op_end(int lane) override;

  /// Allocations served from the pool, summed over lanes.
  std::uint64_t total_pooled_allocs() const {
    return lane_sum(freeable_, &Freeable::recycled);
  }

 protected:
  /// The background daemon must not strip the recycling inventory: only
  /// backlog above the schedule's pool cap is reclamation debt.
  std::size_t daemon_floor() const override {
    return schedule_->pool_cap();
  }

 private:
  std::atomic<std::size_t> common_size_{0};
};

}  // namespace emr::smr
