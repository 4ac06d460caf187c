// The shipped FreeSchedule policies (interface: smr/reclaimer.hpp,
// contract: docs/FREE_SCHEDULES.md):
//
//   FixedFreeSchedule    - mirrors the SmrConfig constants: the drain
//                          quantum is af_drain_per_op, the seal/scan
//                          threshold is batch_size regardless of who is
//                          registered. This is the paper's setup and the
//                          default behind every plain/_af/_pool name.
//   AdaptiveFreeSchedule - a population-aware feedback controller: the
//                          seal/scan threshold is the configured batch
//                          prorated by the live fraction of the slot
//                          table (the batch-size-vs-population lesson
//                          from the large-batch-training literature),
//                          and the drain quantum tracks each lane's
//                          backlog against a drain horizon that tightens
//                          as the registered population grows, capped by
//                          the lane's measured ns-per-free so one op
//                          never stalls on a slow allocator path.
//
// make_free_schedule is the only place in smr/ that reads the config's
// batching knobs; executors and scheme TUs consult the policy
// (ci/check.sh greps to keep it that way — and another grep keeps the
// latency recorder out of smr/ altogether).
#pragma once

#include <memory>

#include "smr/reclaimer.hpp"

namespace emr::smr {

enum class ScheduleKind { kFixed, kAdaptive };

class FixedFreeSchedule final : public FreeSchedule {
 public:
  explicit FixedFreeSchedule(const SmrConfig& cfg);

  const char* name() const override { return "fixed"; }
  std::size_t drain_quota(const LaneStats&) const override { return drain_; }
  std::size_t scan_threshold(std::size_t) const override { return batch_; }
  std::size_t pool_cap() const override { return pool_cap_; }
  /// Home-flush quantum mirrors the config constant, like every other
  /// fixed quantum: EMR_FLUSH_BATCH stashed blocks per op end.
  std::size_t flush_quota(const LaneStats&) const override {
    return flush_batch_;
  }
  /// Constant quantum: executors skip the per-op stats snapshot and
  /// drain-cost clocking, keeping the paper-reproduction rows on the
  /// pre-policy-layer hot path.
  bool consumes_lane_stats() const override { return false; }
  /// The per-op quantum is deliberately tiny (af_drain_per_op), so the
  /// default daemon scaling would barely move backlog between ticks.
  /// Off the op path a tick may swallow up to one sealed bag under
  /// pressure, and a slice of one when merely quiet.
  std::size_t daemon_quota(const LaneStats&, bool pressure) const override {
    if (pressure) return batch_;
    const std::size_t slice = batch_ / 8;
    return drain_ > slice ? drain_ : slice;
  }

 private:
  std::size_t drain_;
  std::size_t batch_;
  std::size_t pool_cap_;
  std::size_t flush_batch_;
};

class AdaptiveFreeSchedule final : public FreeSchedule {
 public:
  explicit AdaptiveFreeSchedule(const SmrConfig& cfg);

  const char* name() const override { return "adaptive"; }
  std::size_t drain_quota(const LaneStats& lane) const override;
  std::size_t scan_threshold(std::size_t population) const override;
  std::size_t pool_cap() const override { return pool_cap_; }
  /// Backlog-proportional flush quantum: the lane's stash backlog over
  /// the same population-tightened horizon the drain controller uses,
  /// clamped to [1, EMR_FLUSH_BATCH]. A lane whose stash is being fed
  /// faster than it drains flushes harder; a quiet stash costs one
  /// block's worth of work per op end. No ns-per-free cap: flushed
  /// blocks take the local fast path, which is the cheap case the
  /// drain-side cap exists to protect.
  std::size_t flush_quota(const LaneStats& lane) const override;
  void on_population(std::size_t n) override {
    population_.store(n, std::memory_order_relaxed);
  }

  /// Last population the reclaimer pushed (live ThreadHandles).
  std::size_t population() const {
    return population_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t batch_;
  std::size_t capacity_;      // slot_capacity(): full-table batch scale
  std::size_t base_threads_;  // configured steady-state population
  std::size_t drain_min_;
  std::size_t drain_max_;
  std::size_t pool_cap_;
  std::size_t flush_batch_;
  std::atomic<std::size_t> population_{0};
};

/// Builds the policy, failing fast (std::invalid_argument naming the
/// knob) on nonsensical config: batch_size == 0, flush_batch == 0,
/// drain_min == 0 or drain_max < drain_min. `kind` is the factory-name
/// default; SmrConfig::schedule ("fixed" | "adaptive", EMR_SCHEDULE)
/// overrides it, and any other non-empty value throws.
std::unique_ptr<FreeSchedule> make_free_schedule(ScheduleKind kind,
                                                 const SmrConfig& cfg);

}  // namespace emr::smr
