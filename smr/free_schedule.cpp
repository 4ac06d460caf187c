#include "smr/free_schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace emr::smr {

namespace {

/// Target number of lane ops over which the adaptive controller aims to
/// clear a lane's backlog when the registered population matches the
/// configured steady state. More registrants shorten the horizon
/// proportionally: the table is producing garbage faster than any one
/// lane's ops are ticking, so each op must carry more of the drain.
constexpr std::size_t kDrainHorizonOps = 256;

/// Ceiling on the time one op-end drain burst may spend freeing, given
/// the lane's measured ns-per-free. Keeps the adaptive quantum from
/// recreating the very free-call stalls the paper measures when the
/// allocator path is expensive (remote frees, cache flushes).
constexpr std::uint64_t kMaxDrainNsPerOp = 50'000;

std::size_t auto_pool_cap(const SmrConfig& cfg) {
  if (cfg.pool_cap != 0) return cfg.pool_cap;
  return std::max<std::size_t>(cfg.batch_size * 4, 1024);
}

}  // namespace

FixedFreeSchedule::FixedFreeSchedule(const SmrConfig& cfg)
    : drain_(std::max<std::size_t>(cfg.af_drain_per_op, 1)),
      batch_(cfg.batch_size),
      pool_cap_(auto_pool_cap(cfg)),
      flush_batch_(cfg.flush_batch) {}

AdaptiveFreeSchedule::AdaptiveFreeSchedule(const SmrConfig& cfg)
    : batch_(cfg.batch_size),
      capacity_(cfg.slot_capacity()),
      base_threads_(
          static_cast<std::size_t>(cfg.num_threads < 1 ? 1
                                                       : cfg.num_threads)),
      drain_min_(cfg.drain_min),
      drain_max_(cfg.drain_max),
      pool_cap_(auto_pool_cap(cfg)),
      flush_batch_(cfg.flush_batch) {}

std::size_t AdaptiveFreeSchedule::drain_quota(const LaneStats& lane) const {
  if (lane.backlog == 0) return drain_min_;
  const std::size_t pop =
      std::max<std::size_t>(population_.load(std::memory_order_relaxed), 1);
  const std::size_t horizon =
      std::max<std::size_t>(kDrainHorizonOps * base_threads_ / pop, 1);
  std::size_t quota = static_cast<std::size_t>(lane.backlog) / horizon + 1;
  // timed_drained, not drained: only clocked drain bursts feed
  // drain_ns, while drained also counts pool recycles and batch
  // whole-bag frees that would dilute the ns-per-free estimate and
  // defeat the stall cap.
  if (lane.timed_drained > 0 && lane.drain_ns > 0) {
    const std::uint64_t ns_per_free =
        std::max<std::uint64_t>(lane.drain_ns / lane.timed_drained, 1);
    quota = std::min<std::size_t>(
        quota, static_cast<std::size_t>(kMaxDrainNsPerOp / ns_per_free) + 1);
  }
  return std::clamp(quota, drain_min_, drain_max_);
}

std::size_t AdaptiveFreeSchedule::flush_quota(const LaneStats& lane) const {
  if (lane.stash_backlog == 0) return 1;
  const std::size_t pop =
      std::max<std::size_t>(population_.load(std::memory_order_relaxed), 1);
  const std::size_t horizon =
      std::max<std::size_t>(kDrainHorizonOps * base_threads_ / pop, 1);
  const std::size_t quota =
      static_cast<std::size_t>(lane.stash_backlog) / horizon + 1;
  return std::clamp<std::size_t>(quota, 1, flush_batch_);
}

std::size_t AdaptiveFreeSchedule::scan_threshold(
    std::size_t population) const {
  // Prorate the configured batch by the live fraction of the slot
  // table: the configured EMR_BATCH buys its amortization when every
  // slot is producing garbage, but a half-empty table reaches the same
  // per-thread amortization with half the limbo volume — so bags seal
  // (and scans trigger) sooner, and peak garbage tracks the population
  // instead of the worst-case constant.
  const std::size_t pop = std::clamp<std::size_t>(population, 1, capacity_);
  return std::max<std::size_t>(batch_ * pop / capacity_, 1);
}

std::unique_ptr<FreeSchedule> make_free_schedule(ScheduleKind kind,
                                                 const SmrConfig& cfg) {
  if (cfg.batch_size == 0) {
    throw std::invalid_argument(
        "invalid SmrConfig::batch_size: 0 (EMR_BATCH must be >= 1)");
  }
  if (cfg.flush_batch == 0) {
    throw std::invalid_argument(
        "invalid SmrConfig::flush_batch: 0 (EMR_FLUSH_BATCH must be >= 1)");
  }
  if (cfg.drain_min == 0) {
    throw std::invalid_argument(
        "invalid SmrConfig::drain_min: 0 (EMR_DRAIN_MIN must be >= 1)");
  }
  if (cfg.drain_max < cfg.drain_min) {
    throw std::invalid_argument(
        "invalid drain clamp: drain_max=" + std::to_string(cfg.drain_max) +
        " < drain_min=" + std::to_string(cfg.drain_min) +
        " (EMR_DRAIN_MAX must be >= EMR_DRAIN_MIN)");
  }
  if (kind == ScheduleKind::kAdaptive) {
    return std::make_unique<AdaptiveFreeSchedule>(cfg);
  }
  return std::make_unique<FixedFreeSchedule>(cfg);
}

}  // namespace emr::smr
