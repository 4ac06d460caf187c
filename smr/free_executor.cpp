#include "smr/free_executor.hpp"

#include <algorithm>

#include "core/timing.hpp"

namespace emr::smr {

FreeExecutor::FreeExecutor(const SmrContext& ctx, const SmrConfig& cfg,
                           FreeSchedule* schedule)
    : ctx_(ctx),
      schedule_(schedule),
      stats_hungry_(schedule->consumes_lane_stats()),
      lanes_(cfg.slot_capacity()),
      stash_(cfg.slot_capacity()) {}

FreeExecutor::LaneState& FreeExecutor::lane_state(int lane) {
  const std::size_t i = static_cast<std::size_t>(lane);
  return lanes_[i < lanes_.size() ? i : 0];
}

const FreeExecutor::LaneState& FreeExecutor::lane_state(int lane) const {
  const std::size_t i = static_cast<std::size_t>(lane);
  return lanes_[i < lanes_.size() ? i : 0];
}

void* FreeExecutor::alloc_node(int lane, std::size_t size) {
  // Every node must have room for the reclaimer-owned intrusive header,
  // and the header must never be indeterminate: schemes that don't stamp
  // birth eras would otherwise hand make_node() uninitialized bytes.
  void* p =
      ctx_.allocator->allocate(lane, std::max(size, sizeof(NodeHeader)));
  static_cast<NodeHeader*>(p)->birth_era = 0;
  return p;
}

void FreeExecutor::timed_free_as(int stats_lane, int alloc_lane, void* p) {
  Timeline* tl = ctx_.timeline;
  if (tl != nullptr && tl->enabled()) {
    const std::uint64_t t0 = now_ns();
    ctx_.allocator->deallocate(alloc_lane, p);
    tl->record(alloc_lane, EventKind::kFreeCall, t0, now_ns());
  } else {
    ctx_.allocator->deallocate(alloc_lane, p);
  }
  note_drained(stats_lane);
}

void FreeExecutor::timed_hint_free(int stats_lane, int alloc_lane, void* p) {
  Timeline* tl = ctx_.timeline;
  if (tl != nullptr && tl->enabled()) {
    const std::uint64_t t0 = now_ns();
    ctx_.allocator->free_local_hint(alloc_lane, p);
    tl->record(alloc_lane, EventKind::kFreeCall, t0, now_ns());
  } else {
    ctx_.allocator->free_local_hint(alloc_lane, p);
  }
  note_drained(stats_lane);
}

void FreeExecutor::routed_free(int stats_lane, int alloc_lane, void* p) {
  if (home_flush_ && !teardown_.load(std::memory_order_relaxed)) {
    const int home = ctx_.allocator->home_lane(p);
    if (home >= 0 && home != alloc_lane &&
        static_cast<std::size_t>(home) < stash_.size()) {
      stash_push(stats_lane, home, p);
      return;
    }
  }
  timed_free_as(stats_lane, alloc_lane, p);
}

void FreeExecutor::stash_push(int stats_lane, int home, void* p) {
  lane_state(stats_lane).stashed.fetch_add(1, std::memory_order_relaxed);
  RemoteStash& s = stash_[static_cast<std::size_t>(home)];
  // Gauge up *before* the node publishes: a drainer can only decrement
  // after its acquire-exchange observed this push's release-CAS, which
  // orders the increment first — the gauge never reads negative.
  s.backlog.fetch_add(1, std::memory_order_relaxed);
  // The node is dead (ownership transferred at hand-over), so its first
  // 8 bytes — the NodeHeader the reclaimer owns — carry the intrusive
  // link. Plain store is race-free: publication happens via the head.
  void* old = s.head.load(std::memory_order_relaxed);
  do {
    *static_cast<void**>(p) = old;
  } while (!s.head.compare_exchange_weak(old, p, std::memory_order_release,
                                         std::memory_order_relaxed));
}

std::size_t FreeExecutor::drain_stash(int lane, std::size_t quota,
                                      int daemon_lane) {
  const std::size_t i = static_cast<std::size_t>(lane);
  RemoteStash& s = stash_[i < stash_.size() ? i : 0];
  if (quota == 0 || s.backlog.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  LaneState& l = lane_state(lane);
  const bool owner = daemon_lane < 0;
  const bool clocked = owner && stats_hungry_;
  const int alloc_lane = owner ? lane : daemon_lane;
  const std::uint64_t t0 = clocked ? now_ns() : 0;
  std::size_t n = 0;
  {
    LaneLock lock(l, daemon_hooked_ || !owner);
    while (n < quota) {
      if (l.stash_chain == nullptr) {
        // Grab the whole Treiber stack in one exchange; the remainder
        // over quota waits in the private chain for the next flush.
        l.stash_chain = s.head.exchange(nullptr, std::memory_order_acquire);
        if (l.stash_chain == nullptr) break;
      }
      void* p = l.stash_chain;
      l.stash_chain = *static_cast<void**>(p);
      timed_hint_free(lane, alloc_lane, p);
      s.flushed.fetch_add(1, std::memory_order_relaxed);
      s.backlog.fetch_sub(1, std::memory_order_relaxed);
      ++n;
    }
  }
  if (clocked) {
    l.drain_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    l.timed_drained.fetch_add(n, std::memory_order_relaxed);
  }
  return n;
}

void FreeExecutor::maybe_flush_stash(int lane) {
  if (!home_flush_) return;
  if (teardown_.load(std::memory_order_relaxed)) {
    // A mid-run flush_all latched routing off; an op ending proves the
    // bundle is live again, so re-arm.
    teardown_.store(false, std::memory_order_relaxed);
  }
  const std::size_t i = static_cast<std::size_t>(lane);
  if (stash_[i < stash_.size() ? i : 0].backlog.load(
          std::memory_order_relaxed) == 0) {
    return;
  }
  const std::size_t quota =
      stats_hungry_ ? schedule_->flush_quota(lane_stats(lane))
                    : schedule_->flush_quota(LaneStats{});
  drain_stash(lane, quota);
}

void FreeExecutor::on_lane_released(int lane) {
  if (!home_flush_) return;
  const std::size_t i = static_cast<std::size_t>(lane);
  RemoteStash& s = stash_[i < stash_.size() ? i : 0];
  LaneState& l = lane_state(lane);
  std::vector<void*> bag;
  {
    LaneLock lock(l, daemon_hooked_);
    void* p = l.stash_chain;
    l.stash_chain = nullptr;
    while (p != nullptr) {
      bag.push_back(p);
      p = *static_cast<void**>(p);
    }
    p = s.head.exchange(nullptr, std::memory_order_acquire);
    while (p != nullptr) {
      bag.push_back(p);
      p = *static_cast<void**>(p);
    }
  }
  if (bag.empty()) return;
  // The blocks leave the stash (counted flushed) and re-enter through
  // the churn-aware adoption path, so the successor — or the daemon, or
  // flush_all — drains them at the usual quota instead of in a burst.
  s.flushed.fetch_add(bag.size(), std::memory_order_relaxed);
  s.backlog.fetch_sub(bag.size(), std::memory_order_relaxed);
  on_adopted(lane, std::move(bag));
}

void FreeExecutor::on_reclaimable(int lane, std::vector<void*>&& bag) {
  if (bag.empty()) return;
  LaneState& l = lane_state(lane);
  l.enqueued.fetch_add(bag.size(), std::memory_order_relaxed);
  LaneLock lock(l, daemon_hooked_);
  l.backlog.insert(l.backlog.end(), bag.begin(), bag.end());
  l.backlog_size.store(l.backlog.size(), std::memory_order_relaxed);
}

void FreeExecutor::on_adopted(int lane, std::vector<void*>&& bag) {
  lane_state(lane).adopted_total.fetch_add(bag.size(),
                                           std::memory_order_relaxed);
  // Qualified, so batch parks the hand-off instead of freeing it now.
  FreeExecutor::on_reclaimable(lane, std::move(bag));
}

std::size_t FreeExecutor::drain_backlog(int lane, std::size_t quota,
                                        std::size_t keep, int daemon_lane) {
  LaneState& l = lane_state(lane);
  if (quota == 0 || l.backlog_size.load(std::memory_order_relaxed) <= keep) {
    return 0;
  }
  const bool owner = daemon_lane < 0;
  const bool clocked = owner && stats_hungry_;
  const std::uint64_t t0 = clocked ? now_ns() : 0;
  std::size_t n = 0;
  {
    LaneLock lock(l, daemon_hooked_ || !owner);
    while (n < quota && l.backlog.size() > keep) {
      void* p = pop_backlog(l.backlog);
      if (owner) {
        routed_free(lane, lane, p);
      } else {
        timed_free_as(lane, daemon_lane, p);
      }
      ++n;
    }
    l.backlog_size.store(l.backlog.size(), std::memory_order_relaxed);
  }
  if (clocked) {
    l.drain_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    l.timed_drained.fetch_add(n, std::memory_order_relaxed);
  }
  return n;
}

void FreeExecutor::on_op_end(int lane) {
  LaneState& l = lane_state(lane);
  l.ops.fetch_add(1, std::memory_order_relaxed);
  // Checked here too so an idle lane skips the quota lookup, which is a
  // full stats snapshot under a stats-hungry schedule.
  if (l.backlog_size.load(std::memory_order_relaxed) > keep_) {
    drain_backlog(lane, drain_quota_for(lane), keep_);
  }
  maybe_flush_stash(lane);
}

void FreeExecutor::quiesce(int lane) {
  // Latch routing off for the rest of the teardown pass: the schemes'
  // flush_all loops interleave hand-over and quiesce per lane, and a
  // post-quiesce hand-over must not scatter blocks into stashes that
  // were already drained. Pre-latch pushes are safe — every lane's
  // quiesce drains its own stash below, and flush_all visits them all.
  teardown_.store(true, std::memory_order_relaxed);
  drain_backlog(lane, ~std::size_t{0}, 0, lane);
  if (home_flush_) {
    while (drain_stash(lane, ~std::size_t{0}, lane) != 0) {
    }
  }
}

std::size_t FreeExecutor::daemon_drain(int lane, std::size_t quota,
                                       int daemon_lane) {
  std::size_t n = drain_backlog(lane, quota, keep_, daemon_lane);
  // Orphan/idle stash coverage: when routing is armed, the remaining
  // quota flushes this lane's stash from the daemon — the path that
  // keeps departed or idle lanes from stranding stashed blocks. The
  // frees go through free_local_hint (remote attribution stays exact;
  // the per-block penalty was amortized by the batch hand-off).
  if (home_flush_ && n < quota) {
    n += drain_stash(lane, quota - n, daemon_lane);
  }
  return n;
}

std::uint64_t FreeExecutor::backlog() const {
  return lane_sum(lanes_, &LaneState::backlog_size) +
         lane_sum(stash_, &RemoteStash::backlog);
}

// Mid-trial snapshots are unsynchronized by design (one load per
// counter; no lock on the hot path), so pairs of counters can tear. The
// exit-side counters (drained, flushed) are read *before* their
// entry-side partners (retired, enqueued, stashed): exits only follow
// entries, so derived gauges (retired - drained, stashed - flushed)
// never go negative. The backlog gauges are maintained entry-first for
// the same reason (see stash_push) rather than derived here.
void FreeExecutor::read_exits(int lane, LaneStats& s) const {
  const std::size_t i = static_cast<std::size_t>(lane);
  s.drained = lane_state(lane).drained.load(std::memory_order_acquire);
  s.flushed = stash_[i < stash_.size() ? i : 0].flushed.load(
      std::memory_order_relaxed);
}

void FreeExecutor::read_entries(int lane, LaneStats& s) const {
  const LaneState& l = lane_state(lane);
  const std::size_t i = static_cast<std::size_t>(lane);
  s.ops = l.ops.load(std::memory_order_relaxed);
  s.retired = l.retired.load(std::memory_order_relaxed);
  s.enqueued = l.enqueued.load(std::memory_order_relaxed);
  s.adopted = l.adopted_total.load(std::memory_order_relaxed);
  s.stashed = l.stashed.load(std::memory_order_relaxed);
  s.stash_backlog = stash_[i < stash_.size() ? i : 0].backlog.load(
      std::memory_order_relaxed);
  s.backlog =
      l.backlog_size.load(std::memory_order_relaxed) + s.stash_backlog;
  s.drain_ns = l.drain_ns.load(std::memory_order_relaxed);
  s.timed_drained = l.timed_drained.load(std::memory_order_relaxed);
}

LaneStats FreeExecutor::lane_stats(int lane) const {
  LaneStats s;
  read_exits(lane, s);
  read_entries(lane, s);
  return s;
}

std::vector<LaneStats> FreeExecutor::all_lane_stats() const {
  std::vector<LaneStats> rows(lanes_.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    read_exits(static_cast<int>(i), rows[i]);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    read_entries(static_cast<int>(i), rows[i]);
  }
  return rows;
}

// ---------------------------------------------------------------- batch

void BatchFreeExecutor::on_reclaimable(int lane, std::vector<void*>&& bag) {
  if (bag.empty()) return;
  lane_state(lane).enqueued.fetch_add(bag.size(),
                                      std::memory_order_relaxed);
  Timeline* tl = ctx_.timeline;
  const bool instrumented = tl != nullptr && tl->enabled();
  const std::uint64_t t0 = instrumented ? now_ns() : 0;
  for (void* p : bag) routed_free(lane, lane, p);
  if (instrumented) tl->record(lane, EventKind::kBatchFree, t0, now_ns());
}

// -------------------------------------------------------------- pooling

PoolingFreeExecutor::PoolingFreeExecutor(const SmrContext& ctx,
                                         const SmrConfig& cfg,
                                         FreeSchedule* schedule)
    : FreeExecutor(ctx, cfg, schedule) {
  // Both shipped policies return a constant cap, so one read is exact.
  keep_ = schedule->pool_cap();
}

void* PoolingFreeExecutor::alloc_node(int lane, std::size_t size) {
  // Trials use one node size; recycle only for that size and fall back to
  // the allocator for anything else. The first call claims the size; the
  // CAS runs only while it is unclaimed, so steady-state calls do a
  // plain load of a line nobody writes.
  std::size_t common = common_size_.load(std::memory_order_relaxed);
  if (common == 0 && common_size_.compare_exchange_strong(
                         common, size, std::memory_order_relaxed)) {
    common = size;
  }
  LaneState& l = lane_state(lane);
  if (size == common && l.backlog_size.load(std::memory_order_relaxed) != 0) {
    LaneLock lock(l, daemon_hooked_);
    if (!l.backlog.empty()) {
      void* p = pop_backlog(l.backlog);
      l.backlog_size.store(l.backlog.size(), std::memory_order_relaxed);
      l.recycled.fetch_add(1, std::memory_order_relaxed);
      note_drained(lane);  // left limbo via reuse
      return p;
    }
  }
  return FreeExecutor::alloc_node(lane, size);
}

}  // namespace emr::smr
