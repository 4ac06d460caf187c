// Registration-slot registry behind the ThreadHandle API. Registration
// and release are deliberately coarse (one mutex): they happen at thread
// birth/death — at most once per churn interval — while the per-op paths
// stay lock-free and touch only the slot the handle pins.
#include "smr/reclaimer.hpp"

namespace emr::smr {

Reclaimer::Reclaimer(const SmrConfig& cfg, FreeExecutor* executor)
    : executor_(executor), slot_state_(cfg.slot_capacity()) {
  free_slots_.reserve(slot_state_.size());
  // LIFO pop order hands out slot 0 first, matching the dense-tid layout
  // instruments and tests expect for a churn-free population.
  for (std::size_t i = slot_state_.size(); i > 0; --i) {
    free_slots_.push_back(static_cast<int>(i - 1));
  }
}

ThreadHandle Reclaimer::register_thread() {
  std::lock_guard<std::mutex> lock(reg_mu_);
  if (free_slots_.empty()) {
    throw std::runtime_error(
        "register_thread: all " + std::to_string(slot_state_.size()) +
        " registration slots are live (capacity = num_threads + "
        "extra_slots; raise SmrConfig::num_threads or "
        "SmrConfig::extra_slots — EMR_EXTRA_SLOTS from the harness)");
  }
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  SlotState& s = slot_state_[static_cast<std::size_t>(slot)];
  ++s.generation;
  // Adoption hook first: the incoming thread owns the slot's parked
  // backlog before the slot is visible as active to ring/scan logic.
  on_slot_register(slot);
  s.active.store(true, std::memory_order_seq_cst);
  const std::size_t live =
      active_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
  executor().schedule().on_population(live);
  on_population_change(live);
  return ThreadHandle(this, slot, s.generation);
}

void Reclaimer::deregister(ThreadHandle& h) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  const int slot = h.slot_;
  SlotState& s = slot_state_[static_cast<std::size_t>(slot)];
  // Inactive first so scheme departure hooks (token hand-off, epoch
  // advance checks) already see the slot as vacant.
  s.active.store(false, std::memory_order_seq_cst);
  const std::size_t live =
      active_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  executor().schedule().on_population(live);
  on_population_change(live);
  on_slot_deregister(slot);
  // After the scheme has parked the slot's bags, splice the departing
  // lane's remote-free stash into the lane's backlog: a vacant lane runs
  // no ops, so nothing would flush it until the daemon's next sweep, and
  // a daemon-less config would strand the blocks outright.
  executor().on_lane_released(slot);
  free_slots_.push_back(slot);
}

SmrStats Reclaimer::stats() const {
  // Exits before entries: every free total_freed() saw was preceded by
  // its node's retire, which the later total_retired() read therefore
  // covers — freed <= retired and pending never wraps.
  SmrStats st;
  st.freed = executor_->total_freed();
  st.retired = executor_->total_retired();
  st.pending = st.retired - st.freed;
  st.epochs_advanced = progress_beats();
  return st;
}

SmrStats Reclaimer::stats_with_lanes() const {
  // Totals are the row sums, so rows and totals agree exactly; the
  // rows' exits-first read keeps freed <= retired here too.
  SmrStats st;
  st.lanes = executor_->all_lane_stats();
  for (const LaneStats& l : st.lanes) {
    st.freed += l.drained;
    st.retired += l.retired;
  }
  st.pending = st.retired - st.freed;
  st.epochs_advanced = progress_beats();
  return st;
}

}  // namespace emr::smr
