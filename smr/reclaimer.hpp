// Safe-memory-reclamation interface. A Reclaimer decides *when* a retired
// node may be freed; its FreeExecutor decides *how* the free calls reach
// the allocator (one big batch per limbo bag, amortized per-op drains, or
// recycling through an object pool). The paper's subject is exactly that
// split: the same reclaimer can be catastrophic or fast depending on the
// free schedule it hands the allocator.
//
// Thread model: threads participate by holding a ThreadHandle obtained
// from Reclaimer::register_thread(). The handle is RAII — destruction (or
// release()) deregisters the thread, drains or hands off its retire
// backlog, and recycles its slot for a future thread. There is no fixed
// thread population: workloads where threads join and leave mid-run (the
// harness's churn mode) are first-class, and a departed thread can never
// pin the epoch or leak its limbo bags.
//
// Scheme families behind this interface (see docs/SMR_SCHEMES.md):
//   smr/ebr.cpp        - epoch-based: none, qsbr, rcu, debra
//   smr/token.cpp      - Token-EBR: token_naive, token_passfirst, token
//   smr/hp.cpp         - classic hazard pointers: hp
//   smr/he_ibr_wfe.cpp - era-clock schemes: he, ibr, wfe
//   smr/nbr.cpp        - neutralization-based: nbr, nbrplus
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/garbage.hpp"
#include "core/spinlock.hpp"
#include "core/timeline.hpp"

namespace emr::smr {

class Reclaimer;

struct SmrConfig {
  /// Expected steady-state worker population; sizes the registration
  /// slot table together with `extra_slots`.
  int num_threads = 1;
  /// Registration slots beyond num_threads: headroom for a replacement
  /// thread registering while its predecessor's slot is still draining
  /// (churn overlap) and for the single-threaded teardown handle the
  /// ds/ destructors take. Floored at 1.
  std::size_t extra_slots = 2;
  /// Retires per limbo bag before the bag is sealed and an epoch advance
  /// is attempted (the paper's batch size; Experiment 2 uses 32768). The
  /// pointer-protecting schemes use the same value as their retire-list
  /// scan threshold, so EMR_BATCH drives every family's batching.
  std::size_t batch_size = 2048;
  /// Asynchronous-free drain rate: reclaimable objects freed per
  /// operation by the _af variants (section 7 prescribes ~frees/op).
  std::size_t af_drain_per_op = 1;
  /// Per-thread protection slots for the hazard-class schemes (hp, he,
  /// wfe). Michael's HP calls this K; protect()'s `idx` is taken mod
  /// this count. EMR_HP_SLOTS.
  std::size_t hp_slots = 8;
  /// Era-clock advance frequency for he/ibr/wfe/nbr: the global era is
  /// bumped once per this many node allocations on any one thread (the
  /// IBR paper's epoch_freq). EMR_EPOCH_FREQ.
  std::size_t epoch_freq = 64;
  /// Free-schedule policy selection: "" follows the factory name's
  /// suffix (fixed for plain/_af/_pool names, adaptive for the
  /// *_adaptive variants); "fixed" or "adaptive" forces the choice for
  /// any name. Anything else fails fast in make_free_schedule.
  /// EMR_SCHEDULE.
  std::string schedule;
  /// Pooling inventory cap per lane; 0 = auto (four batches, floored
  /// at 1024). EMR_POOL_CAP — the env path rejects non-positive values
  /// instead of silently repairing them.
  std::size_t pool_cap = 0;
  /// Clamp for the adaptive schedule's per-op drain quantum: the
  /// controller never drains fewer than drain_min or more than
  /// drain_max nodes at one op end. EMR_DRAIN_MIN / EMR_DRAIN_MAX.
  std::size_t drain_min = 1;
  std::size_t drain_max = 64;
  /// Read by nothing; kept only because emrbench/emr_bench.cpp assigns it.
  std::uint64_t latency_target_us = 1000;
  /// Home-flush routing (docs/FREE_SCHEDULES.md): ceiling on how many
  /// stashed remote blocks the owning lane flushes locally at one op
  /// end — the FreeSchedule::flush_quota quantum. Bigger batches
  /// amortize the hand-off further but hold more dead memory in the
  /// stashes (the "too epic" trade-off one layer down). Must be >= 1.
  /// EMR_FLUSH_BATCH.
  std::size_t flush_batch = 64;
  /// Home-flush routing override: "" follows the factory name (*_hf
  /// names route, others do not); "on"/"off" forces it for any name.
  /// Anything else fails fast in make_reclaimer. EMR_HOME_FLUSH.
  std::string home_flush;
  /// Reclamation tenants sharing this bundle (docs/SERVICE_MODE.md):
  /// the executor keeps per-(lane, tenant) retire/enqueue/drain
  /// counters so one tenant's garbage crowding out another is a
  /// measurable number. 1 (the default) keeps every tenant-accounting
  /// path compiled out of the hot loop. EMR_TENANTS.
  int tenants = 1;

  /// Total registration slots: how many ThreadHandles may be live at
  /// once. Every per-thread array in the schemes, executors and modelled
  /// allocators is sized from this.
  std::size_t slot_capacity() const {
    const std::size_t base =
        static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads);
    const std::size_t extra = extra_slots < 1 ? 1 : extra_slots;
    return base + extra;
  }
};

/// Shared services handed to a reclaimer at construction. Only
/// `allocator` is mandatory; null instruments are simply not recorded to.
struct SmrContext {
  alloc::Allocator* allocator = nullptr;
  Timeline* timeline = nullptr;
  GarbageCensus* garbage = nullptr;
};

/// Intrusive per-node header. Every pointer that flows through
/// alloc_node()/retire() must begin with one of these, and the bytes are
/// owned by the reclaimer: the era-clock schemes (he/ibr/wfe) stamp the
/// node's birth era here at allocation and read it back at retire, so a
/// node's lifetime interval travels with the node instead of through a
/// locked side table. Callers must never write to the header — allocate
/// with make_node<T>() (which preserves the stamp across construction)
/// or leave the first sizeof(NodeHeader) bytes untouched.
struct NodeHeader {
  std::uint64_t birth_era;
};

/// Per-registration-slot counters every FreeExecutor maintains. The
/// FreeSchedule's adaptive controller samples them to size its drain
/// quantum, and Reclaimer::stats_with_lanes() surfaces them to the
/// harness. All fields are monotonic except `backlog`. Summed over
/// lanes, `retired` and `drained` are SmrStats::retired and freed.
struct LaneStats {
  std::uint64_t ops = 0;       // completed operations on this lane
  std::uint64_t retired = 0;   // Reclaimer::retire calls on this lane
  std::uint64_t enqueued = 0;  // nodes handed over as reclaimable
  std::uint64_t drained = 0;   // nodes freed or pool-recycled
  std::uint64_t adopted = 0;   // nodes inherited from departing slots
  std::uint64_t backlog = 0;   // nodes currently held for this lane
  /// ns spent inside amortized drain bursts, and the node count those
  /// clocked bursts freed — the denominator for a ns-per-free estimate
  /// (`drained` also counts pool recycles and batch whole-bag frees,
  /// which are never clocked and would dilute it). Tracked only for
  /// policies that consume lane stats
  /// (FreeSchedule::consumes_lane_stats); constant-quantum schedules
  /// skip the clock reads and leave both 0.
  std::uint64_t drain_ns = 0;
  std::uint64_t timed_drained = 0;
  /// Home-flush routing (docs/FREE_SCHEDULES.md). `stashed` counts
  /// blocks this lane diverted into some owner's stash instead of
  /// freeing them foreign; `flushed` counts blocks that left *this*
  /// lane's stash (flushed locally by the owner, drained by the
  /// daemon, or folded into the adoption queue when the lane
  /// departed); `stash_backlog` is the gauge of blocks currently
  /// sitting in this lane's stash (also folded into `backlog`).
  std::uint64_t stashed = 0;
  std::uint64_t flushed = 0;
  std::uint64_t stash_backlog = 0;
  /// Per-tenant split of this lane's traffic, indexed by tenant id.
  /// Populated by lane_stats() only when the bundle runs multiple
  /// tenants (SmrConfig::tenants > 1) — single-tenant bundles leave the
  /// vectors empty so the snapshot stays allocation-free. A tenant's
  /// outstanding debt on the lane is enqueued - drained.
  std::vector<std::uint64_t> tenant_enqueued;
  std::vector<std::uint64_t> tenant_drained;
};

/// One tenant's bundle-wide totals, summed over lanes by
/// FreeExecutor::tenant_stats(). `retired` counts Reclaimer::retire
/// calls attributed to the tenant (debt enters limbo); `enqueued` those
/// nodes reaching the executor (grace elapsed); `backlog` the ones the
/// executor still holds (enqueued - drained). Scheme-side limbo is
/// retired - enqueued.
struct TenantStats {
  std::uint64_t retired = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t drained = 0;
  std::uint64_t backlog = 0;
};

/// Free-schedule policy: every batching decision in the retire->free
/// pipeline is answered here instead of by raw SmrConfig constants —
/// how many backlog nodes an amortizing executor frees at one op end,
/// how large a limbo bag / retire list may grow before it seals or
/// scans, and how much inventory the pooling executor keeps. Executors
/// and scheme TUs *ask* the policy; only the policy implementations
/// (smr/free_schedule.cpp) read the config's batching knobs. See
/// docs/FREE_SCHEDULES.md for the contract and the shipped policies
/// (fixed mirrors the config; adaptive is a population-aware feedback
/// controller).
///
/// Thread model: drain_quota/scan_threshold/pool_cap are called
/// concurrently from every lane and must be safe on shared state;
/// on_population is called under the registration lock.
class FreeSchedule {
 public:
  virtual ~FreeSchedule() = default;
  virtual const char* name() const = 0;

  /// Nodes an amortizing drain may free at one op end on this lane.
  /// Executors treat the result as a hard per-op ceiling.
  virtual std::size_t drain_quota(const LaneStats& lane) const = 0;

  /// Bag size that seals a limbo bag (epoch/token families) or retire
  /// list size that triggers a scan (hp/he/ibr/wfe/nbr), given the
  /// number of currently registered threads. Schemes may floor the
  /// result (hp applies Michael's H+1 bound) but never exceed it.
  virtual std::size_t scan_threshold(std::size_t population) const = 0;

  /// The pooling executor's per-lane inventory cap.
  virtual std::size_t pool_cap() const = 0;

  /// Population beat: the number of live ThreadHandles, pushed by the
  /// owning reclaimer after every register/deregister.
  virtual void on_population(std::size_t n) { (void)n; }

  /// Whether drain_quota() actually reads its LaneStats argument.
  /// Policies with a constant quantum return false so executors can
  /// skip the per-op stats snapshot and the drain-cost clock reads on
  /// the hot path (drain_ns then stays zero).
  virtual bool consumes_lane_stats() const { return true; }

  /// Home-flush quantum: how many blocks parked in this lane's
  /// remote-free stash the owner may flush locally at one op end
  /// (docs/FREE_SCHEDULES.md). Like drain_quota it is a hard per-op
  /// ceiling; unlike drain_quota the work is all-local frees, so
  /// policies may afford a larger quantum. Called concurrently from
  /// every lane (and the daemon) like drain_quota. The shipped
  /// policies derive it from SmrConfig::flush_batch.
  virtual std::size_t flush_quota(const LaneStats& lane) const = 0;

  /// Nodes one background-reclaimer tick may free from this lane
  /// (smr/reclaimer_daemon.hpp). The daemon runs off the op path, so
  /// its quantum may exceed the per-op ceiling: the default scales the
  /// op quota — gently when the system is merely quiet, harder under
  /// backlog pressure. Called from the daemon thread concurrently with
  /// drain_quota.
  virtual std::size_t daemon_quota(const LaneStats& lane,
                                   bool pressure) const {
    const std::size_t q = drain_quota(lane);
    return pressure ? q * 8 : q * 2;
  }
};

/// The reclamation ledger: lane sums read exits first (see
/// Reclaimer::stats), so freed <= retired and pending never wraps.
struct SmrStats {
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;    // reached the allocator or was pool-recycled
  std::uint64_t pending = 0;  // retired - freed
  /// Scheme-specific progress beat: epoch advances (ebr), full token
  /// rotations (token), retire-list scans (hp), era advances (he/ibr/
  /// wfe/nbr).
  std::uint64_t epochs_advanced = 0;
  /// Per-registration-slot executor counters. Filled only by
  /// Reclaimer::stats_with_lanes(), whose retired/freed are the sums
  /// of these rows; plain stats() leaves it empty and never allocates.
  std::vector<LaneStats> lanes;
};

/// Free-schedule executor base: the reclaimer hands bags of
/// safe-to-reclaim nodes here, and the executor turns them into
/// allocator traffic (see smr/free_executor.hpp for the batch, amortized,
/// and pooling implementations). *When* and *how much* to free is not
/// the executor's call: every quantum comes from the FreeSchedule
/// policy it is constructed over.
///
/// Executors do not see thread identity at all: every entry point takes
/// the registration-slot `lane` the owning reclaimer derived from the
/// calling ThreadHandle. A lane changes hands when a slot is recycled —
/// the successor thread inherits (and keeps amortizing) whatever backlog
/// its predecessor's handle left behind.
///
/// Contract:
///  - Ownership of every pointer in an on_reclaimable() bag transfers to
///    the executor; the reclaimer must never touch it again. Each such
///    pointer is released exactly once — either by a single
///    allocator->deallocate() (counted into total_freed() by timed_free)
///    or, for the pooling executor, by being handed back out of
///    alloc_node() (also counted: recycling is how the node leaves
///    limbo).
///  - A node handed over is safe to reclaim *now*; executors may delay
///    the actual free arbitrarily (delaying is always safe) but may
///    never free early, because they never see unsafe nodes at all.
///  - alloc_node()/on_reclaimable()/on_op_end() are called by the thread
///    currently owning `lane` only and must be thread-safe across
///    *different* lanes (per-lane state, atomic counters). quiesce() and
///    destruction are single-threaded: callers must ensure no thread is
///    inside an operation.
///  - quiesce(lane) drains every node the executor still holds for that
///    lane; after quiesce has run for all lanes, backlog() == 0 and
///    total_freed() equals the number of nodes ever handed over (plus
///    pool recycles).
///  - A background ReclaimerDaemon may call daemon_drain() on any lane
///    concurrently with the lane owner — but only after the bundle was
///    armed with set_daemon_hooked(true) *before threads started*. The
///    hook turns on a per-lane spinlock around every backlog mutation;
///    unhooked bundles never touch the lock, so daemon-off runs are
///    instruction-identical to a build without the daemon.
///  - Home-flush routing (set_home_flush(true), the *_hf factory
///    names): a drain path about to free a block whose allocator home
///    lane differs from the freeing lane pushes it onto the home
///    lane's lock-free MPSC stash instead (one release-CAS, no
///    allocation — the link lives in the dead node's first 8 bytes).
///    The owner flushes its own stash locally at
///    FreeSchedule::flush_quota per op; the daemon covers departed or
///    idle lanes; a departing lane's stash folds into the adoption
///    queue; quiesce() drains the lane's stash completely and latches
///    routing off, so teardown strands nothing. Routing off (the
///    default) touches none of this — non-hf bundles stay
///    instruction-identical to pre-routing builds.
class FreeExecutor {
 public:
  FreeExecutor(const SmrContext& ctx, const SmrConfig& cfg,
               FreeSchedule* schedule);
  virtual ~FreeExecutor() = default;

  /// Serves a node allocation; the default goes straight to the
  /// allocator. Pooling overrides this.
  virtual void* alloc_node(int lane, std::size_t size);

  /// A bag of nodes is now safe to reclaim. Ownership transfers.
  virtual void on_reclaimable(int lane, std::vector<void*>&& bag) = 0;

  /// A departing slot's hand-off: nodes that are already safe but must
  /// not hit the allocator in one burst (the churn-aware departure
  /// drain). The default parks the bag in a per-lane adoption queue
  /// that on_op_end drains at the schedule's quota; amortizing
  /// executors fold it into their normal freeable backlog instead,
  /// which obeys the same quota. Ownership transfers.
  virtual void on_adopted(int lane, std::vector<void*>&& bag);

  /// Routing shorthand for the scheme TUs' drain paths: a bag left by
  /// a departed generation goes through the amortizing adoption queue,
  /// a fresh one straight to the schedule's normal path.
  void hand_over(int lane, bool adopted, std::vector<void*>&& bag) {
    if (adopted) {
      on_adopted(lane, std::move(bag));
    } else {
      on_reclaimable(lane, std::move(bag));
    }
  }

  /// Called once per completed operation (the amortization hook). The
  /// base implementation counts the op and drains the lane's adoption
  /// queue at the schedule's quota; overrides must uphold the same
  /// per-op ceiling across every backlog they drain.
  virtual void on_op_end(int lane);

  /// Frees any backlog held for `lane`. Single-threaded use only.
  virtual void quiesce(int lane);

  /// Nodes freed or recycled (== left limbo), summed over lanes. Acquire
  /// loads: a retired count read afterwards covers every free seen here.
  std::uint64_t total_freed() const {
    return lane_sum(lanes_, &LaneState::drained, std::memory_order_acquire);
  }
  /// Reclaimer::retire calls, summed over lanes (note_retired).
  std::uint64_t total_retired() const {
    return lane_sum(lanes_, &LaneState::retired);
  }

  // ---- home-flush routing (docs/FREE_SCHEDULES.md) ----

  /// Arms remote-free routing through the per-lane owner stashes. The
  /// factory flips it once at construction for *_hf names (or under
  /// the EMR_HOME_FLUSH override); must not change while threads run.
  void set_home_flush(bool on) { home_flush_ = on; }
  bool home_flush() const { return home_flush_; }

  /// Blocks ever diverted into a stash, summed over lanes.
  std::uint64_t total_stashed() const {
    return lane_sum(lanes_, &LaneState::stashed);
  }
  /// Blocks that ever left a stash (owner flush, daemon drain,
  /// departure adoption, quiesce), summed over lanes. At any quiescent
  /// point total_stashed() == total_flushed() + total_stash_backlog();
  /// after flush_all the backlog term is zero — the exact-ledger
  /// teardown check.
  std::uint64_t total_flushed() const {
    return lane_sum(stash_, &RemoteStash::flushed);
  }
  /// Blocks currently sitting in stashes, summed over lanes.
  std::uint64_t total_stash_backlog() const {
    return lane_sum(stash_, &RemoteStash::backlog);
  }

  /// Registry hook: `lane`'s owner deregistered. Folds the lane's
  /// stash into its adoption queue so a departed lane never strands
  /// blocks — the successor (or daemon, or flush_all) drains them at
  /// the usual quota instead of in a burst. Called under the
  /// registration lock while the slot is unowned.
  void on_lane_released(int lane);

  /// Nodes held in per-lane backlogs: adoption queues plus any
  /// executor-specific freeable lists.
  std::uint64_t backlog() const;

  /// The policy every quantum is sourced from.
  FreeSchedule& schedule() const { return *schedule_; }

  /// Snapshot of one lane's counters. Readable from any thread.
  LaneStats lane_stats(int lane) const;

  /// Every lane's snapshot, all exit counters read before any entry
  /// counter: summed rows keep freed <= retired across lanes.
  std::vector<LaneStats> all_lane_stats() const;

  std::size_t lane_count() const { return lanes_.size(); }

  // ---- multi-tenant accounting (SmrConfig::tenants > 1) ----

  int tenant_count() const { return tenants_; }

  /// Tags `lane`'s *subsequent* traffic — retires, hand-overs, drains —
  /// with `tenant`. The harness stores the tenant before each op;
  /// relaxed is enough because only the lane owner reads it back on the
  /// same call path. No-op bookkeeping when single-tenant.
  void set_lane_tenant(int lane, std::uint32_t tenant) {
    if (multi_tenant_) {
      lanes_[static_cast<std::size_t>(lane)].tenant.store(
          clamp_tenant(tenant), std::memory_order_relaxed);
    }
  }

  std::uint32_t lane_tenant(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)].tenant.load(
        std::memory_order_relaxed);
  }

  /// One retire on `lane`, counted on the lane's own line (and to its
  /// tenant when multi-tenant). Called by Reclaimer::retire().
  void note_retired(int lane) {
    lanes_[static_cast<std::size_t>(lane)].retired.fetch_add(
        1, std::memory_order_relaxed);
    if (multi_tenant_) {
      tenant_retired_[tenant_cell(lane, lane_tenant(lane))].fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  /// One tenant's totals summed over lanes. Readable from any thread;
  /// zeros when single-tenant or out of range.
  TenantStats tenant_stats(int tenant) const;

  // ---- background-daemon hooks (smr/reclaimer_daemon.hpp) ----

  /// Arms (or disarms) the per-lane locking that makes daemon_drain
  /// safe against lane owners. Must be called while no thread is inside
  /// an operation and no daemon is running — the harness flips it once
  /// at trial setup. Plain bool: the arming itself is not a
  /// synchronization point.
  void set_daemon_hooked(bool on) { daemon_hooked_ = on; }
  bool daemon_hooked() const { return daemon_hooked_; }

  /// Frees up to `quota` nodes of `lane`'s backlog from the daemon
  /// thread, whose own registration slot is `daemon_lane` — the frees
  /// go to the daemon's allocator lane (its thread cache), the stats to
  /// the drained lane. Pool inventory at or under daemon_floor() is
  /// deliberately left alone. Requires daemon_hooked(); returns nodes
  /// freed.
  virtual std::size_t daemon_drain(int lane, std::size_t quota,
                                   int daemon_lane);

 protected:
  struct alignas(64) LaneState {
    /// Departure hand-offs awaiting the amortized adoption drain. Only
    /// the lane's owning thread (or a registry hook while the slot is
    /// unowned) touches the deque — plus, when a daemon is hooked, the
    /// daemon under `mu`; the atomic mirrors are for readers.
    std::deque<void*> adopted;
    /// Tenant tags parallel to `adopted`, maintained only when
    /// multi-tenant (empty otherwise).
    std::deque<std::uint32_t> adopted_tags;
    /// Un-flushed remainder of the last stash grab: the drainer takes
    /// the whole Treiber stack in one exchange but flushes only
    /// flush_quota blocks per op, so the rest waits here as a private
    /// intrusive chain. Owned like `adopted` (owner thread, or the
    /// daemon under `mu`); counted in RemoteStash::backlog until
    /// freed.
    void* stash_chain = nullptr;
    /// Guards the backlog containers; taken only while a daemon is
    /// hooked (uncontended test-and-set otherwise skipped entirely).
    Spinlock mu;
    /// Hot per-op counters start on their own cache line (alignas
    /// below): the sampler/daemon read them concurrently, and sharing
    /// a line with the owner-mutated containers above would ping-pong
    /// every adoption push (the PR 10 false-sharing audit).
    alignas(64) std::atomic<std::uint32_t> tenant{0};
    std::atomic<std::uint64_t> ops{0};
    /// The ledger, lane-local so no per-op path writes a bundle-wide
    /// line: retires on this lane, and nodes freed or recycled for it.
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> drained{0};
    std::atomic<std::uint64_t> adopted_total{0};
    std::atomic<std::uint64_t> adopted_backlog{0};
    std::atomic<std::uint64_t> drain_ns{0};
    std::atomic<std::uint64_t> timed_drained{0};
    /// Blocks this lane diverted into some owner's stash (monotonic).
    std::atomic<std::uint64_t> stashed{0};
  };
  static_assert(alignof(LaneState) == 64 && sizeof(LaneState) % 64 == 0,
                "LaneState must tile cache lines so lanes never share");

  /// One lane's remote-free stash: a lock-free MPSC Treiber stack any
  /// lane pushes onto (release-CAS; the link overlays the dead node's
  /// NodeHeader) and only the owner — or the daemon/quiesce path under
  /// the lane lock — pops, via a single exchange. Lives apart from
  /// LaneState on its own cache line because *foreign* lanes write it:
  /// pushers must not drag the owner's hot counters around with the
  /// head pointer. `backlog` is incremented before the push publishes
  /// and decremented only after a block leaves (free or adoption), so
  /// the gauge never reads negative. `flushed` counts every exit.
  struct alignas(64) RemoteStash {
    std::atomic<void*> head{nullptr};
    std::atomic<std::uint64_t> backlog{0};
    std::atomic<std::uint64_t> flushed{0};
  };
  static_assert(sizeof(RemoteStash) == 64,
                "RemoteStash must own exactly one cache line");

  /// RAII lane lock that collapses to nothing while no daemon is
  /// hooked — the common case pays one predictable branch.
  class LaneLock {
   public:
    LaneLock(LaneState& l, bool hooked) : l_(hooked ? &l : nullptr) {
      if (l_ != nullptr) l_->mu.lock();
    }
    ~LaneLock() {
      if (l_ != nullptr) l_->mu.unlock();
    }
    LaneLock(const LaneLock&) = delete;
    LaneLock& operator=(const LaneLock&) = delete;

   private:
    LaneState* l_;
  };

  /// Frees one node through the allocator, timing it into the trial
  /// timeline as a kFreeCall when instrumentation is on.
  void timed_free(int lane, void* p) { timed_free_as(lane, lane, p); }

  /// timed_free with split attribution: stats (drained counters) to
  /// `stats_lane`, the allocator call and timeline event to
  /// `alloc_lane` — the daemon frees on its own allocator lane so the
  /// modelled thread caches stay single-owner.
  void timed_free_as(int stats_lane, int alloc_lane, void* p);

  /// timed_free_as through allocator->free_local_hint: the stash-drain
  /// free, promising the backend the cross-lane cost was already paid
  /// in bulk.
  void timed_hint_free(int stats_lane, int alloc_lane, void* p);

  /// One node left limbo, counted on `lane`. Release pairs with
  /// total_freed()'s acquire loads: whoever sees this free also sees
  /// the node's retire count.
  void note_drained(int lane) {
    lane_state(lane).drained.fetch_add(1, std::memory_order_release);
  }

  /// One counter summed over a per-lane array (lanes_, stash_, ...).
  template <typename Row>
  static std::uint64_t lane_sum(
      const std::vector<Row>& rows, std::atomic<std::uint64_t> Row::*counter,
      std::memory_order order = std::memory_order_relaxed) {
    std::uint64_t t = 0;
    for (const Row& r : rows) t += (r.*counter).load(order);
    return t;
  }

  /// Pops the oldest node of a lane backlog (`nodes` with its parallel
  /// tenant `tags`), settling the tenant's drain count.
  void* pop_backlog(int lane, std::deque<void*>& nodes,
                    std::deque<std::uint32_t>& tags);

  /// Frees up to `quota` nodes from the lane's adoption queue; returns
  /// how many it freed. Takes the lane lock internally when hooked.
  std::size_t drain_adopted(int lane, std::size_t quota);

  /// The hot-path free for every amortizing/batched drain: when
  /// home-flush routing is armed and `p`'s allocator home lane is a
  /// different live lane than `alloc_lane`, the block is pushed onto
  /// the home lane's stash (counted `stashed` on `stats_lane`) instead
  /// of being freed foreign; otherwise it is a plain timed_free_as.
  /// quiesce() never routes (it frees directly), and the first quiesce
  /// latches routing off for the rest of the teardown pass so
  /// interleaved hand-over/quiesce loops cannot re-scatter blocks into
  /// already-quiesced stashes.
  void routed_free(int stats_lane, int alloc_lane, void* p);

  /// Pushes `p` onto `home`'s stash. Lock-free, called from any lane.
  void stash_push(int stats_lane, int home, void* p);

  /// Flushes up to `quota` blocks from `lane`'s own stash through
  /// allocator->free_local_hint on `alloc_lane` (the owner passes its
  /// own lane; the daemon its own slot). Takes the lane lock when
  /// hooked; returns blocks freed.
  std::size_t drain_stash(int lane, std::size_t quota, int alloc_lane);

  /// Per-op stash flush at the schedule's flush_quota; no-op unless
  /// routing is armed and the lane's stash is non-empty. Also re-arms
  /// routing after a mid-run flush_all (the teardown latch), which is
  /// safe here because on_op_end proves the bundle is live again.
  void maybe_flush_stash(int lane);

  std::size_t tenant_cell(int lane, std::uint32_t tenant) const {
    return static_cast<std::size_t>(lane) *
               static_cast<std::size_t>(tenants_) +
           tenant;
  }

  std::uint32_t clamp_tenant(std::uint32_t t) const {
    return t < static_cast<std::uint32_t>(tenants_) ? t : 0;
  }

  void note_tenant_enqueued(int lane, std::uint32_t t, std::uint64_t n) {
    if (multi_tenant_ && n > 0) {
      tenant_enqueued_[tenant_cell(lane, t)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }

  void note_tenant_drained(int lane, std::uint32_t t, std::uint64_t n) {
    if (multi_tenant_ && n > 0) {
      tenant_drained_[tenant_cell(lane, t)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }

  /// Backlog the daemon must not drain below (the pooling executor's
  /// inventory cap — recycling stock is not debt).
  virtual std::size_t daemon_floor() const { return 0; }

  /// The schedule's quantum for this lane's op end. Builds the stats
  /// snapshot only when the policy consumes it, so constant-quantum
  /// schedules cost one virtual call per op.
  std::size_t drain_quota_for(int lane) const {
    if (!stats_hungry_) return schedule_->drain_quota(LaneStats{});
    return schedule_->drain_quota(lane_stats(lane));
  }

  LaneState& lane_state(int lane);
  const LaneState& lane_state(int lane) const;

  /// The two halves of a lane snapshot: exit counters (drained,
  /// flushed), then entry counters and gauges.
  void read_exits(int lane, LaneStats& s) const;
  void read_entries(int lane, LaneStats& s) const;

  /// Executor-specific backlog beyond the adoption queue (the
  /// amortized executor's freeable list).
  virtual std::uint64_t lane_backlog(int lane) const {
    (void)lane;
    return 0;
  }

  SmrContext ctx_;
  FreeSchedule* schedule_;
  bool stats_hungry_;  // schedule_->consumes_lane_stats(), cached
  int tenants_;
  bool multi_tenant_;
  bool daemon_hooked_ = false;
  /// Home-flush routing armed (set_home_flush). Plain bool like
  /// daemon_hooked_: flipped only while no thread runs.
  bool home_flush_ = false;
  /// Teardown latch: set by the first quiesce() so the rest of an
  /// interleaved flush_all pass frees directly instead of routing;
  /// cleared by maybe_flush_stash when ops resume. Relaxed atomic —
  /// it only gates an optimization, never correctness.
  std::atomic<bool> teardown_{false};
  std::vector<LaneState> lanes_;
  std::vector<RemoteStash> stash_;
  // lane-major [lane][tenant] grids, allocated only when multi-tenant.
  std::unique_ptr<std::atomic<std::uint64_t>[]> tenant_retired_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> tenant_enqueued_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> tenant_drained_;
};

/// RAII thread registration. A thread joins a reclaimer's population
/// with register_thread(), drives every read-side call through the
/// returned handle, and leaves by letting the handle die (or calling
/// release() early). Internally the handle pins one registration slot —
/// the dense lane index every per-thread array in the scheme, executor
/// and allocator layers is keyed by — plus the slot's generation, which
/// bumps each time the slot is recycled to a new thread.
///
/// Contract:
///  - One live thread per handle at a time; handles are movable, never
///    copyable. A thread may hold handles on several reclaimers, and a
///    single-threaded driver may multiplex several handles of one
///    reclaimer (the tests do), but two threads must never share one.
///  - Release only outside an operation (no live Guard on the handle).
///    Releasing hands the slot's retire backlog to the scheme's
///    departure path: anything already safe drains, the rest is adopted
///    by the slot's next owner or by flush_all() — never leaked, and
///    the departed thread never pins the epoch.
///  - Handles must not outlive their Reclaimer.
class ThreadHandle {
 public:
  ThreadHandle() = default;
  ThreadHandle(ThreadHandle&& o) noexcept
      : r_(o.r_), slot_(o.slot_), gen_(o.gen_) {
    o.r_ = nullptr;
    o.slot_ = -1;
  }
  ThreadHandle& operator=(ThreadHandle&& o) noexcept {
    if (this != &o) {
      release();
      r_ = o.r_;
      slot_ = o.slot_;
      gen_ = o.gen_;
      o.r_ = nullptr;
      o.slot_ = -1;
    }
    return *this;
  }
  ~ThreadHandle() { release(); }

  ThreadHandle(const ThreadHandle&) = delete;
  ThreadHandle& operator=(const ThreadHandle&) = delete;

  /// Deregisters now (idempotent); the handle is detached afterwards.
  void release();

  bool attached() const { return r_ != nullptr; }

  /// The registration slot (dense lane index). Meaningful only while
  /// attached; exposed for instruments and allocator lanes.
  int slot() const { return slot_; }

  /// How many threads (including this one) have owned the slot.
  std::uint64_t generation() const { return gen_; }

  Reclaimer& reclaimer() const { return *r_; }

 private:
  friend class Reclaimer;
  ThreadHandle(Reclaimer* r, int slot, std::uint64_t gen)
      : r_(r), slot_(slot), gen_(gen) {}

  Reclaimer* r_ = nullptr;
  int slot_ = -1;
  std::uint64_t gen_ = 0;
};

/// A safe-memory-reclamation scheme.
///
/// Contract:
///  - Thread model: every read-side call is made through a live
///    ThreadHandle from register_thread(). A given handle's
///    begin_op/protect/retire/end_op/alloc_node calls are made by one
///    thread at a time, bracketed begin_op..end_op per operation.
///    Different handles run concurrently; implementations communicate
///    between them only through atomics (announcements, hazard slots,
///    era reservations).
///  - retire(h, p) transfers ownership of `p` to the scheme. The node
///    must already be unreachable from the structure (unlinked). It will
///    be released exactly once: handed to the FreeExecutor no earlier
///    than when no concurrent protect()/begin_op() publication still
///    covers it. A handle released with retires still in limbo does not
///    leak them — the departure path drains what grace already allows
///    and leaves the rest for the slot's next owner or flush_all().
///  - protect(h, idx, load, src) returns a pointer read through
///    `load(src)` that is guaranteed not to be handed to the executor
///    until the protection lapses (end_op for slot/era schemes; the next
///    neutralized protect for nbr). Epoch-class schemes return the plain
///    load — their begin_op/end_op bracket is the protection.
///  - flush_all() is the teardown path: callers guarantee no thread is
///    inside an operation; the scheme drops every publication, hands all
///    retired nodes (every slot's, vacant ones included) to the executor
///    and quiesces it, leaving stats().pending == 0. It is idempotent
///    and runs again from the destructor.
///  - stats() may be called concurrently with operations; counters are
///    monotonic and may lag each other, but freed never exceeds retired.
class Reclaimer {
 public:
  virtual ~Reclaimer() = default;

  /// Joins the calling thread to the population: claims a free slot
  /// (recycling released ones through a free-list), bumps its
  /// generation, runs the scheme's adoption hook, and returns the RAII
  /// handle. Throws std::runtime_error when all slot_capacity() slots
  /// are live — the error names the capacity and the knobs that raise
  /// it (SmrConfig::num_threads/extra_slots, EMR_EXTRA_SLOTS from the
  /// harness).
  ThreadHandle register_thread();

  void begin_op(ThreadHandle& h) { begin_op_slot(check(h)); }
  void end_op(ThreadHandle& h) { end_op_slot(check(h)); }

  /// Loads a pointer through `load(src)` under this scheme's protection
  /// (hazard-pointer-class schemes publish + fence + validate; epoch
  /// schemes are a plain load). `idx` selects the protection slot; any
  /// non-negative value is accepted (taken mod the slot count). The
  /// returned word is exactly what `load` produced — tag bits a structure
  /// keeps in the low pointer bits come back intact, and a tagged result
  /// means the source node is being unlinked (restart from a root rather
  /// than dereferencing it).
  using LoadFn = void* (*)(const void* src);
  void* protect(ThreadHandle& h, int idx, LoadFn load, const void* src) {
    return protect_slot(check(h), idx, load, src);
  }

  /// Read-side validation hook: true while every pointer obtained earlier
  /// in this operation is still protected. Schemes that can revoke
  /// protection mid-operation override it — NBR returns false once the
  /// thread has been neutralized (re-announcing at the current era as it
  /// does), after which the caller must drop every pointer it holds and
  /// restart from a structure root. Lock-free traversals call this once
  /// per hop; all other schemes return true unconditionally.
  bool validate(ThreadHandle& h) { return validate_slot(check(h)); }

  void retire(ThreadHandle& h, void* p) {
    const int slot = check(h);
    // Count the debt (and its tenant) before it enters limbo.
    executor_->note_retired(slot);
    retire_slot(slot, p);
  }

  /// Node allocation goes through the reclaimer so pooling variants can
  /// serve it from the freeable list and era schemes can stamp birth
  /// eras.
  void* alloc_node(ThreadHandle& h, std::size_t size) {
    return alloc_node_slot(check(h), size);
  }

  /// Returns a node that was never published to the structure (or is
  /// being torn down single-threadedly) straight to the allocator.
  void dealloc_unpublished(ThreadHandle& h, void* p) {
    dealloc_unpublished_slot(check(h), p);
  }

  /// Handle-less unpublished-node return for teardown paths that may
  /// run with the slot table exhausted (destructors must not throw).
  /// Uses lane 0; callers guarantee no thread is operating through
  /// this reclaimer — the same single-threaded contract as flush_all().
  void dealloc_teardown(void* p) { dealloc_unpublished_slot(0, p); }

  /// Quiesces and frees every retired node. Call only when no thread is
  /// inside an operation (trial teardown, tests).
  virtual void flush_all() = 0;

  /// The ledger (executor lane sums) plus the scheme's progress-beat
  /// count. Sums every lane — meant for samplers, not per-op paths.
  SmrStats stats() const;

  /// stats() plus the executor's per-lane counters (SmrStats::lanes):
  /// one LaneStats per registration slot, with retired/freed summed
  /// from those rows. Costs a vector allocation — meant for
  /// instruments and traces, not hot paths.
  SmrStats stats_with_lanes() const;

  FreeExecutor& executor() const { return *executor_; }
  virtual const char* name() const = 0;

  /// Implementation family: "ebr", "token", "hp", "era", or "nbr".
  /// Lets tests and CI assert that the pointer-protecting names are not
  /// quietly aliased onto the epoch machinery.
  virtual const char* family() const = 0;

  /// Registration-slot table size (SmrConfig::slot_capacity()).
  std::size_t slot_capacity() const { return slot_state_.size(); }

  /// True while a live ThreadHandle owns `slot`. Readable from any
  /// thread; schemes use it to route around vacant slots (the token
  /// ring) and tests to observe churn.
  bool slot_active(int slot) const {
    const std::size_t i = static_cast<std::size_t>(slot);
    return i < slot_state_.size() &&
           slot_state_[i].active.load(std::memory_order_acquire);
  }

  /// Currently registered handles.
  std::size_t active_slots() const {
    return active_count_.load(std::memory_order_acquire);
  }

 protected:
  Reclaimer(const SmrConfig& cfg, FreeExecutor* executor);

  /// Scheme-specific progress beats (SmrStats::epochs_advanced).
  virtual std::uint64_t progress_beats() const = 0;

  // Per-slot entry points the scheme TUs implement. `slot` is the dense
  // lane index the public handle API resolved; one thread drives a slot
  // at a time (the handle contract), distinct slots run concurrently.
  virtual void begin_op_slot(int slot) = 0;
  virtual void end_op_slot(int slot) = 0;
  virtual void* protect_slot(int slot, int idx, LoadFn load,
                             const void* src) = 0;
  virtual bool validate_slot(int slot) {
    (void)slot;
    return true;
  }
  virtual void retire_slot(int slot, void* p) = 0;
  virtual void* alloc_node_slot(int slot, std::size_t size) = 0;
  virtual void dealloc_unpublished_slot(int slot, void* p) = 0;

  /// Generation hand-off hooks, run under the registry lock while the
  /// slot is unowned (register: before the slot goes active, so the
  /// incoming thread may adopt a predecessor's aged backlog;
  /// deregister: after it went inactive, so the scheme drops the
  /// departing thread's publications — announcements, hazard slots, era
  /// reservations — and drains or parks its retire backlog). Concurrent
  /// readers may be scanning the slot's atomics throughout.
  virtual void on_slot_register(int slot) { (void)slot; }
  virtual void on_slot_deregister(int slot) { (void)slot; }

  /// Population beat, run under the registry lock after active_slots()
  /// has been updated (register and deregister). Schemes that cache a
  /// population-derived quantum — the epoch/token families keep their
  /// bag-seal threshold out of the per-retire path — refresh it here;
  /// the free schedule receives the same beat via
  /// FreeSchedule::on_population.
  virtual void on_population_change(std::size_t live) { (void)live; }

  FreeExecutor* const executor_;

 private:
  friend class ThreadHandle;

  void deregister(ThreadHandle& h);

  int check(const ThreadHandle& h) const {
    if (h.r_ != this) {
      throw std::logic_error(
          "ThreadHandle is detached or belongs to another reclaimer");
    }
    return h.slot_;
  }

  struct alignas(64) SlotState {
    std::atomic<bool> active{false};
    std::uint64_t generation = 0;
  };

  std::vector<SlotState> slot_state_;
  std::vector<int> free_slots_;  // LIFO: hottest slot is reused first
  std::mutex reg_mu_;
  std::atomic<std::size_t> active_count_{0};
};

inline void ThreadHandle::release() {
  if (r_ != nullptr) {
    r_->deregister(*this);
    r_ = nullptr;
    slot_ = -1;
  }
}

/// make_reclaimer's result. Destruction order matters: the reclaimer
/// flushes through the executor and the executor asks the schedule for
/// quanta, so the schedule is declared first (destroyed last), then the
/// executor, then the reclaimer.
struct ReclaimerBundle {
  std::unique_ptr<FreeSchedule> schedule;
  std::unique_ptr<FreeExecutor> executor;
  std::unique_ptr<Reclaimer> reclaimer;
};

/// RAII read-side guard: one Guard brackets one structure operation
/// (begin_op at construction, end_op at destruction) on behalf of a
/// registered ThreadHandle, and every hazardous load inside the bracket
/// goes through protect(). This is the whole read-side protocol a
/// lock-free structure needs:
///
///   Guard g(handle);
///   Node* n = g.protect(0, root_);          // slot 0
///   while (...) {
///     if (ds::is_marked(n)) goto restart;   // source was being unlinked
///     if (!g.validate()) goto restart;      // NBR neutralization
///     n = g.protect(depth & 1, n->next);    // parent stays protected
///   }
///
/// protect() alternating between two slots keeps the previous hop's node
/// protected while the next one is published — the hand-over-hand pattern
/// every hazard-class scheme needs; epoch-class schemes ignore the slot.
/// Guards do not nest on one handle: a thread runs one guarded operation
/// at a time, and must not release the handle while a Guard is live.
class Guard {
 public:
  explicit Guard(ThreadHandle& h) : r_(h.reclaimer()), h_(h) {
    r_.begin_op(h_);
  }
  ~Guard() { r_.end_op(h_); }

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  /// Protected load of `src`, tag bits preserved (see
  /// Reclaimer::protect).
  template <typename T>
  T* protect(int slot, const std::atomic<T*>& src) {
    return static_cast<T*>(r_.protect(h_, slot, &load_fn<T>, &src));
  }

  /// True while earlier pointers from this guard are still protected;
  /// false means restart from a root (NBR neutralization).
  bool validate() { return r_.validate(h_); }

  /// Retires an unlinked node through the guarded reclaimer.
  void retire(void* p) { r_.retire(h_, p); }

  ThreadHandle& handle() const { return h_; }
  Reclaimer& reclaimer() const { return r_; }

 private:
  template <typename T>
  static void* load_fn(const void* src) {
    return static_cast<const std::atomic<T*>*>(src)->load(
        std::memory_order_acquire);
  }

  Reclaimer& r_;
  ThreadHandle& h_;
};

/// Deallocation cursor for single-threaded teardown (the ds/
/// destructors): registers a transient handle when a slot is free — so
/// the frees land on their own allocator lane — and degrades to the
/// handle-less dealloc_teardown() path when the table is exhausted,
/// because a destructor must not let register_thread()'s exhaustion
/// error escape. Callers guarantee no thread is operating through the
/// reclaimer for the cursor's lifetime (the flush_all() contract).
class TeardownCursor {
 public:
  explicit TeardownCursor(Reclaimer& r) : r_(r) {
    try {
      h_ = r_.register_thread();
    } catch (const std::runtime_error&) {
      // Full slot table: fall back to lane 0. Teardown is
      // single-threaded, so the lane is quiescent even when its owner
      // is still registered.
    }
  }

  void dealloc(void* p) {
    if (h_.attached()) {
      r_.dealloc_unpublished(h_, p);
    } else {
      r_.dealloc_teardown(p);
    }
  }

 private:
  Reclaimer& r_;
  ThreadHandle h_;
};

/// Allocates a node through the handle's reclaimer and constructs a T in
/// it while preserving the reclaimer's NodeHeader stamp (T's constructor
/// would otherwise zero the birth era). T must be standard-layout with a
/// NodeHeader as its first member.
template <typename T, typename... Args>
T* make_node(ThreadHandle& h, Args&&... args) {
  static_assert(std::is_standard_layout_v<T>,
                "node types must be standard-layout so the NodeHeader "
                "stays at offset 0");
  static_assert(sizeof(T) >= sizeof(NodeHeader));
  void* p = h.reclaimer().alloc_node(h, sizeof(T));
  const NodeHeader stamp = *static_cast<const NodeHeader*>(p);
  T* t = new (p) T(std::forward<Args>(args)...);
  *reinterpret_cast<NodeHeader*>(t) = stamp;
  return t;
}

}  // namespace emr::smr
