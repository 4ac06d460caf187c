// Trial harness: configuration, the mixed insert/delete/lookup key-range
// workload the paper runs (50% inserts / 50% deletes over a fixed key
// range, prefilled to half), per-trial measurement, multi-trial
// aggregation, and the thread-churn mode (workers deregister and fresh
// threads register mid-trial) the ThreadHandle API unlocks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/arrival.hpp"
#include "core/garbage.hpp"
#include "core/latency.hpp"
#include "core/rng.hpp"
#include "core/timeline.hpp"
#include "smr/reclaimer.hpp"
#include "smr/reclaimer_daemon.hpp"

namespace emr::ds {
class ConcurrentSet;
class ConcurrentQueue;
}

namespace emr::harness {

struct TrialConfig {
  std::string ds = "abtree";      // abtree | occtree | dgt | shardedset
  std::string reclaimer = "debra";
  std::string allocator = "je";
  int nthreads = 4;
  std::uint64_t keyrange = 1 << 14;
  int measure_ms = 200;
  int trials = 1;
  std::uint64_t seed = 42;
  /// Operation mix; lookups take the remaining fraction.
  double insert_frac = 0.5;
  double erase_frac = 0.5;
  /// Thread-churn mode: every churn_interval_ms of the measured window
  /// one worker deregisters its ThreadHandle and exits, and a fresh
  /// thread registers and takes over its lane (round-robin over the
  /// workers). 0 disables churn; churn requires nthreads >= 2.
  /// EMR_CHURN_MS.
  int churn_interval_ms = 0;
  bool enable_timeline = false;
  bool enable_garbage = false;
  /// Sample the free-schedule controller during the measured window: a
  /// background sampler records executor backlog, the current drain
  /// quantum of the most-loaded lane, and the registered population
  /// every schedule_sample_ms, into TrialResult::schedule_trace.
  bool enable_schedule_trace = false;
  int schedule_sample_ms = 2;
  /// Per-op latency measurement: workers clock every operation into a
  /// per-lane log2 histogram (core/latency.hpp) and TrialResult carries
  /// the merged p50/p99/p99.9/max. Only this flag arms the recorder;
  /// with it off, ops take no clock reads for it.
  bool enable_latency = false;
  std::uint64_t timeline_min_duration_ns = 10'000;
  // ---- service mode (docs/SERVICE_MODE.md) ----
  /// "closed" runs the classic closed loop (workers issue back to back);
  /// "poisson" | "burst" switch to open-loop traffic: a seeded arrival
  /// schedule (core/arrival.hpp) is generated up front and workers serve
  /// it on time, recording queueing delay separately from service
  /// latency. EMR_ARRIVAL.
  std::string arrival = "closed";
  /// Open-loop mean offered load, ops/s across all workers. EMR_RATE_OPS.
  double rate_ops = 100'000;
  /// Zipfian key skew (0 = uniform). Applies to open-loop schedules and
  /// to the closed-loop OpStream alike. EMR_ZIPF_S.
  double zipf_s = 0.0;
  /// Rate multipliers over equal slices of the window, e.g. "2,0.05" =
  /// busy half then near-idle tail. EMR_PHASES.
  std::vector<double> phases = {1.0};
  /// Background reclaimer daemon level: "off" | "optimistic" |
  /// "aggressive" (smr/reclaimer_daemon.hpp). "off" leaves the bundle
  /// instruction-identical to the pre-daemon harness.
  /// EMR_RECLAIMER_DAEMON.
  std::string reclaimer_daemon = "off";
  /// Daemon tick period. EMR_DAEMON_MS.
  int daemon_period_ms = 1;
  // ---- hardware realism (docs/ALLOCATORS.md) ----
  /// CPU affinity layout: "off" | "compact" | "scatter"
  /// (core/affinity.hpp). Workers pin themselves before the measured
  /// window opens, and the reclaimer daemon takes the slot after the
  /// workers'. EMR_PIN.
  std::string pin = "off";
  // ---- pipeline workload (ds/queue.hpp) ----
  /// "set" runs the classic mixed insert/erase/lookup workload over a
  /// ConcurrentSet; "pipeline" drives a ConcurrentQueue (ds must name
  /// one of ds::queue_names()) with enqueue/dequeue workers instead —
  /// the canonical high-retire-rate SMR client, since every dequeue
  /// retires a node. Pipeline trials are closed-loop only.
  /// EMR_WORKLOAD.
  std::string workload = "set";
  /// Pipeline role split: the first `producers` worker indices enqueue
  /// only and the rest dequeue only, with the consumers pinned from the
  /// far end of the EMR_PIN layout — allocation and retire/free land on
  /// distant cores, the adversarial case for remote frees. 0 (the
  /// default) runs every worker symmetric (alternating enqueue and
  /// dequeue), where a freed node restocks the freeing worker's own
  /// thread cache. EMR_PRODUCERS.
  int producers = 0;
  /// Queue soft capacity: enqueue refuses (and the producer yields)
  /// once the queue holds this many values; 0 = unbounded.
  /// EMR_QUEUE_CAP.
  std::uint64_t queue_cap = 0;
  smr::SmrConfig smr;
  alloc::AllocConfig alloc;
};

/// Overwrites only the fields whose EMR_* variable is present, so
/// caller-set defaults always win when the environment is silent.
void apply_env_overrides(TrialConfig& cfg);

/// Fails fast on an inconsistent config: op fractions outside [0, 1] or
/// summing past 1, a non-positive measure_ms / trials /
/// schedule_sample_ms, a negative churn_interval_ms or churn on a
/// single thread, and unknown ds / reclaimer / allocator names each
/// throw std::invalid_argument naming the valid ranges/choices instead
/// of silently defaulting. The service knobs are policed the same way:
/// an unknown arrival process or daemon level, a non-positive /
/// non-finite rate_ops, a negative zipf_s, an empty (or non-finite /
/// non-positive) phase list, a daemon_period_ms < 1, and an open-loop
/// schedule whose expected event count exceeds core/arrival.hpp's
/// kMaxArrivals all throw naming the valid range, as does a pin layout
/// outside off|compact|scatter (EMR_PIN). The pipeline knobs are
/// policed the same way: a workload outside set|pipeline (EMR_WORKLOAD),
/// producers or a queue capacity set on the set workload, a pipeline ds
/// that is not a queue name, producers outside [0, nthreads), and a
/// pipeline trial that is not closed-loop all throw naming the valid
/// choices/ranges. Trial's constructor runs this on every config.
void validate_config(const TrialConfig& cfg);

/// The arrival schedule an open-loop trial of `cfg` serves: Trial::run
/// generates its schedule from exactly this config, so a bench that
/// regenerates it gets the same events.
ArrivalConfig arrival_config(const TrialConfig& cfg);

/// A TrialConfig built from defaults + every EMR_* override.
TrialConfig config_from_env();

/// EMR_THREADS ("1 2 4" or "6,12,24"), or `def` when unset or empty.
/// A malformed token ("garbage", "4x", "0", "-3") never shrinks the
/// sweep silently: the whole variable is rejected with a warning to
/// stderr naming the bad token, and `def` runs instead.
std::vector<int> thread_sweep_from_env(std::vector<int> def);

/// The churn intervals (ms) of EMR_CHURN_SWEEP ("50 20 10"), or `def`
/// when unset or empty, always led by the no-churn baseline 0. A
/// malformed token ("2O", "0", "-5") rejects the whole variable the way
/// thread_sweep_from_env does, and `def` runs instead.
std::vector<int> churn_sweep_from_env(std::vector<int> def);

/// Node size in bytes per data structure, derived from sizeof the real
/// node types in ds/ (abtree leaves are the paper's fat ~240 B nodes;
/// occtree's are compact; dgt sits between). Throws on unknown names.
std::size_t node_size_for_ds(const std::string& ds);

struct Op {
  /// The first three kinds are the set workload's; the queue kinds are
  /// the pipeline workload's. Kind doubles as the latency recorder's
  /// channel index, so the per-kind tails in TrialResult::kind_lat are
  /// indexed the same way.
  enum Kind : std::uint8_t {
    kInsert = 0,
    kErase = 1,
    kLookup = 2,
    kEnqueue = 3,
    kDequeue = 4
  };
  static constexpr int kNumKinds = 5;
  Kind kind;
  std::uint64_t key;
};

/// Deterministic per-thread operation stream: the same (config seed, tid)
/// always replays the same ops, so reclaimers are compared on identical
/// work. The 5-arg constructor is the legacy uniform stream; the
/// TrialConfig constructor additionally honours zipf_s key skew — but
/// with zipf_s == 0 it consumes exactly the same random draws, so
/// legacy streams stay bit-identical.
class OpStream {
 public:
  OpStream(std::uint64_t seed, int tid, double insert_frac,
           double erase_frac, std::uint64_t keyrange);
  OpStream(const TrialConfig& cfg, int tid);

  Op next();

 private:
  Rng rng_;
  double insert_frac_;
  double erase_frac_;
  std::uint64_t keyrange_;
  std::unique_ptr<Zipf> zipf_;  // null = uniform keys (legacy draw)
};

/// One point of the free-schedule timeline (enable_schedule_trace).
struct ScheduleSample {
  std::uint64_t t_ms = 0;        // since the measured window opened
  std::uint64_t backlog = 0;     // executor-held nodes across all lanes
  std::uint64_t drain_quota = 0; // current quantum of the busiest lane
  std::uint64_t population = 0;  // registered ThreadHandles
};

struct TrialResult {
  std::uint64_t ops = 0;
  std::uint64_t wall_ns = 0;
  double mops = 0;  // million completed operations per second
  std::uint64_t peak_bytes_mapped = 0;
  smr::SmrStats smr_stats;            // at end of the measured window
  std::uint64_t epochs_in_window = 0;
  std::uint64_t freed_in_window = 0;
  /// Allocator counter deltas over the measured window.
  alloc::AllocStats alloc_diff;
  /// Percent of total thread-time spent in free / tcache flush / waiting
  /// on central-bin locks (the paper's Table 1 columns).
  double pct_free = 0;
  double pct_flush = 0;
  double pct_lock = 0;
  /// Churn mode: how many workers deregistered and were replaced by a
  /// freshly registered thread inside the measured window.
  std::uint64_t threads_churned = 0;
  /// Free-schedule timeline (empty unless enable_schedule_trace), plus
  /// its peaks for table rows.
  std::vector<ScheduleSample> schedule_trace;
  std::uint64_t peak_backlog = 0;
  std::uint64_t max_drain_quota = 0;
  /// Home-flush routing ledger, read after the teardown flush: blocks a
  /// FreeExecutor rerouted onto an owner's remote-free stash, blocks
  /// that have left a stash (owner flush, daemon drain, departure
  /// adoption, quiesce), and blocks still parked at teardown. With
  /// routing on, stashed == flushed and stash_backlog_end == 0 — every
  /// rerouted block reached its free. All three read zero when routing
  /// is off.
  std::uint64_t stashed = 0;
  std::uint64_t flushed = 0;
  std::uint64_t stash_backlog_end = 0;
  /// Per-op latency over the measured window (zeros unless
  /// enable_latency armed the recorder).
  /// Percentiles are log2-bucket interpolations clamped to the exact
  /// max; see docs/LATENCY.md for the error model.
  std::uint64_t lat_ops = 0;  // recorded samples
  double lat_p50_ns = 0;
  double lat_p99_ns = 0;
  double lat_p999_ns = 0;
  std::uint64_t lat_max_ns = 0;
  /// Per-op-kind service latency split (insert/erase/lookup for the set
  /// workload, enqueue/dequeue for the pipeline), from the recorder's
  /// channels; indexed by Op::Kind. Zeros when the recorder is disarmed
  /// or a kind never ran.
  struct OpKindLatency {
    std::uint64_t ops = 0;
    double p50_ns = 0;
    double p99_ns = 0;
    double p999_ns = 0;
    std::uint64_t max_ns = 0;
  };
  OpKindLatency kind_lat[Op::kNumKinds];
  /// Pipeline mode per-role split (zeros when workload == "set"). `ops`
  /// counts successful enqueues/dequeues (what TrialResult::ops sums);
  /// `failed` the refused ones — full-queue enqueues on the producer
  /// side, empty polls on the consumer side — each of which costs a
  /// yield, not an op. In the symmetric layout (producers == 0) every
  /// worker plays both roles, so both `workers` fields report nthreads.
  struct RoleResult {
    int workers = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
  };
  RoleResult producer;
  RoleResult consumer;
  /// Service mode: how many arrivals the schedule offered inside the
  /// window vs how many the workers completed (equal unless the trial
  /// was stopped saturated), and the queueing-delay distribution —
  /// service start minus scheduled arrival, the open-loop signal that
  /// explodes past saturation while closed-loop mops stays flat.
  /// Zeros in closed-loop trials.
  std::uint64_t arrivals_offered = 0;
  std::uint64_t arrivals_completed = 0;
  std::uint64_t q_ops = 0;
  double q_p50_ns = 0;
  double q_p99_ns = 0;
  double q_p999_ns = 0;
  std::uint64_t q_max_ns = 0;
  /// Daemon activity over the trial (zeros when reclaimer_daemon "off").
  std::uint64_t daemon_ticks = 0;
  std::uint64_t daemon_quiet_ticks = 0;
  std::uint64_t daemon_pressure_ticks = 0;
  std::uint64_t daemon_drained = 0;
  /// Hardware-realism metadata (docs/ALLOCATORS.md): the remote-free
  /// penalty the trial charged (the config's remote_free_penalty_ns),
  /// the clock source behind every timestamp ("tsc" | "steady") with the
  /// calibrated TSC frequency (0 on the fallback), the pin layout, and
  /// the worker -> CPU map (empty when unpinned; the last entry is the
  /// daemon's slot).
  std::uint64_t remote_penalty_ns = 0;
  std::string clock_source = "steady";
  double tsc_ghz = 0;
  std::string pin_mode = "off";
  std::vector<int> pin_cpus;
};

/// The trials of one config folded over a seed list (run_trials): what
/// a figure bench reports per cell.
struct AggregateResult {
  double avg_mops = 0;
  double min_mops = 0;
  double max_mops = 0;
  double avg_peak_mib = 0;
  int trials = 0;
  /// Every run progressed and accounted exactly at teardown: ops > 0,
  /// latency samples whenever enable_latency asked for them, nothing
  /// pending or left in an executor backlog, and a balanced stash ledger
  /// (stashed == flushed, nothing parked).
  bool accounted = true;
  /// Histograms merged over the seeds, so percentiles are over the
  /// union: every op, each Op::Kind channel, and open-loop queueing
  /// delay.
  LatencyHistogram lat;
  LatencyHistogram kind_lat[Op::kNumKinds];
  LatencyHistogram queue_lat;
  /// Sums over the seeds: allocator frees in the window, and the
  /// home-flush ledger at teardown.
  std::uint64_t frees = 0;
  std::uint64_t remote_frees = 0;
  std::uint64_t stashed = 0;
  std::uint64_t flushed = 0;
  std::uint64_t stash_backlog_end = 0;
  /// Garbage-census peak, max over the seeds.
  std::uint64_t peak_garbage = 0;
  /// The free schedule's name, and the last run's full result (its
  /// penalty, clock and pin metadata hold for every seed).
  std::string schedule;
  TrialResult last;

  double remote_share() const {
    return frees > 0 ? static_cast<double>(remote_frees) /
                           static_cast<double>(frees)
                     : 0.0;
  }
};

/// One configured run: builds allocator + reclaimer + ds/ structure,
/// prefills to keyrange/2, runs the op mix on nthreads worker threads
/// (each registering its own smr::ThreadHandle) for measure_ms — churning
/// workers at churn_interval_ms when churn is on — and leaves instruments
/// readable until destruction.
class Trial {
 public:
  explicit Trial(const TrialConfig& cfg);
  ~Trial();

  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  /// Runs the trial once. Call at most once per Trial.
  TrialResult run();

  Timeline& timeline() { return timeline_; }
  GarbageCensus& garbage() { return garbage_; }
  LatencyRecorder& latency() { return latency_; }
  LatencyRecorder& queue_latency() { return queue_latency_; }
  smr::Reclaimer& reclaimer() { return *bundle_.reclaimer; }
  smr::FreeSchedule& schedule() { return *bundle_.schedule; }
  alloc::Allocator& allocator() { return *allocator_; }
  /// The set workload's structure; pipeline trials build a queue
  /// instead.
  ds::ConcurrentSet& set() { return *set_; }
  /// The pipeline workload's queue; null for the set workload.
  ds::ConcurrentQueue& queue() { return *queue_; }
  /// Null when reclaimer_daemon == "off".
  smr::ReclaimerDaemon* daemon() { return daemon_.get(); }
  const TrialConfig& config() const { return cfg_; }

 private:
  TrialConfig cfg_;
  Timeline timeline_;
  GarbageCensus garbage_;
  LatencyRecorder latency_;
  /// Open-loop queueing delay, one channel; disarmed in closed loops.
  LatencyRecorder queue_latency_;
  std::unique_ptr<alloc::Allocator> allocator_;
  smr::ReclaimerBundle bundle_;
  // Declared after the bundle: the structures' destructors return their
  // reachable nodes through the reclaimer, so they must be destroyed
  // first. Pipeline trials leave set_ null and build queue_ instead.
  std::unique_ptr<ds::ConcurrentSet> set_;
  std::unique_ptr<ds::ConcurrentQueue> queue_;
  // Declared last: the daemon joins (and stops touching the bundle)
  // before anything it reads is torn down.
  std::unique_ptr<smr::ReclaimerDaemon> daemon_;
  // Resolved at construction: worker i pins to pin_map_[i] (empty when
  // EMR_PIN=off or no CPUs are visible; the extra last entry is the
  // daemon's).
  std::vector<int> pin_map_;
  bool ran_ = false;
};

/// Runs one Trial of `cfg` per seed and folds them; an empty list runs
/// cfg.trials seeds counting up from cfg.seed. `each`, when set, sees
/// every trial after its run, with that run's accounted verdict, before
/// the trial is torn down.
AggregateResult run_trials(
    const TrialConfig& cfg, std::vector<std::uint64_t> seeds = {},
    const std::function<void(Trial&, const TrialResult&, bool accounted)>&
        each = nullptr);

}  // namespace emr::harness
