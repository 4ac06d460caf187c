#include "harness/workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alloc/factory.hpp"
#include "core/affinity.hpp"
#include "core/env.hpp"
#include "core/timing.hpp"
#include "ds/queue.hpp"
#include "ds/set.hpp"
#include "smr/factory.hpp"
#include "smr/free_executor.hpp"

namespace emr::harness {

// ------------------------------------------------------------- env glue

void apply_env_overrides(TrialConfig& cfg) {
  cfg.ds = env_str("EMR_DS", cfg.ds);
  cfg.reclaimer = env_str("EMR_RECLAIMER", cfg.reclaimer);
  cfg.allocator = env_str("EMR_ALLOC", cfg.allocator);
  if (env_has("EMR_KEYRANGE")) {
    cfg.keyrange = std::max<std::uint64_t>(
        env_u64("EMR_KEYRANGE", cfg.keyrange), 2);
  }
  if (env_has("EMR_MS")) {
    cfg.measure_ms = static_cast<int>(
        std::max<long long>(env_i64("EMR_MS", cfg.measure_ms), 1));
  }
  if (env_has("EMR_TRIALS")) {
    cfg.trials = static_cast<int>(
        std::max<long long>(env_i64("EMR_TRIALS", cfg.trials), 1));
  }
  if (env_has("EMR_SEED")) cfg.seed = env_u64("EMR_SEED", cfg.seed);
  if (env_has("EMR_BATCH")) {
    cfg.smr.batch_size = static_cast<std::size_t>(
        std::max<std::uint64_t>(env_u64("EMR_BATCH", cfg.smr.batch_size), 1));
  }
  if (env_has("EMR_AF_DRAIN")) {
    cfg.smr.af_drain_per_op = static_cast<std::size_t>(std::max<std::uint64_t>(
        env_u64("EMR_AF_DRAIN", cfg.smr.af_drain_per_op), 1));
  }
  if (env_has("EMR_FLUSH_BATCH")) {
    const long long v = env_i64("EMR_FLUSH_BATCH", -1);
    if (v < 1) {
      throw std::invalid_argument(
          "invalid EMR_FLUSH_BATCH: '" + env_str("EMR_FLUSH_BATCH", "") +
          "' (must be >= 1: the home-flush quantum's ceiling)");
    }
    cfg.smr.flush_batch = static_cast<std::size_t>(v);
  }
  if (env_has("EMR_DRAIN_MIN")) {
    const long long v = env_i64("EMR_DRAIN_MIN", -1);
    if (v < 1) {
      throw std::invalid_argument(
          "invalid EMR_DRAIN_MIN: '" + env_str("EMR_DRAIN_MIN", "") +
          "' (must be >= 1: the adaptive drain quantum's floor)");
    }
    cfg.smr.drain_min = static_cast<std::size_t>(v);
  }
  if (env_has("EMR_DRAIN_MAX")) {
    const long long v = env_i64("EMR_DRAIN_MAX", -1);
    if (v < 1) {
      throw std::invalid_argument(
          "invalid EMR_DRAIN_MAX: '" + env_str("EMR_DRAIN_MAX", "") +
          "' (must be >= 1: the adaptive drain quantum's ceiling)");
    }
    // drain_max < drain_min fails in make_free_schedule naming both
    // knobs.
    cfg.smr.drain_max = static_cast<std::size_t>(v);
  }
  if (env_has("EMR_POOL_CAP")) {
    const long long v = env_i64("EMR_POOL_CAP", -1);
    if (v <= 0) {
      throw std::invalid_argument(
          "invalid EMR_POOL_CAP: '" + env_str("EMR_POOL_CAP", "") +
          "' (must be a positive node count; unset it for the automatic "
          "cap of four batches)");
    }
    cfg.smr.pool_cap = static_cast<std::size_t>(v);
  }
  if (env_has("EMR_EXTRA_SLOTS")) {
    const long long v = env_i64("EMR_EXTRA_SLOTS", -1);
    if (v < 1) {
      throw std::invalid_argument(
          "invalid EMR_EXTRA_SLOTS: '" + env_str("EMR_EXTRA_SLOTS", "") +
          "' (must be >= 1: the registration table needs headroom for "
          "churn overlap and the teardown handle)");
    }
    cfg.smr.extra_slots = static_cast<std::size_t>(v);
  }
  if (env_has("EMR_LATENCY")) {
    cfg.enable_latency = env_i64("EMR_LATENCY", 0) != 0;
  }
  if (env_has("EMR_SAMPLE_MS")) {
    // Unclamped like EMR_CHURN_MS: validate_config rejects < 1.
    cfg.schedule_sample_ms =
        static_cast<int>(env_i64("EMR_SAMPLE_MS", cfg.schedule_sample_ms));
  }
  if (env_has("EMR_HP_SLOTS")) {
    cfg.smr.hp_slots = static_cast<std::size_t>(std::max<std::uint64_t>(
        env_u64("EMR_HP_SLOTS", cfg.smr.hp_slots), 1));
  }
  if (env_has("EMR_EPOCH_FREQ")) {
    cfg.smr.epoch_freq = static_cast<std::size_t>(std::max<std::uint64_t>(
        env_u64("EMR_EPOCH_FREQ", cfg.smr.epoch_freq), 1));
  }
  if (env_has("EMR_REMOTE_PENALTY_NS")) {
    const long long v = env_i64("EMR_REMOTE_PENALTY_NS", -1);
    if (v < 0) {
      throw std::invalid_argument(
          "invalid EMR_REMOTE_PENALTY_NS: '" +
          env_str("EMR_REMOTE_PENALTY_NS", "") +
          "' (must be >= 0 ns, where 0 charges no remote-free cost)");
    }
    cfg.alloc.remote_free_penalty_ns = static_cast<std::uint64_t>(v);
  }
  if (env_has("EMR_TCACHE_CAP")) {
    cfg.alloc.tcache_cap = static_cast<std::size_t>(std::max<std::uint64_t>(
        env_u64("EMR_TCACHE_CAP", cfg.alloc.tcache_cap), 1));
  }
  if (env_has("EMR_FLUSH_FRACTION")) {
    cfg.alloc.flush_fraction =
        env_f64("EMR_FLUSH_FRACTION", cfg.alloc.flush_fraction);
  }
  if (env_has("EMR_DEFERRED_FLUSH")) {
    cfg.alloc.deferred_flush = env_i64("EMR_DEFERRED_FLUSH", 0) != 0;
  }
  if (env_has("EMR_CHURN_MS")) {
    // Deliberately unclamped: validate_config owns the range check so a
    // bad value fails loudly instead of being silently repaired.
    cfg.churn_interval_ms =
        static_cast<int>(env_i64("EMR_CHURN_MS", cfg.churn_interval_ms));
  }
  if (env_has("EMR_INSERT_FRAC")) {
    cfg.insert_frac = env_f64("EMR_INSERT_FRAC", cfg.insert_frac);
  }
  if (env_has("EMR_ERASE_FRAC")) {
    cfg.erase_frac = env_f64("EMR_ERASE_FRAC", cfg.erase_frac);
  }
  if (env_has("EMR_ARRIVAL")) {
    // Validity (closed | poisson | burst) is owned by validate_config.
    cfg.arrival = env_str("EMR_ARRIVAL", cfg.arrival);
  }
  if (env_has("EMR_RATE_OPS")) {
    // Deliberately unclamped: validate_config rejects rates <= 0 or
    // non-finite naming the range.
    cfg.rate_ops = env_f64("EMR_RATE_OPS", cfg.rate_ops);
  }
  if (env_has("EMR_ZIPF_S")) {
    cfg.zipf_s = env_f64("EMR_ZIPF_S", cfg.zipf_s);
  }
  {
    std::vector<double> phases;
    std::string bad;
    if (!env_f64_list_strict("EMR_PHASES", &phases, &bad)) {
      throw std::invalid_argument(
          "invalid EMR_PHASES token '" + bad +
          "' (expected a comma/space-separated list of per-phase rate "
          "multipliers, e.g. \"2,0.05\" for a busy half then a "
          "near-idle tail)");
    }
    if (!phases.empty()) cfg.phases = std::move(phases);
  }
  if (env_has("EMR_RECLAIMER_DAEMON")) {
    // Validity (off | optimistic | aggressive) is owned by
    // validate_config via daemon_level_from_name.
    cfg.reclaimer_daemon =
        env_str("EMR_RECLAIMER_DAEMON", cfg.reclaimer_daemon);
  }
  if (env_has("EMR_DAEMON_MS")) {
    // Unclamped: validate_config rejects periods < 1.
    cfg.daemon_period_ms =
        static_cast<int>(env_i64("EMR_DAEMON_MS", cfg.daemon_period_ms));
  }
  if (env_has("EMR_PIN")) {
    // Validity (off | compact | scatter) is owned by validate_config
    // via affinity::pin_mode_from_name.
    cfg.pin = env_str("EMR_PIN", cfg.pin);
  }
  if (env_has("EMR_WORKLOAD")) {
    // Validity (set | pipeline) is owned by validate_config.
    cfg.workload = env_str("EMR_WORKLOAD", cfg.workload);
  }
  if (env_has("EMR_PRODUCERS")) {
    // Unclamped: validate_config rejects values outside [0, nthreads)
    // and producers set on the set workload.
    cfg.producers =
        static_cast<int>(env_i64("EMR_PRODUCERS", cfg.producers));
  }
  if (env_has("EMR_QUEUE_CAP")) {
    const long long v = env_i64("EMR_QUEUE_CAP", -1);
    if (v < 0) {
      throw std::invalid_argument(
          "invalid EMR_QUEUE_CAP: '" + env_str("EMR_QUEUE_CAP", "") +
          "' (must be >= 0, where 0 is an unbounded queue)");
    }
    cfg.queue_cap = static_cast<std::uint64_t>(v);
  }
}

TrialConfig config_from_env() {
  TrialConfig cfg;
  apply_env_overrides(cfg);
  return cfg;
}

namespace {

/// The list in `name`, or `def` when it is unset, empty or malformed.
std::vector<int> sweep_from_env(const char* name, std::vector<int> def) {
  std::vector<int> parsed;
  std::string bad;
  if (!env_int_list_strict(name, &parsed, &bad)) {
    // Never shrink a sweep silently: a typo'd list would otherwise
    // drop columns (or empty the sweep entirely) and the bench would
    // "pass" on the wrong experiment.
    std::fprintf(stderr,
                 "harness: malformed %s token '%s'; "
                 "ignoring the variable and running the default sweep\n",
                 name, bad.c_str());
    return def;
  }
  return parsed.empty() ? def : parsed;  // unset or empty
}

}  // namespace

std::vector<int> thread_sweep_from_env(std::vector<int> def) {
  std::vector<int> sweep = sweep_from_env("EMR_THREADS", std::move(def));
  for (int& n : sweep) n = std::clamp(n, 1, 1024);
  return sweep;
}

std::vector<int> churn_sweep_from_env(std::vector<int> def) {
  std::vector<int> sweep = sweep_from_env("EMR_CHURN_SWEEP", std::move(def));
  sweep.insert(sweep.begin(), 0);
  return sweep;
}

std::size_t node_size_for_ds(const std::string& ds) {
  return ds::node_size_for_ds(ds);  // sizeof the structure's real nodes
}

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " ";
    out += n;
  }
  return out;
}

bool known_name(const std::vector<std::string>& names,
                const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

void validate_config(const TrialConfig& cfg) {
  if (cfg.insert_frac < 0.0 || cfg.erase_frac < 0.0 ||
      cfg.insert_frac > 1.0 || cfg.erase_frac > 1.0 ||
      cfg.insert_frac + cfg.erase_frac > 1.0) {
    throw std::invalid_argument(
        "invalid op mix: insert_frac=" + std::to_string(cfg.insert_frac) +
        " erase_frac=" + std::to_string(cfg.erase_frac) +
        " (each must be in [0,1] and sum to at most 1)");
  }
  if (cfg.measure_ms <= 0) {
    throw std::invalid_argument(
        "invalid measure_ms: " + std::to_string(cfg.measure_ms) +
        " (valid range: >= 1 millisecond — a zero-length window divides "
        "by nothing and reports garbage)");
  }
  if (cfg.trials <= 0) {
    throw std::invalid_argument(
        "invalid trials: " + std::to_string(cfg.trials) +
        " (valid range: >= 1)");
  }
  if (cfg.schedule_sample_ms <= 0) {
    throw std::invalid_argument(
        "invalid schedule_sample_ms: " +
        std::to_string(cfg.schedule_sample_ms) +
        " (valid range: >= 1 millisecond — the schedule/latency sampler "
        "period)");
  }
  if (cfg.churn_interval_ms < 0) {
    throw std::invalid_argument(
        "invalid churn_interval_ms: " + std::to_string(cfg.churn_interval_ms) +
        " (valid range: >= 0, where 0 disables churn)");
  }
  if (cfg.churn_interval_ms > 0 && cfg.nthreads < 2) {
    throw std::invalid_argument(
        "invalid churn config: churn_interval_ms=" +
        std::to_string(cfg.churn_interval_ms) + " needs nthreads >= 2 (got " +
        std::to_string(cfg.nthreads) + "): churn joins one worker while "
        "the others keep running, which a lone worker cannot do");
  }
  if (cfg.arrival != "closed" && cfg.arrival != "poisson" &&
      cfg.arrival != "burst") {
    throw std::invalid_argument(
        "unknown arrival process: '" + cfg.arrival +
        "' (valid: closed poisson burst)");
  }
  if (!std::isfinite(cfg.rate_ops) || cfg.rate_ops <= 0.0) {
    throw std::invalid_argument(
        "invalid rate_ops: " + std::to_string(cfg.rate_ops) +
        " (valid range: a finite offered load > 0 ops/sec)");
  }
  if (!std::isfinite(cfg.zipf_s) || cfg.zipf_s < 0.0) {
    throw std::invalid_argument(
        "invalid zipf_s: " + std::to_string(cfg.zipf_s) +
        " (valid range: >= 0, where 0 is a uniform key draw)");
  }
  if (cfg.phases.empty()) {
    throw std::invalid_argument(
        "invalid phases: empty (valid: at least one finite rate "
        "multiplier > 0; {1.0} is the flat default)");
  }
  for (double m : cfg.phases) {
    if (!std::isfinite(m) || m <= 0.0) {
      throw std::invalid_argument(
          "invalid phase multiplier: " + std::to_string(m) +
          " (valid range: finite and > 0)");
    }
  }
  if (cfg.daemon_period_ms < 1) {
    throw std::invalid_argument(
        "invalid daemon_period_ms: " + std::to_string(cfg.daemon_period_ms) +
        " (valid range: >= 1 millisecond — the reclaimer daemon's tick "
        "period)");
  }
  // Throws listing the valid levels on an unknown name.
  smr::daemon_level_from_name(cfg.reclaimer_daemon);
  // Throws listing the valid layouts on an unknown name (EMR_PIN).
  affinity::pin_mode_from_name(cfg.pin);
  if (cfg.arrival != "closed") {
    const double expected =
        cfg.rate_ops * static_cast<double>(cfg.measure_ms) / 1000.0;
    if (expected > static_cast<double>(kMaxArrivals)) {
      throw std::invalid_argument(
          "open-loop schedule too large: rate_ops x window = " +
          std::to_string(expected) + " expected events (valid range: <= " +
          std::to_string(kMaxArrivals) +
          " — lower rate_ops or measure_ms)");
    }
  }
  if (cfg.workload != "set" && cfg.workload != "pipeline") {
    throw std::invalid_argument(
        "unknown workload: '" + cfg.workload +
        "' (EMR_WORKLOAD; valid: set pipeline)");
  }
  if (cfg.workload == "set") {
    if (cfg.producers != 0) {
      throw std::invalid_argument(
          "invalid producers: " + std::to_string(cfg.producers) +
          " (EMR_PRODUCERS applies only to the pipeline workload; set "
          "EMR_WORKLOAD=pipeline or leave it 0)");
    }
    if (cfg.queue_cap != 0) {
      throw std::invalid_argument(
          "invalid queue_cap: " + std::to_string(cfg.queue_cap) +
          " (EMR_QUEUE_CAP applies only to the pipeline workload; set "
          "EMR_WORKLOAD=pipeline or leave it 0)");
    }
  } else {
    if (!known_name(ds::queue_names(), cfg.ds)) {
      throw std::invalid_argument(
          "invalid pipeline ds: '" + cfg.ds +
          "' (the pipeline workload drives a queue; valid: " +
          join_names(ds::queue_names()) + ")");
    }
    if (cfg.producers < 0 || cfg.producers >= std::max(cfg.nthreads, 1)) {
      throw std::invalid_argument(
          "invalid producers: " + std::to_string(cfg.producers) +
          " with nthreads=" + std::to_string(cfg.nthreads) +
          " (valid range: 0 <= producers < nthreads — 0 runs every "
          "worker symmetric, and a role split needs at least one "
          "consumer)");
    }
    if (cfg.arrival != "closed") {
      throw std::invalid_argument(
          "invalid pipeline arrival: '" + cfg.arrival +
          "' (the pipeline workload is closed-loop only; valid: closed)");
    }
  }
  // The set-workload ds name is not re-checked here: ds::make_set (run
  // from Trial's constructor right after this) already fails fast
  // listing set_names().
  if (!known_name(smr::all_factory_names(), cfg.reclaimer)) {
    throw std::invalid_argument(
        "unknown reclaimer: '" + cfg.reclaimer +
        "' (valid: " + join_names(smr::all_factory_names()) + ")");
  }
  if (!known_name(alloc::allocator_names(), cfg.allocator)) {
    throw std::invalid_argument(
        "unknown allocator: '" + cfg.allocator +
        "' (valid: " + join_names(alloc::allocator_names()) + ")");
  }
}

// -------------------------------------------------------------- opstream

OpStream::OpStream(std::uint64_t seed, int tid, double insert_frac,
                   double erase_frac, std::uint64_t keyrange)
    : rng_(seed ^ (static_cast<std::uint64_t>(tid) + 1) *
                      0x9E3779B97F4A7C15ULL),
      insert_frac_(insert_frac),
      erase_frac_(erase_frac),
      keyrange_(std::max<std::uint64_t>(keyrange, 1)) {}

OpStream::OpStream(const TrialConfig& cfg, int tid)
    : OpStream(cfg.seed, tid, cfg.insert_frac, cfg.erase_frac,
               cfg.keyrange) {
  // Draw-for-draw conservative: with zipf_s == 0 next() consumes
  // exactly the legacy random stream, so pre-service-mode trials replay
  // bit-identically.
  if (cfg.zipf_s > 0.0) {
    zipf_ = std::make_unique<Zipf>(keyrange_, cfg.zipf_s);
  }
}

Op OpStream::next() {
  const double r = rng_.next_double();
  Op op;
  if (r < insert_frac_) {
    op.kind = Op::kInsert;
  } else if (r < insert_frac_ + erase_frac_) {
    op.kind = Op::kErase;
  } else {
    op.kind = Op::kLookup;
  }
  // Same per-event draw order as core/arrival.hpp's generator (kind,
  // then key), and like it the zipf path consumes exactly one uniform
  // per key.
  op.key = zipf_ ? zipf_->sample(rng_.next_double())
                 : rng_.next_range(keyrange_);
  return op;
}

ArrivalConfig arrival_config(const TrialConfig& cfg) {
  ArrivalConfig acfg;
  acfg.process = cfg.arrival == "burst" ? ArrivalConfig::Process::kBurst
                                        : ArrivalConfig::Process::kPoisson;
  acfg.rate_ops = cfg.rate_ops;
  acfg.duration_ns = static_cast<std::uint64_t>(cfg.measure_ms) * 1'000'000u;
  acfg.seed = cfg.seed;
  acfg.insert_frac = cfg.insert_frac;
  acfg.erase_frac = cfg.erase_frac;
  acfg.keyrange = cfg.keyrange;
  acfg.zipf_s = cfg.zipf_s;
  acfg.phases = cfg.phases;
  return acfg;
}

// ----------------------------------------------------------------- trial

namespace {

/// Deterministic half-full prefill through the normal op path on a
/// transient registration: every even key, in an order shuffled from the
/// trial seed so the unbalanced occtree is not built from a sorted
/// stream (which would degenerate it into a list).
void prefill(ds::ConcurrentSet& set, smr::Reclaimer& r,
             const TrialConfig& cfg) {
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(cfg.keyrange / 2 + 1));
  for (std::uint64_t k = 0; k < cfg.keyrange; k += 2) keys.push_back(k);
  // Distinct xor constant: seed ^ golden-ratio is already worker 0's
  // OpStream seed, and the prefill order must not correlate with it.
  Rng rng(cfg.seed ^ 0xC3A5C85C97CB3127ULL);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_range(i)]);
  }
  smr::ThreadHandle h = r.register_thread();
  for (std::uint64_t k : keys) set.insert(h, k);
}

}  // namespace

Trial::Trial(const TrialConfig& cfg) : cfg_(cfg) {
  validate_config(cfg_);

  // Clock first (idempotent): every timestamp below — and the spin the
  // allocator model burns per remote block — rides the calibrated
  // TSC/pause rates from here on.
  timing::calibrate_clock();

  const smr::DaemonLevel dlevel =
      smr::daemon_level_from_name(cfg_.reclaimer_daemon);

  smr::SmrConfig scfg = cfg_.smr;
  scfg.num_threads = std::max(cfg_.nthreads, 1);
  // The daemon registers its own ThreadHandle: budget its slot on top
  // of the configured churn/teardown headroom.
  if (dlevel != smr::DaemonLevel::kOff) scfg.extra_slots += 1;

  // Allocator lanes are keyed by registration slot, so the lane table
  // covers the whole slot capacity (workers + churn/teardown headroom).
  alloc::AllocConfig acfg = cfg_.alloc;
  acfg.max_threads = static_cast<int>(scfg.slot_capacity());
  allocator_ = alloc::make_allocator(cfg_.allocator, acfg);
  // Pin layout for the trial's threads: workers take slots [0, nthreads),
  // the reclaimer daemon the one after (empty = run unpinned).
  pin_map_ = affinity::pin_map(affinity::pin_mode_from_name(cfg_.pin),
                               std::max(cfg_.nthreads, 1) + 1);

  smr::SmrContext ctx;
  ctx.allocator = allocator_.get();
  ctx.timeline = &timeline_;
  ctx.garbage = &garbage_;
  bundle_ = smr::make_reclaimer(cfg_.reclaimer, ctx, scfg);

  if (dlevel != smr::DaemonLevel::kOff) {
    // Armed here, single-threaded, before any structure or worker
    // touches the bundle: from this point the per-lane daemon locks are
    // real (and with the daemon off they are never armed, keeping the
    // op path instruction-identical to the pre-daemon harness).
    bundle_.reclaimer->executor().set_daemon_hooked(true);
    daemon_ = std::make_unique<smr::ReclaimerDaemon>(
        *bundle_.reclaimer, dlevel, cfg_.daemon_period_ms);
    if (!pin_map_.empty()) daemon_->set_pin_cpu(pin_map_.back());
  }

  if (cfg_.workload == "pipeline") {
    ds::QueueConfig qcfg;
    qcfg.capacity = cfg_.queue_cap;
    qcfg.num_threads = std::max(cfg_.nthreads, 1);
    queue_ = ds::make_queue(cfg_.ds, qcfg, bundle_.reclaimer.get());
  } else {
    ds::SetConfig dcfg;
    dcfg.keyrange = cfg_.keyrange;
    dcfg.num_threads = std::max(cfg_.nthreads, 1);
    set_ = ds::make_set(cfg_.ds, dcfg, bundle_.reclaimer.get());
  }
}

Trial::~Trial() = default;

TrialResult Trial::run() {
  if (ran_) throw std::logic_error("Trial::run called twice");
  ran_ = true;

  const int nthreads = std::max(cfg_.nthreads, 1);
  const int lanes = static_cast<int>(bundle_.reclaimer->slot_capacity());
  const bool service = cfg_.arrival != "closed";
  const bool pipeline = cfg_.workload == "pipeline";

  // Instruments stay disarmed through the prefill. Timeline lanes cover
  // the whole registration-slot table: under churn an event can land on
  // any slot, not just the first nthreads.
  timeline_.reset(lanes, 0, cfg_.timeline_min_duration_ns, false);
  garbage_.reset(false);
  // The latency recorder arms before the workers spawn (its lane table
  // is allocated off the hot path); workers only record once `go` opens
  // the measured window, and only when the trial asked for it.
  // Channels split the service tail by op kind (insert/erase/lookup).
  latency_.reset(lanes, Op::kNumKinds, cfg_.enable_latency);
  // Queueing delay (service start minus scheduled arrival) only exists
  // against an arrival schedule.
  queue_latency_.reset(lanes, service);
  if (set_) prefill(*set_, *bundle_.reclaimer, cfg_);
  if (pipeline) {
    // Queue prefill on a transient registration, so consumers find work
    // from the first tick instead of spinning on empty until the
    // producers ramp: half the capacity when bounded, one modest batch
    // per worker when unbounded.
    const std::uint64_t want =
        cfg_.queue_cap != 0 ? cfg_.queue_cap / 2
                            : static_cast<std::uint64_t>(nthreads) * 64;
    smr::ThreadHandle h = bundle_.reclaimer->register_thread();
    for (std::uint64_t i = 0; i < want; ++i) {
      if (!queue_->enqueue(h, i)) break;
    }
  }

  // Open-loop traffic: ONE global schedule generated up front — a pure
  // function of the config, never of the run — and worker w serves the
  // events whose index is congruent to w mod nthreads. The schedule
  // (hence the offered load) is byte-identical at every worker count;
  // only the serving capacity changes.
  std::vector<Arrival> schedule;
  if (service) schedule = generate_arrivals(arrival_config(cfg_));

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  // Service mode: per-worker-index schedule cursors. A churned-out
  // incarnation parks its cursor at the next unserved event, and the
  // replacement thread resumes exactly there — the schedule is served
  // once regardless of churn.
  std::unique_ptr<std::atomic<std::uint64_t>[]> cursors;
  if (service) {
    cursors.reset(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
        nthreads)]);
    for (int i = 0; i < nthreads; ++i) {
      cursors[static_cast<std::size_t>(i)].store(
          static_cast<std::uint64_t>(i), std::memory_order_relaxed);
    }
  }
  // Completed and refused ops per Op::Kind, folded in by each worker
  // incarnation as it exits. Only queue ops can be refused (a full
  // enqueue or an empty poll).
  std::atomic<std::uint64_t> kind_done[Op::kNumKinds] = {};
  std::atomic<std::uint64_t> kind_refused[Op::kNumKinds] = {};
  // The measured window's opening instant, published before `go` so
  // service workers can place scheduled arrivals on the wall clock.
  std::atomic<std::uint64_t> epoch_ns{0};
  // Churn replaces the thread behind a worker index; the retire flag
  // singles out one incarnation without stopping the trial.
  std::unique_ptr<std::atomic<bool>[]> retire_worker(
      new std::atomic<bool>[static_cast<std::size_t>(nthreads)]);
  for (int i = 0; i < nthreads; ++i) {
    retire_worker[static_cast<std::size_t>(i)].store(
        false, std::memory_order_relaxed);
  }

  // One worker incarnation: registers its own ThreadHandle (released on
  // exit, so a churned-out thread's backlog is adopted or drained, never
  // leaked), then runs the op loop over its op source — its
  // deterministic op stream (closed loop), its residue class of the
  // arrival schedule (service mode) or its queue role (pipeline) —
  // until the source runs dry, the trial stops, or the churn controller
  // retires this incarnation. `incarnation` seeds closed-loop
  // replacements onto fresh streams; service replacements resume the
  // shared cursor.
  auto worker_fn = [&](int widx, std::uint64_t incarnation) {
    // Pin before registering: every instruction of the measured window
    // (and a churn replacement's whole life) runs on the layout's CPU.
    if (!pin_map_.empty()) {
      int layout_slot = widx;
      // Pipeline role split: producers keep the layout's front slots
      // and consumers count theirs from the back, so the two roles sit
      // on opposite ends of the EMR_PIN layout — allocation (producer)
      // and retire/free (consumer) land on the most distant cores the
      // mask offers, and the remote-free penalty is actually charged.
      if (pipeline && cfg_.producers > 0 && widx >= cfg_.producers) {
        layout_slot = nthreads - 1 - (widx - cfg_.producers);
      }
      affinity::pin_current_thread(
          pin_map_[static_cast<std::size_t>(layout_slot)]);
    }
    smr::ThreadHandle handle = bundle_.reclaimer->register_thread();
    std::atomic<bool>& retire = retire_worker[static_cast<std::size_t>(widx)];
    // Hoisted: the recorder's armed state is fixed for the whole trial,
    // so the disabled path costs one register-held branch per op.
    const bool record_latency = latency_.enabled();
    const int lane = handle.slot();
    std::uint64_t done[Op::kNumKinds] = {};
    std::uint64_t refused[Op::kNumKinds] = {};
    // Null for the pipeline workload, whose ops are all queue kinds.
    ds::ConcurrentSet* const set = set_.get();
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

    // The op loop, one instantiation per source: `next_op` fills the
    // next op, or returns false once this incarnation has nothing left
    // to serve. The timed span is the structure call alone.
    auto run_ops = [&](auto&& next_op) {
      Op op{};
      while (!stop.load(std::memory_order_relaxed) &&
             !retire.load(std::memory_order_relaxed) && next_op(op)) {
        const std::uint64_t op_t0 = record_latency ? now_ns() : 0;
        // Each ds operation opens its own smr::Guard (begin_op/end_op).
        bool ok = true;
        switch (op.kind) {
          case Op::kInsert:
            set->insert(handle, op.key);
            break;
          case Op::kErase:
            set->erase(handle, op.key);
            break;
          case Op::kLookup:
            set->contains(handle, op.key);
            break;
          case Op::kEnqueue:
            ok = queue_->enqueue(handle, op.key);
            break;
          case Op::kDequeue: {
            std::uint64_t value = 0;
            ok = queue_->dequeue(handle, &value);
            break;
          }
        }
        if (record_latency) {
          latency_.record(lane, op.kind, now_ns() - op_t0);
        }
        if (ok) {
          ++done[op.kind];
        } else {
          // Backpressure: a full (producer) or empty (consumer) queue
          // costs a yield, not a busy retry storm.
          ++refused[op.kind];
          std::this_thread::yield();
        }
      }
    };

    if (pipeline) {
      // Role: the first `producers` worker indices enqueue only, the
      // rest dequeue only; producers == 0 alternates both kinds on
      // every worker — the symmetric layout, where a freed node
      // restocks the freeing worker's own thread cache and the next
      // enqueue re-allocates (and re-owns) it locally. The sequence
      // advances on every attempt, refused ones included.
      const bool split = cfg_.producers > 0;
      const bool is_producer = split && widx < cfg_.producers;
      std::uint64_t seq = 0;
      run_ops([&](Op& op) {
        const bool enq = split ? is_producer : (seq & 1) == 0;
        op.kind = enq ? Op::kEnqueue : Op::kDequeue;
        // Tagged value (worker id | sequence): deterministic and
        // unique, so a post-mortem dump reads back to its producer.
        op.key = (static_cast<std::uint64_t>(widx) << 40) |
                 (seq & 0xFF'FFFF'FFFFull);
        ++seq;
        return true;
      });
    } else if (service) {
      const std::uint64_t win_t0 = epoch_ns.load(std::memory_order_relaxed);
      std::atomic<std::uint64_t>& cursor =
          cursors[static_cast<std::size_t>(widx)];
      run_ops([&](Op& op) {
        const std::uint64_t idx = cursor.load(std::memory_order_relaxed);
        if (idx >= schedule.size()) return false;  // residue class served
        const Arrival& a = schedule[static_cast<std::size_t>(idx)];
        const std::uint64_t due = win_t0 + a.t_ns;
        // Open loop: hold the op until its scheduled instant — coarse
        // sleep while far out, yield-spin near — without ever blocking
        // past stop or churn retirement.
        std::uint64_t now = now_ns();
        while (now < due) {
          if (stop.load(std::memory_order_relaxed) ||
              retire.load(std::memory_order_relaxed)) {
            return false;  // the unserved event stays at the cursor
          }
          const std::uint64_t wait_ns = due - now;
          if (wait_ns > 500'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(wait_ns - 250'000));
          } else {
            std::this_thread::yield();
          }
          now = now_ns();
        }
        // Per-widx cursor: only this incarnation (or its churn
        // replacement, after a join) advances it, so a plain store is
        // enough.
        cursor.store(idx + static_cast<std::uint64_t>(nthreads),
                     std::memory_order_relaxed);
        // Queueing delay is measured against the *scheduled* instant:
        // past saturation `now` falls ever further behind `due` and the
        // tail explodes while completed throughput plateaus.
        queue_latency_.record(lane, now > due ? now - due : 0);
        op.kind = static_cast<Op::Kind>(a.kind);
        op.key = a.key;
        return true;
      });
    } else {
      OpStream stream(cfg_, static_cast<int>(incarnation) * nthreads + widx);
      run_ops([&](Op& op) {
        op = stream.next();
        return true;
      });
    }
    for (int k = 0; k < Op::kNumKinds; ++k) {
      kind_done[k].fetch_add(done[k], std::memory_order_relaxed);
      kind_refused[k].fetch_add(refused[k], std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nthreads));
  for (int widx = 0; widx < nthreads; ++widx) {
    workers.emplace_back(worker_fn, widx, std::uint64_t{0});
  }

  const alloc::AllocStats alloc_before = allocator_->stats();
  const smr::SmrStats smr_before = bundle_.reclaimer->stats();
  const std::uint64_t t0 = now_ns();
  // Published before the `go` release below, so every service worker
  // reads the window's opening instant exactly once.
  epoch_ns.store(t0, std::memory_order_relaxed);
  timeline_.reset(lanes, t0, cfg_.timeline_min_duration_ns,
                  cfg_.enable_timeline);
  garbage_.reset(cfg_.enable_garbage);

  // Free-schedule sampler: a backlog / drain-quantum / population
  // timeline across the measured window. Lane counters are atomics and
  // drain_quota is a read-only policy query, so sampling races nothing.
  std::vector<ScheduleSample> schedule_trace;
  std::thread sampler;
  if (cfg_.enable_schedule_trace) {
    const int sample_ms = cfg_.schedule_sample_ms;  // validated >= 1
    sampler = std::thread([&, sample_ms] {
      smr::FreeExecutor& ex = bundle_.reclaimer->executor();
      smr::FreeSchedule& sched = *bundle_.schedule;
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t total = 0;
        smr::LaneStats busiest;
        for (std::size_t i = 0; i < ex.lane_count(); ++i) {
          const smr::LaneStats ls = ex.lane_stats(static_cast<int>(i));
          total += ls.backlog;
          if (ls.backlog >= busiest.backlog) busiest = ls;
        }
        ScheduleSample s;
        s.t_ms = (now_ns() - t0) / 1'000'000;
        s.backlog = total;
        s.drain_quota = sched.drain_quota(busiest);
        s.population = bundle_.reclaimer->active_slots();
        schedule_trace.push_back(s);
        if (cfg_.enable_garbage) {
          // The schemes only report to the census while ops run; in an
          // open-loop quiet phase the executor-held backlog *is* the
          // garbage story, so the sampler feeds it in under the current
          // epoch (record keeps the per-epoch max).
          garbage_.record(bundle_.reclaimer->stats().epochs_advanced,
                          total);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(sample_ms));
      }
    });
  }

  // The daemon's window opens with the measured window: started after
  // the before-snapshots and the instrument re-arm above, which its
  // drains would otherwise race, and just before `go`. start()
  // registers its handle and begins ticking now.
  if (daemon_) daemon_->start();

  go.store(true, std::memory_order_release);

  std::uint64_t churned = 0;
  if (cfg_.churn_interval_ms <= 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.measure_ms));
  } else {
    // Churn controller: round-robin over the workers, joining one and
    // spawning a registered replacement every interval. The join/spawn
    // gap is measured work — that is the churn cost the paper's fixed
    // populations cannot show.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(cfg_.measure_ms);
    int victim = 0;
    std::uint64_t incarnation = 1;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      const auto nap =
          std::min<std::chrono::steady_clock::duration>(
              std::chrono::milliseconds(cfg_.churn_interval_ms),
              deadline - now);
      std::this_thread::sleep_for(nap);
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::atomic<bool>& retire =
          retire_worker[static_cast<std::size_t>(victim)];
      retire.store(true, std::memory_order_relaxed);
      workers[static_cast<std::size_t>(victim)].join();
      retire.store(false, std::memory_order_relaxed);
      workers[static_cast<std::size_t>(victim)] =
          std::thread(worker_fn, victim, incarnation++);
      ++churned;
      victim = (victim + 1) % nthreads;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  const std::uint64_t t1 = now_ns();
  for (std::thread& w : workers) w.join();
  if (sampler.joinable()) sampler.join();
  // The daemon's window ends with the workers': joined before the
  // after-snapshots so its drains land inside the window or not at all,
  // and well before flush_all / teardown touch the executors.
  if (daemon_) daemon_->stop();

  const alloc::AllocStats alloc_after = allocator_->stats();
  const smr::SmrStats smr_after = bundle_.reclaimer->stats();

  // Teardown frees are not part of the story the instruments tell.
  timeline_.disarm();
  garbage_.disarm();
  bundle_.reclaimer->flush_all();
  allocator_->flush_thread_caches();

  TrialResult r;
  for (int k = 0; k < Op::kNumKinds; ++k) {
    r.ops += kind_done[k].load(std::memory_order_relaxed);
  }
  r.threads_churned = churned;
  // Read after flush_all so this is the post-teardown ledger: with
  // routing on, stashed == flushed and stash_backlog_end == 0, or
  // blocks were stranded (a routing bug the ledger exists to catch).
  {
    smr::FreeExecutor& ex = bundle_.reclaimer->executor();
    r.stashed = ex.total_stashed();
    r.flushed = ex.total_flushed();
    r.stash_backlog_end = ex.total_stash_backlog();
  }
  for (const ScheduleSample& s : schedule_trace) {
    r.peak_backlog = std::max(r.peak_backlog, s.backlog);
    r.max_drain_quota = std::max(r.max_drain_quota, s.drain_quota);
  }
  r.schedule_trace = std::move(schedule_trace);
  // Degenerate-window guard: the wall clock is floored at 1 ns so mops
  // (and the per-thread-time percentages below) can never divide by
  // zero into inf/NaN — which emit_json would then write as invalid
  // JSON (report.cpp quotes non-finite cells as a second line of
  // defense).
  r.wall_ns = std::max<std::uint64_t>(t1 - t0, 1);
  r.mops = static_cast<double>(r.ops) * 1e3 / static_cast<double>(r.wall_ns);
  const LatencyHistogram lat = latency_.merged();
  r.lat_ops = lat.count;
  r.lat_p50_ns = latency_percentile(lat, 0.50);
  r.lat_p99_ns = latency_percentile(lat, 0.99);
  r.lat_p999_ns = latency_percentile(lat, 0.999);
  r.lat_max_ns = lat.max_ns;
  for (int k = 0; k < Op::kNumKinds; ++k) {
    const LatencyHistogram h = latency_.merged_channel(k);
    TrialResult::OpKindLatency& kl = r.kind_lat[k];
    kl.ops = h.count;
    kl.p50_ns = latency_percentile(h, 0.50);
    kl.p99_ns = latency_percentile(h, 0.99);
    kl.p999_ns = latency_percentile(h, 0.999);
    kl.max_ns = h.max_ns;
  }
  if (pipeline) {
    const bool split = cfg_.producers > 0;
    r.producer.workers = split ? cfg_.producers : nthreads;
    r.consumer.workers = split ? nthreads - cfg_.producers : nthreads;
    r.producer.ops = kind_done[Op::kEnqueue].load(std::memory_order_relaxed);
    r.producer.failed =
        kind_refused[Op::kEnqueue].load(std::memory_order_relaxed);
    r.consumer.ops = kind_done[Op::kDequeue].load(std::memory_order_relaxed);
    r.consumer.failed =
        kind_refused[Op::kDequeue].load(std::memory_order_relaxed);
  }
  if (service) {
    r.arrivals_offered = schedule.size();
    r.arrivals_completed = r.ops;
    const LatencyHistogram q = queue_latency_.merged();
    r.q_ops = q.count;
    r.q_p50_ns = latency_percentile(q, 0.50);
    r.q_p99_ns = latency_percentile(q, 0.99);
    r.q_p999_ns = latency_percentile(q, 0.999);
    r.q_max_ns = q.max_ns;
  }
  if (daemon_) {
    const smr::ReclaimerDaemon::Stats ds = daemon_->stats();
    r.daemon_ticks = ds.ticks;
    r.daemon_quiet_ticks = ds.quiet_ticks;
    r.daemon_pressure_ticks = ds.pressure_ticks;
    r.daemon_drained = ds.drained;
  }
  r.remote_penalty_ns = cfg_.alloc.remote_free_penalty_ns;
  r.clock_source = timing::clock_name();
  r.tsc_ghz = timing::tsc_ghz();
  r.pin_mode = cfg_.pin;
  r.pin_cpus = pin_map_;
  r.peak_bytes_mapped = alloc_after.peak_bytes_mapped;
  r.smr_stats = smr_after;
  r.epochs_in_window =
      smr_after.epochs_advanced - smr_before.epochs_advanced;
  r.freed_in_window = smr_after.freed - smr_before.freed;

  r.alloc_diff = alloc_after - alloc_before;

  const double thread_ns =
      static_cast<double>(nthreads) * static_cast<double>(r.wall_ns);
  r.pct_free =
      100.0 * static_cast<double>(r.alloc_diff.totals.ns_in_free) / thread_ns;
  r.pct_flush = 100.0 *
                static_cast<double>(r.alloc_diff.totals.ns_in_flush) /
                thread_ns;
  r.pct_lock =
      100.0 * static_cast<double>(r.alloc_diff.totals.ns_in_lock) / thread_ns;
  return r;
}

AggregateResult run_trials(
    const TrialConfig& cfg, std::vector<std::uint64_t> seeds,
    const std::function<void(Trial&, const TrialResult&, bool)>& each) {
  if (seeds.empty()) {
    for (int i = 0; i < std::max(cfg.trials, 1); ++i) {
      seeds.push_back(cfg.seed + static_cast<std::uint64_t>(i));
    }
  }
  AggregateResult agg;
  double mops_sum = 0;
  double peak_sum = 0;
  for (const std::uint64_t seed : seeds) {
    TrialConfig one = cfg;
    one.seed = seed;
    Trial trial(one);
    TrialResult r = trial.run();
    // run() ended with flush_all: every retired node must be home and
    // every rerouted block out of its stash.
    const bool accounted =
        r.ops > 0 && (r.lat_ops > 0 || !one.enable_latency) &&
        trial.reclaimer().stats().pending == 0 &&
        trial.reclaimer().executor().backlog() == 0 &&
        r.stashed == r.flushed && r.stash_backlog_end == 0;
    agg.accounted = agg.accounted && accounted;
    agg.min_mops = agg.trials == 0 ? r.mops : std::min(agg.min_mops, r.mops);
    agg.max_mops = std::max(agg.max_mops, r.mops);
    mops_sum += r.mops;
    peak_sum += static_cast<double>(r.peak_bytes_mapped);
    agg.lat.add(trial.latency().merged());
    for (int k = 0; k < Op::kNumKinds; ++k) {
      agg.kind_lat[k].add(trial.latency().merged_channel(k));
    }
    agg.queue_lat.add(trial.queue_latency().merged());
    agg.frees += r.alloc_diff.totals.n_free;
    agg.remote_frees += r.alloc_diff.totals.n_remote_free;
    agg.stashed += r.stashed;
    agg.flushed += r.flushed;
    agg.stash_backlog_end += r.stash_backlog_end;
    agg.peak_garbage =
        std::max(agg.peak_garbage, trial.garbage().peak_garbage());
    agg.schedule = trial.schedule().name();
    ++agg.trials;
    if (each) each(trial, r, accounted);
    agg.last = std::move(r);
  }
  agg.avg_mops = mops_sum / agg.trials;
  agg.avg_peak_mib = peak_sum / agg.trials / (1024.0 * 1024.0);
  return agg;
}

}  // namespace emr::harness
