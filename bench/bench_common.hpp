// Shared configuration for the paper-reproduction bench binaries.
//
// Every binary runs at laptop scale by default and scales to the paper's
// setup through environment variables (see EXPERIMENTS.md):
//   EMR_THREADS  - thread counts, e.g. "6 12 24 48 96 144 192"
//   EMR_MS       - measured milliseconds per trial (paper: 5000)
//   EMR_TRIALS   - trials per data point (paper: 3)
//   EMR_KEYRANGE - key range (paper: 2e7 for ABtree, 2e6 for DGT)
//   EMR_BATCH    - retire batch size / scan threshold (Experiment 2: 32768)
//   EMR_RECLAIMER - factory name, which alone picks the scheme, free
//                  form and routing (debra, hp_af, hp_adaptive_hf;
//                  smr/factory.hpp, docs/FREE_SCHEDULES.md)
//   EMR_LATENCY  - 1 = record per-op latency histograms (docs/LATENCY.md)
//   EMR_DRAIN_MIN / EMR_DRAIN_MAX - clamp on the adaptive schedule's
//                  per-op drain quantum
//   EMR_FLUSH_BATCH - ceiling on the home-flush quantum: how many
//                  stashed remote frees an owner retires locally per op
//                  end (>= 1; docs/FREE_SCHEDULES.md)
//   EMR_POOL_CAP - pooling inventory cap per lane (default: 4 batches,
//                  floored at 1024; non-positive values are rejected)
//   EMR_EXTRA_SLOTS - registration slots beyond the worker count
//                  (churn/teardown headroom; must be >= 1)
//   EMR_HP_SLOTS - protection slots per thread (hp/he/wfe)
//   EMR_EPOCH_FREQ - era-clock advance rate (he/ibr/wfe/nbr)
//   EMR_ALLOC    - je | tc | mi | system | je_model | tc_model | mi_model
//                  (docs/ALLOCATORS.md)
//   EMR_REMOTE_PENALTY_NS - modelled cross-socket free penalty; setting
//                  it pins the value, overriding startup calibration
//   EMR_CALIBRATE - on | off: replace the default penalty with the
//                  measured cache-line transfer cost (docs/ALLOCATORS.md)
//   EMR_PIN      - off | compact | scatter CPU pinning for workers,
//                  the reclaimer daemon, and calibration threads
//   EMR_TSC      - 1 (default) = use the invariant-TSC clock when the
//                  CPU advertises one; 0 = always clock_gettime
//   EMR_CHURN_MS - thread-churn interval: a worker deregisters and a
//                  fresh thread registers every this-many ms (0 = off)
//   EMR_WORKLOAD - set | pipeline: the insert/erase/lookup set mix, or
//                  enqueue/dequeue over a ds/ queue (EMR_DS = msqueue |
//                  lockedqueue; docs/DATA_STRUCTURES.md)
//   EMR_PRODUCERS - pipeline role split: the first N workers enqueue
//                  only, the rest dequeue only (0 = every worker
//                  alternates); consumers take the far end of EMR_PIN
//   EMR_QUEUE_CAP - pipeline queue capacity in nodes (0 = unbounded)
//   EMR_ARRIVAL  - closed | poisson | burst traffic model; open-loop
//                  modes serve a seeded pre-generated arrival schedule
//                  (docs/SERVICE_MODE.md)
//   EMR_RATE_OPS - open-loop mean offered load, ops/s
//   EMR_ZIPF_S   - Zipfian key skew for open-loop draws (0 = uniform)
//   EMR_PHASES   - comma list of rate multipliers over equal window slices
//   EMR_RECLAIMER_DAEMON - off | optimistic | aggressive background
//                  reclaimer thread; EMR_DAEMON_MS sets its tick period
//   EMR_OUT      - artifact directory for CSV/timeline dumps
//
// bench_paper takes figure ids (or --smoke) on argv. The other binaries
// that parse argv (bench_ablation_churn, bench_ablation_adaptive,
// bench_fig_latency, bench_fig_service, bench_fig_queue,
// bench_fig_homeflush) accept `--json <path>` (or EMR_JSON): the result
// table is mirrored as a JSON array via harness::emit_json, the format
// the committed BENCH_*.json perf snapshots ingest (ci/check.sh writes
// its smoke tables under the build directory; a committed snapshot is
// refreshed by hand with `./build/bench_fig_<x> --smoke --json
// BENCH_fig_<x>.json` from the repo root). The helpers below are the
// two lines a bench needs to opt in.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/latency.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace emr::bench {

/// Laptop-scale defaults shared by all binaries; env overrides win.
inline harness::TrialConfig default_config() {
  harness::TrialConfig cfg;
  cfg.ds = "abtree";
  cfg.reclaimer = "debra";
  cfg.allocator = "je";
  cfg.nthreads = 4;
  cfg.keyrange = 1 << 14;
  cfg.measure_ms = 200;
  cfg.trials = 1;
  cfg.smr.batch_size = 2048;
  // Model the four-socket machine's remote-free cost so the RBF effect is
  // visible at laptop scale (docs/ALLOCATORS.md).
  cfg.alloc.remote_free_penalty_ns = 150;

  // Apply env overrides on top. apply_env_overrides only touches fields
  // whose EMR_* variable is actually present, so the laptop defaults
  // above win whenever the environment is silent.
  harness::apply_env_overrides(cfg);
  return cfg;
}

/// Default thread sweep: oversubscribes the machine (the analogue of the
/// paper's walk from one socket to four).
inline std::vector<int> default_thread_sweep() {
  return harness::thread_sweep_from_env({1, 2, 4, 8, 16});
}

/// `--json <path>` from argv, falling back to EMR_JSON; empty when
/// neither is present.
inline std::string json_path_from_args(int argc, char** argv) {
  std::string path = env_str("EMR_JSON", "");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") path = argv[i + 1];
  }
  return path;
}

/// Mirrors `table` to `path` as JSON when a path was given.
inline void maybe_write_json(const harness::Table& table,
                             const std::string& path) {
  if (path.empty()) return;
  if (table.write_json(path)) {
    std::printf("JSON: %s\n", path.c_str());
  } else {
    std::printf("bench: failed to write JSON to %s\n", path.c_str());
  }
}

/// The calibrated tail cell the latency, queue and homeflush smokes
/// share: 8 workers on the modeled jemalloc for 150 ms, latency
/// recorded. The tail gap runs through the modeled remote-free cost: a
/// sealed 128-node bag freed whole inside one op crosses the 32-slot
/// tcache four times, paying ~batch x penalty (~64 us) in that op, while
/// an _af op never pays more than one 16-block flush (~8 us). Batch 128
/// keeps drains frequent enough to sit above the p99.9 rank. The gates
/// are tuned to this exact penalty, so startup calibration must not
/// substitute the host's measured cache-line cost. The permissive
/// drain_max leaves the _adaptive quantum to its controller (backlog
/// horizon, ns-per-free cap), not the default ceiling.
inline harness::TrialConfig tail_cell_config(const std::string& reclaimer) {
  harness::TrialConfig cfg;
  cfg.reclaimer = reclaimer;
  cfg.allocator = "je";
  cfg.nthreads = 8;
  cfg.measure_ms = 150;
  cfg.enable_latency = true;
  cfg.smr.batch_size = 128;
  cfg.smr.epoch_freq = 32;
  cfg.alloc.tcache_cap = 32;
  cfg.alloc.remote_free_penalty_ns = 500;
  cfg.alloc.remote_penalty_explicit = true;
  cfg.smr.drain_max = 256;
  return cfg;
}

/// The tail cell on the pipeline workload. The msqueue is bounded at
/// 8192 nodes so a producer burst cannot balloon the live set: a full
/// producer side yields until the consumers catch up, the backpressure
/// a real pipeline stage would see.
inline harness::TrialConfig tail_pipeline_config(const std::string& reclaimer,
                                                 int producers) {
  harness::TrialConfig cfg = tail_cell_config(reclaimer);
  cfg.workload = "pipeline";
  cfg.ds = "msqueue";
  cfg.producers = producers;
  cfg.queue_cap = 8192;
  return cfg;
}

/// The two seeds every multi-seed smoke cell folds.
inline const std::vector<std::uint64_t> kSmokeSeeds = {42, 1042};

/// The q-quantile of `h` in microseconds.
inline double pct_us(const LatencyHistogram& h, double q) {
  return latency_percentile(h, q) / 1000.0;
}

/// One figure cell: `cfg` once per seed, folded by harness::run_trials,
/// with one line per seed — the p99.9 of every op kind that ran, the
/// stash count and the garbage-census peak.
inline harness::AggregateResult run_cell(
    const std::string& label, const harness::TrialConfig& cfg,
    const std::vector<std::uint64_t>& seeds) {
  return harness::run_trials(
      cfg, seeds,
      [&](harness::Trial& trial, const harness::TrialResult& r,
          bool accounted) {
        static const char* const kKinds[] = {"ins", "ers", "lkp", "enq",
                                             "deq"};
        std::string tails;
        for (int k = 0; k < harness::Op::kNumKinds; ++k) {
          if (r.kind_lat[k].ops == 0) continue;
          tails += std::string(kKinds[k]) + "_p999=" +
                   harness::fixed(r.kind_lat[k].p999_ns / 1000.0, 1) + "us ";
        }
        std::printf(
            "%-20s sched=%-8s seed=%-4llu ops=%-8llu mops=%-6s %s"
            "stashed=%-8llu peak_garbage=%-8llu %s\n",
            label.c_str(), trial.schedule().name(),
            static_cast<unsigned long long>(trial.config().seed),
            static_cast<unsigned long long>(r.ops),
            harness::fixed(r.mops, 2).c_str(), tails.c_str(),
            static_cast<unsigned long long>(r.stashed),
            static_cast<unsigned long long>(trial.garbage().peak_garbage()),
            accounted ? "ok" : "FAILED");
      });
}

inline std::string describe(const harness::TrialConfig& cfg) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ds=%s alloc=%s keyrange=%llu ms=%d trials=%d batch=%zu "
                "penalty=%lluns",
                cfg.ds.c_str(), cfg.allocator.c_str(),
                static_cast<unsigned long long>(cfg.keyrange),
                cfg.measure_ms, cfg.trials, cfg.smr.batch_size,
                static_cast<unsigned long long>(
                    cfg.alloc.remote_free_penalty_ns));
  return buf;
}

}  // namespace emr::bench
