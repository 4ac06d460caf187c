// Fixed vs adaptive free scheduling (the FreeSchedule layer's
// ablation): for one base reclaimer, sweep thread counts x churn rates
// x the three schedules — fixed batch (the paper's harmful default),
// fixed amortized `_af` (the paper's fix), and `_adaptive` (the
// population-aware controller that prorates the seal/scan threshold by
// the registered population and scales the per-op drain quantum with
// backlog pressure). Each trial records the schedule-trace timeline
// (executor backlog, drain quantum, population) the harness sampler
// produces, so the table shows not just throughput and peak garbage but
// how hard the controller actually worked.
//
//   EMR_RECLAIMER   - scheme and routing to ablate: each form replaces
//                     its form suffix and `_hf` stays (default debra;
//                     hp_hf sweeps hp_hf, hp_af_hf and hp_adaptive_hf)
//   EMR_CHURN_SWEEP - churn intervals in ms (0 = the no-churn baseline,
//                     always run first)
//   --json <path>   - mirror the table as a JSON array (bench_common)
//
// `bench_ablation_adaptive --smoke` runs a tiny churn trial for every
// Experiment-2 reclaimer in batch, `_af` and `_adaptive` form and fails
// unless (a) every run makes progress and accounts for every retired
// node at teardown, and (b) aggregated over the reclaimer set, the
// adaptive schedule's peak garbage stays within 2x of `_af` while the
// fixed batch schedule remains the worst case — the acceptance shape
// for the adaptive controller.
#include <cstring>

#include "bench_common.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

const smr::FreeForm kForms[] = {smr::FreeForm::kBatch, smr::FreeForm::kAf,
                                smr::FreeForm::kAdaptive};

harness::TrialConfig smoke_config(const std::string& reclaimer) {
  harness::TrialConfig cfg;
  cfg.ds = "dgt";
  cfg.reclaimer = reclaimer;
  cfg.allocator = "je";
  cfg.nthreads = 3;
  cfg.keyrange = 2048;
  // Long enough, with frequent enough departures, that the schedule
  // ordering (batch worst, adaptive ~ af) separates from trial noise:
  // every churn parks the departing lane's bags, which the fixed batch
  // schedule only drains one node per op while the amortizing
  // schedules keep pace.
  cfg.measure_ms = 100;
  cfg.churn_interval_ms = 5;
  cfg.smr.batch_size = 2048;
  cfg.smr.epoch_freq = 32;
  // The batch pathology runs through the remote-free cost (section
  // 3.2): without it, a 2048-node burst is nearly free and the
  // schedule ordering drowns in trial noise. Same stand-in value the
  // bench defaults use.
  cfg.alloc.remote_free_penalty_ns = 300;
  // The schedule-ordering gate is tuned to this penalty: keep startup
  // calibration from substituting the host's measured value.
  cfg.alloc.remote_penalty_explicit = true;
  cfg.enable_garbage = true;
  cfg.enable_schedule_trace = true;
  return cfg;
}

int run_smoke() {
  bool ok = true;
  // Two seeds per (reclaimer, schedule) cell: peak garbage of a single
  // 100 ms trial jitters a few percent, and the schedule ordering below
  // is decided on sums over 10 reclaimers x 2 seeds, which averages
  // that jitter down far enough for the slack margin to be ~3 sigma.
  std::uint64_t peak_sum[3] = {0, 0, 0};
  for (const std::string& base : smr::experiment2_reclaimers()) {
    for (int s = 0; s < 3; ++s) {
      const std::string name = smr::reclaimer_name({base, kForms[s]});
      harness::run_trials(
          smoke_config(name), kSmokeSeeds,
          [&](harness::Trial& trial, const harness::TrialResult& r,
              bool accounted) {
            const std::uint64_t peak = trial.garbage().peak_garbage();
            peak_sum[s] += peak;
            const bool good = accounted && r.threads_churned > 0;
            std::printf(
                "%-16s sched=%-8s seed=%-4llu ops=%-8llu "
                "peak_garbage=%-8llu peak_backlog=%-8llu max_quota=%-3llu "
                "%s\n",
                name.c_str(), trial.schedule().name(),
                static_cast<unsigned long long>(trial.config().seed),
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(peak),
                static_cast<unsigned long long>(r.peak_backlog),
                static_cast<unsigned long long>(r.max_drain_quota),
                good ? "ok" : "FAILED");
            ok &= good;
          });
    }
  }

  // Acceptance shape, on the aggregated peaks: adaptive within 2x of
  // _af, and fixed batch worst up to a 10% noise allowance — a genuine
  // regression (a schedule piling garbage) overshoots that by
  // multiples and trips the 2x bound as well.
  const std::uint64_t batch = peak_sum[0], af = peak_sum[1],
                      adaptive = peak_sum[2];
  std::printf("\npeak garbage sums: batch=%llu af=%llu adaptive=%llu\n",
              static_cast<unsigned long long>(batch),
              static_cast<unsigned long long>(af),
              static_cast<unsigned long long>(adaptive));
  if (adaptive > 2 * std::max<std::uint64_t>(af, 1)) {
    std::printf("FAILED: adaptive peak garbage exceeds 2x the _af "
                "schedule\n");
    ok = false;
  }
  const std::uint64_t batch_slack = batch + batch / 10;
  if (batch_slack < af || batch_slack < adaptive) {
    std::printf("FAILED: fixed batch is no longer the worst case\n");
    ok = false;
  }
  std::printf("bench_ablation_adaptive --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  harness::TrialConfig base = default_config();
  base.nthreads = std::max(base.nthreads, 2);
  base.enable_garbage = true;
  base.enable_schedule_trace = true;
  const smr::ReclaimerSpec spec = smr::parse_reclaimer(base.reclaimer);
  harness::print_banner(
      "Ablation: fixed vs adaptive free schedules",
      "beyond the paper: population-aware batching (FreeSchedule layer)",
      describe(base) + " reclaimer=" +
          smr::reclaimer_name(
              {spec.scheme, smr::FreeForm::kBatch, spec.home_flush}));

  std::vector<int> churn_sweep = env_int_list("EMR_CHURN_SWEEP");
  if (churn_sweep.empty()) churn_sweep = {20};
  churn_sweep.insert(churn_sweep.begin(), 0);

  harness::Table table({"threads", "churn_ms", "reclaimer", "schedule",
                        "Mops/s", "peak_garbage", "peak_backlog",
                        "max_quota"});
  for (int nthreads : default_thread_sweep()) {
    if (nthreads < 2) continue;  // churn rows need a survivor
    for (int churn_ms : churn_sweep) {
      for (const smr::FreeForm form : kForms) {
        harness::TrialConfig cfg = base;
        cfg.nthreads = nthreads;
        cfg.reclaimer =
            smr::reclaimer_name({spec.scheme, form, spec.home_flush});
        cfg.churn_interval_ms = churn_ms;
        const harness::AggregateResult c =
            harness::run_trials(cfg, {cfg.seed});
        const harness::TrialResult& r = c.last;
        const std::uint64_t peak = c.peak_garbage;
        table.add_row({std::to_string(nthreads), std::to_string(churn_ms),
                       cfg.reclaimer, c.schedule,
                       harness::fixed(r.mops, 2), std::to_string(peak),
                       std::to_string(r.peak_backlog),
                       std::to_string(r.max_drain_quota)});
        std::printf(
            "  t=%-3d churn=%-3dms %-16s %7.2f Mops/s  peak_garbage=%-8s "
            "peak_backlog=%-8s max_quota=%llu\n",
            nthreads, churn_ms, cfg.reclaimer.c_str(), r.mops,
            harness::human_count(static_cast<double>(peak)).c_str(),
            harness::human_count(static_cast<double>(r.peak_backlog))
                .c_str(),
            static_cast<unsigned long long>(r.max_drain_quota));
      }
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "ablation_adaptive.csv");
  std::printf("\nCSV: %sablation_adaptive.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
