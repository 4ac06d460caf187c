// Thread-churn ablation (the scenario the ThreadHandle redesign
// unlocks): throughput and peak unreclaimed garbage vs churn rate, for
// batched vs asynchronous (_af) free schedules. The paper's batch-free
// pathologies assume a fixed population; with churn a worker
// deregisters every interval and a fresh thread takes its lane, so the
// run shows (a) that no scheme leaks or stalls when readers depart and
// (b) how the batched schedules' garbage spikes interact with the
// registration hand-off, while _af keeps draining per-op.
//
//   EMR_CHURN_SWEEP - churn intervals in ms, e.g. "50 20 10" (0 = the
//                     no-churn baseline and is always run first)
//   --json <path>   - mirror the table as a JSON array (bench_common)
//
// `bench_ablation_churn --smoke` instead runs a tiny churn trial for
// every Experiment-2 reclaimer (each family: ebr, token, hp, era, nbr)
// in both its batched and _af form and fails unless every run makes
// progress under churn and accounts for every retired node afterwards
// (pending == 0 and an empty executor backlog once the trial tears
// down) — the departed-thread guarantees of the handle API.
#include <cstring>

#include "bench_common.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

int run_smoke() {
  bool ok = true;
  for (const std::string& base : smr::experiment2_reclaimers()) {
    for (const smr::FreeForm form :
         {smr::FreeForm::kBatch, smr::FreeForm::kAf}) {
      const std::string name = smr::reclaimer_name({base, form});
      harness::TrialConfig cfg;
      cfg.ds = "dgt";
      cfg.reclaimer = name;
      cfg.allocator = "je";
      cfg.nthreads = 3;
      cfg.keyrange = 2048;
      cfg.measure_ms = 60;
      cfg.churn_interval_ms = 10;
      cfg.smr.batch_size = 256;
      cfg.smr.epoch_freq = 32;
      const harness::AggregateResult c = harness::run_trials(cfg);
      const harness::TrialResult& r = c.last;
      const bool good = c.accounted && r.threads_churned > 0;
      std::printf("%-12s ops=%-8llu churned=%-3llu %s\n", name.c_str(),
                  static_cast<unsigned long long>(r.ops),
                  static_cast<unsigned long long>(r.threads_churned),
                  good ? "ok" : "FAILED");
      ok &= good;
    }
  }
  std::printf("bench_ablation_churn --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  harness::TrialConfig base = default_config();
  base.nthreads = std::max(base.nthreads, 2);  // churn needs a survivor
  base.enable_garbage = true;
  harness::print_banner(
      "Ablation: thread churn vs free schedule",
      "beyond the paper: batch-free harm under a dynamic population",
      describe(base));

  const std::vector<int> sweep = harness::churn_sweep_from_env({50, 20, 10});

  const char* kReclaimers[] = {"debra", "debra_af", "token", "token_af",
                               "hp",    "hp_af",    "ibr",   "ibr_af",
                               "nbr",   "nbr_af"};

  harness::Table table({"churn_ms", "reclaimer", "Mops/s", "churned",
                        "peak_garbage", "freed_in_window"});
  for (int churn_ms : sweep) {
    for (const char* reclaimer : kReclaimers) {
      harness::TrialConfig cfg = base;
      cfg.reclaimer = reclaimer;
      cfg.churn_interval_ms = churn_ms;
      const harness::AggregateResult c = harness::run_trials(cfg, {cfg.seed});
      const harness::TrialResult& r = c.last;
      const std::uint64_t peak = c.peak_garbage;
      table.add_row({std::to_string(churn_ms), reclaimer,
                     harness::fixed(r.mops, 2),
                     std::to_string(r.threads_churned),
                     std::to_string(peak),
                     std::to_string(r.freed_in_window)});
      std::printf(
          "  churn=%-3dms %-9s %7.2f Mops/s  churned=%-3llu peak_garbage=%s\n",
          churn_ms, reclaimer, r.mops,
          static_cast<unsigned long long>(r.threads_churned),
          harness::human_count(static_cast<double>(peak)).c_str());
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "ablation_churn.csv");
  std::printf("\nCSV: %sablation_churn.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
