// Tail latency vs free schedule (docs/LATENCY.md): the paper's harm —
// batch free can be harmful — is a *tail* phenomenon, so this sweep
// puts p50/p99/p99.9/max next to mops for one base reclaimer under the
// fixed batch schedule (the paper's default), fixed amortized `_af`
// (the paper's fix) and `_adaptive` (the population-aware controller).
// The headline shape: fixed-batch p99.9 blows up by the whole-bag drain
// cost while mops stays flat — throughput alone cannot see the harm.
//
//   EMR_RECLAIMER - scheme and routing of the swept names: each form
//                   replaces its form suffix and `_hf` stays (debra;
//                   hp_hf sweeps hp_hf, hp_af_hf and hp_adaptive_hf)
//   --json <path> - mirror the table as JSON (bench_common);
//                   with --smoke, `--json BENCH_fig_latency.json` from
//                   the repo root refreshes the committed snapshot
//
// `bench_fig_latency --smoke` runs an 8-thread cell on the modeled
// jemalloc (small tcache + 500 ns remote-free penalty, so one
// whole-bag drain costs ~batch x penalty while an _af op never frees
// more than one flush burst) and fails unless, aggregated over two
// seeds: (a) every run progresses and accounts exactly, and (b)
// fixed-batch p99.9 >= 2x the _af p99.9 while their mops differ by
// < 20%.
#include <cmath>
#include <cstring>
#include <iterator>

#include "bench_common.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

const smr::FreeForm kForms[] = {smr::FreeForm::kBatch, smr::FreeForm::kAf,
                                smr::FreeForm::kAdaptive};

const std::vector<std::string> kColumns = {
    "threads",     "reclaimer",   "schedule",    "mops",
    "p50_us",      "p99_us",      "p999_us",     "max_us",
    "ins_p999_us", "ers_p999_us", "lkp_p999_us", "ops",
    "penalty_ns",  "clock",       "pin"};

/// The shared tail cell on a dgt set of 4096 keys.
harness::TrialConfig smoke_config(const std::string& reclaimer) {
  harness::TrialConfig cfg = tail_cell_config(reclaimer);
  cfg.ds = "dgt";
  cfg.keyrange = 4096;
  return cfg;
}

/// One row per cell: percentiles over the seeds' merged histograms. The
/// per-op-kind split matters because the batch drain rides the erase
/// path — where retire lives — so its tail dwarfs the read-side ones.
void add_row(harness::Table& table, const harness::TrialConfig& cfg,
             const harness::AggregateResult& c) {
  auto p999 = [&](harness::Op::Kind k) {
    return harness::fixed(pct_us(c.kind_lat[k], 0.999), 2);
  };
  table.add_row(
      {std::to_string(cfg.nthreads), cfg.reclaimer, c.schedule,
       harness::fixed(c.avg_mops, 3), harness::fixed(pct_us(c.lat, 0.50), 2),
       harness::fixed(pct_us(c.lat, 0.99), 2),
       harness::fixed(pct_us(c.lat, 0.999), 2),
       harness::fixed(static_cast<double>(c.lat.max_ns) / 1000.0, 2),
       p999(harness::Op::kInsert), p999(harness::Op::kErase),
       p999(harness::Op::kLookup), std::to_string(c.lat.count),
       std::to_string(c.last.remote_penalty_ns), c.last.clock_source,
       c.last.pin_mode});
}

int run_smoke(int argc, char** argv) {
  // hp, not debra: the smoke runs 8 workers on however few cores CI
  // offers, and an epoch-consensus scheme barely advances under that
  // oversubscription — its bags defer past the window and the batch
  // tail looks deceptively clean. hp's scan fires locally at the
  // retire-list threshold, so the whole-batch scan+free lands inside a
  // measured op regardless of scheduler interleaving.
  const std::string base = "hp";
  harness::Table table(kColumns);

  harness::AggregateResult cells[std::size(kForms)];
  bool ok = true;
  for (std::size_t s = 0; s < std::size(kForms); ++s) {
    const harness::TrialConfig cfg =
        smoke_config(smr::reclaimer_name({base, kForms[s]}));
    cells[s] = run_cell(cfg.reclaimer, cfg, kSmokeSeeds);
    add_row(table, cfg, cells[s]);
    ok &= cells[s].accounted;
  }

  const double p999_batch = pct_us(cells[0].lat, 0.999);
  const double p999_af = pct_us(cells[1].lat, 0.999);
  const double mops_batch = cells[0].avg_mops;
  const double mops_af = cells[1].avg_mops;
  std::printf("\nmerged p99.9: batch=%.1fus af=%.1fus adaptive=%.1fus\n",
              p999_batch, p999_af, pct_us(cells[2].lat, 0.999));
  const double mops_diff = std::abs(mops_batch - mops_af);
  std::printf("mops: batch=%.3f af=%.3f (diff %.1f%%)\n", mops_batch,
              mops_af, mops_af > 0 ? 100.0 * mops_diff / mops_af : 0.0);

  // (b) The paper's invisible harm: the whole-bag drains push the tail
  // out by multiples while throughput stays flat.
  if (p999_batch < 2.0 * p999_af) {
    std::printf("FAILED: fixed-batch p99.9 (%.1fus) is not >= 2x the _af "
                "p99.9 (%.1fus)\n",
                p999_batch, p999_af);
    ok = false;
  }
  if (mops_af <= 0 || mops_diff >= 0.20 * mops_af) {
    std::printf("FAILED: batch vs _af mops differ by >= 20%% "
                "(batch=%.3f af=%.3f) — the tail story must not ride on a "
                "throughput gap\n",
                mops_batch, mops_af);
    ok = false;
  }

  maybe_write_json(table, json_path_from_args(argc, argv));
  std::printf("bench_fig_latency --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke(argc, argv);
  }

  harness::TrialConfig base = default_config();
  base.enable_latency = true;
  const smr::ReclaimerSpec spec = smr::parse_reclaimer(base.reclaimer);
  harness::print_banner(
      "Tail latency: per-op p50/p99/p99.9 vs free schedule",
      "beyond the paper: batch free's harm is a tail phenomenon "
      "(docs/LATENCY.md)",
      describe(base) + " reclaimer=" +
          smr::reclaimer_name({spec.scheme, smr::FreeForm::kBatch,
                               spec.home_flush}));

  harness::Table table(kColumns);
  for (int nthreads : default_thread_sweep()) {
    for (const smr::FreeForm form : kForms) {
      harness::TrialConfig cfg = base;
      cfg.nthreads = nthreads;
      cfg.reclaimer =
          smr::reclaimer_name({spec.scheme, form, spec.home_flush});
      add_row(table, cfg,
              run_cell("t=" + std::to_string(nthreads) + " " + cfg.reclaimer,
                       cfg, {cfg.seed}));
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "fig_latency.csv");
  std::printf("\nCSV: %sfig_latency.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
