// Queue pipeline figure (docs/DATA_STRUCTURES.md): the paper's remote-free
// cost needs an *asymmetric* producer/consumer split to actually get
// charged. A symmetric MPMC trial (every worker alternates enqueue and
// dequeue) recycles queue nodes through each worker's own tcache, so
// the modeled allocator's foreign-flush penalty rarely fires; split the
// same workers into producers on one end of the EMR_PIN layout and
// consumers on the other and every dequeued node is freed by a thread
// that never allocates — the consumer tcaches overflow continuously and
// each flush returns foreign blocks to their owners' arenas at the
// measured remote-free cost. This sweep puts the two layouts side by
// side for one base reclaimer under the fixed batch schedule, `_af`
// and `_adaptive`, reporting per-op-kind tails (enqueue and
// dequeue separately — batch drains ride the dequeue path, where retire
// happens) and the remote-free share that tells the layouts apart.
//
//   EMR_RECLAIMER  - scheme and routing of the swept names: each form
//                    replaces its form suffix and `_hf` stays (debra;
//                    hp_hf sweeps hp_hf, hp_af_hf and hp_adaptive_hf)
//   EMR_DS         - queue flavor (msqueue | lockedqueue; msqueue)
//   --json <path>  - mirror the table as JSON (bench_common);
//                    with --smoke, `--json BENCH_fig_queue.json` from
//                    the repo root refreshes the committed snapshot
//
// `bench_fig_queue --smoke` runs calibrated 8-thread cells (4+4 split
// in the asymmetric layout) on the modeled jemalloc and fails unless,
// aggregated over two seeds: (a) every run progresses and accounts
// exactly, (b) the asymmetric layout charges a higher remote-free
// share than the symmetric one, and (c) in the asymmetric layout the
// fixed-batch dequeue p99.9 is >= 2x the _af dequeue p99.9 while their
// mops stay comparable — the same invisible-harm shape as
// bench_fig_latency, now driven by the role split.
#include <cmath>
#include <cstring>
#include <iterator>

#include "bench_common.hpp"
#include "ds/queue.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

const smr::FreeForm kForms[] = {smr::FreeForm::kBatch, smr::FreeForm::kAf,
                                smr::FreeForm::kAdaptive};

const std::vector<std::string> kColumns = {
    "layout",      "producers",    "threads",     "ds",
    "reclaimer",   "schedule",     "mops",        "enq_p999_us",
    "deq_p999_us", "remote_share", "enq_ops",     "deq_ops",
    "penalty_ns",  "clock",        "pin"};

const char* layout_name(int producers) {
  return producers > 0 ? "asym" : "sym";
}

double deq_p999_us(const harness::AggregateResult& c) {
  return pct_us(c.kind_lat[harness::Op::kDequeue], 0.999);
}

/// One row per (layout, schedule) cell: per-kind percentiles over the
/// seeds' merged histograms, allocator counters summed.
void add_row(harness::Table& table, const harness::TrialConfig& cfg,
             const harness::AggregateResult& c) {
  const LatencyHistogram& enq = c.kind_lat[harness::Op::kEnqueue];
  const LatencyHistogram& deq = c.kind_lat[harness::Op::kDequeue];
  table.add_row(
      {layout_name(cfg.producers), std::to_string(cfg.producers),
       std::to_string(cfg.nthreads), cfg.ds, cfg.reclaimer, c.schedule,
       harness::fixed(c.avg_mops, 3), harness::fixed(pct_us(enq, 0.999), 2),
       harness::fixed(pct_us(deq, 0.999), 2),
       harness::fixed(c.remote_share(), 3), std::to_string(enq.count),
       std::to_string(deq.count), std::to_string(c.last.remote_penalty_ns),
       c.last.clock_source, c.last.pin_mode});
}

harness::AggregateResult run_row(harness::Table& table,
                                 const harness::TrialConfig& cfg,
                                 const std::vector<std::uint64_t>& seeds) {
  const harness::AggregateResult c = run_cell(
      std::string(layout_name(cfg.producers)) + " t=" +
          std::to_string(cfg.nthreads) + " " + cfg.reclaimer,
      cfg, seeds);
  add_row(table, cfg, c);
  return c;
}

int run_smoke(int argc, char** argv) {
  // hp, not debra, for the same reason as bench_fig_latency: under CI
  // oversubscription an epoch scheme's bags defer past the window; hp's
  // scan fires locally at the retire-list threshold, so the whole-batch
  // free lands inside a measured dequeue regardless of interleaving.
  const std::string base = "hp";
  harness::Table table(kColumns);

  // layout x schedule on the shared tail cell, 8 workers (4+4 in the
  // asymmetric layout): sym rows first, then asym, so the table reads
  // as two blocks.
  auto name = [&](std::size_t s) {
    return smr::reclaimer_name({base, kForms[s]});
  };
  harness::AggregateResult sym[std::size(kForms)];
  harness::AggregateResult asym[std::size(kForms)];
  bool ok = true;
  for (std::size_t s = 0; s < std::size(kForms); ++s) {
    sym[s] = run_row(table, tail_pipeline_config(name(s), 0), kSmokeSeeds);
    ok &= sym[s].accounted;
  }
  for (std::size_t s = 0; s < std::size(kForms); ++s) {
    asym[s] = run_row(table, tail_pipeline_config(name(s), 4), kSmokeSeeds);
    ok &= asym[s].accounted;
  }

  std::printf("\nremote-free share (batch schedule): sym=%.3f asym=%.3f\n",
              sym[0].remote_share(), asym[0].remote_share());
  std::printf("asym dequeue p99.9: batch=%.1fus af=%.1fus (mops %.3f vs "
              "%.3f)\n",
              deq_p999_us(asym[0]), deq_p999_us(asym[1]), asym[0].avg_mops,
              asym[1].avg_mops);

  // (b) The role split is what charges the remote-free cost: symmetric
  // workers re-own freed nodes through their own tcache (only the
  // cross-worker dequeues count remote), while consumer-side frees are
  // foreign essentially always. The margin is the symmetric layout's
  // own-tcache hit rate, ~1/nthreads, so 0.05 is conservative at 8
  // threads.
  for (std::size_t s = 0; s < std::size(kForms); ++s) {
    if (asym[s].remote_share() < sym[s].remote_share() + 0.05) {
      std::printf("FAILED: %s asym remote share (%.3f) is not above the "
                  "sym share (%.3f) by 0.05\n",
                  name(s).c_str(), asym[s].remote_share(),
                  sym[s].remote_share());
      ok = false;
    }
  }
  // (c) Same invisible harm as the set workload, now on the dequeue
  // path where retire lives: whole-bag drains push the consumer tail
  // out by multiples while throughput stays flat.
  const double deq_batch = deq_p999_us(asym[0]);
  const double deq_af = deq_p999_us(asym[1]);
  if (deq_batch < 2.0 * deq_af) {
    std::printf("FAILED: asym fixed-batch dequeue p99.9 (%.1fus) is not "
                ">= 2x the _af dequeue p99.9 (%.1fus)\n",
                deq_batch, deq_af);
    ok = false;
  }
  const double mops_batch = asym[0].avg_mops;
  const double mops_af = asym[1].avg_mops;
  const double mops_diff = std::abs(mops_batch - mops_af);
  if (mops_af <= 0 || mops_diff >= 0.25 * mops_af) {
    std::printf("FAILED: asym batch vs _af mops differ by >= 25%% "
                "(batch=%.3f af=%.3f) — the tail story must not ride on a "
                "throughput gap\n",
                mops_batch, mops_af);
    ok = false;
  }

  maybe_write_json(table, json_path_from_args(argc, argv));
  std::printf("bench_fig_queue --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke(argc, argv);
  }

  harness::TrialConfig base = default_config();
  base.workload = "pipeline";
  base.enable_latency = true;
  // default_config's EMR_DS default is a set; only keep it when the
  // user pointed it at an actual queue flavor.
  bool is_queue = false;
  for (const std::string& n : ds::queue_names()) is_queue |= (n == base.ds);
  if (!is_queue) base.ds = "msqueue";
  const smr::ReclaimerSpec spec = smr::parse_reclaimer(base.reclaimer);
  harness::print_banner(
      "Queue pipeline: symmetric vs asymmetric producer/consumer split",
      "beyond the paper: the remote-free cost needs a role split to get "
      "charged (docs/DATA_STRUCTURES.md)",
      describe(base) + " reclaimer=" +
          smr::reclaimer_name(
              {spec.scheme, smr::FreeForm::kBatch, spec.home_flush}) +
          " cap=" + std::to_string(base.queue_cap));

  harness::Table table(kColumns);
  for (int nthreads : default_thread_sweep()) {
    for (int split = 0; split < 2; ++split) {
      const int producers = split == 0 ? 0 : nthreads / 2;
      if (split == 1 && producers == 0) continue;  // needs >= 2 threads
      for (const smr::FreeForm form : kForms) {
        harness::TrialConfig cfg = base;
        cfg.nthreads = nthreads;
        cfg.producers = producers;
        cfg.reclaimer =
            smr::reclaimer_name({spec.scheme, form, spec.home_flush});
        run_row(table, cfg, {cfg.seed});
      }
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "fig_queue.csv");
  std::printf("\nCSV: %sfig_queue.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
