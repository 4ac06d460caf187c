// Home-flush routing figure (docs/FREE_SCHEDULES.md): the asymmetric
// producer/consumer pipeline is the workload where every dequeue-side
// free is foreign (bench_fig_queue), so it is also the workload where
// rerouting those frees back to their owners pays the most. The _hf
// twins push each about-to-be-freed foreign block onto its home lane's
// stash; the owner flushes it locally at FreeSchedule::flush_quota per
// op end. This sweep puts the plain and _hf forms side by side and then
// sweeps EMR_FLUSH_BATCH on the _hf form: remote share and the dequeue
// tail collapse under routing, while an oversized flush batch parks
// dead blocks in the stashes long enough to re-inflate peak garbage —
// the paper's "too epic" trade-off one layer down.
//
//   EMR_RECLAIMER  - scheme of the swept names; the sweep sets their
//                    form and `_hf` (debra)
//   EMR_DS         - queue flavor (msqueue | lockedqueue; msqueue)
//   --json <path>  - mirror the table as JSON (bench_common);
//                    with --smoke, `--json BENCH_fig_homeflush.json` from
//                    the repo root refreshes the committed snapshot
//
// `bench_fig_homeflush --smoke` runs 4+4 pipeline cells (scatter pin,
// modeled jemalloc, 500 ns remote penalty) and fails unless,
// aggregated over two seeds: (a) every run progresses, accounts
// exactly, and — for _hf cells — the stash ledger balances
// (stashed == flushed, zero backlog at teardown) while non-hf cells
// never touch a stash, (b) routing collapses the remote-free share
// (hp_af >= 0.9 foreign, hp_af_hf <= 0.25), and (c) the _hf dequeue
// p99.9 improves on the plain _af one without mops falling below 80%
// of the plain form's (faster is expected — the rerouted frees stop
// paying the penalty).
#include <cstring>

#include "bench_common.hpp"
#include "ds/queue.hpp"
#include "smr/factory.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

const std::vector<std::string> kColumns = {
    "reclaimer",   "schedule",          "flush_batch",  "producers",
    "threads",     "ds",                "mops",         "enq_p999_us",
    "deq_p999_us", "remote_share",      "stashed",      "flushed",
    "stash_backlog_end",                "peak_garbage", "penalty_ns",
    "clock",       "pin"};

/// The shared tail pipeline cell split 4+4, with the garbage census on
/// and a scatter pin that spreads producers and consumers across the
/// topology, so the consumer-side frees are cross-core in the modeled
/// sense too.
harness::TrialConfig smoke_config(const std::string& reclaimer,
                                  std::size_t flush_batch) {
  harness::TrialConfig cfg = tail_pipeline_config(reclaimer, 4);
  cfg.enable_garbage = true;
  cfg.pin = "scatter";
  cfg.smr.flush_batch = flush_batch;
  return cfg;
}

double deq_p999_us(const harness::AggregateResult& c) {
  return pct_us(c.kind_lat[harness::Op::kDequeue], 0.999);
}

/// One row per (reclaimer, flush_batch) cell: per-kind percentiles over
/// the seeds' merged histograms, allocator counters and the stash
/// ledger summed, peak garbage the max over the seeds.
harness::AggregateResult run_row(harness::Table& table,
                                 const harness::TrialConfig& cfg,
                                 const std::vector<std::uint64_t>& seeds) {
  const harness::AggregateResult c = run_cell(
      cfg.reclaimer + " fb=" + std::to_string(cfg.smr.flush_batch), cfg,
      seeds);
  table.add_row(
      {cfg.reclaimer, c.schedule, std::to_string(cfg.smr.flush_batch),
       std::to_string(cfg.producers), std::to_string(cfg.nthreads), cfg.ds,
       harness::fixed(c.avg_mops, 3),
       harness::fixed(pct_us(c.kind_lat[harness::Op::kEnqueue], 0.999), 2),
       harness::fixed(deq_p999_us(c), 2),
       harness::fixed(c.remote_share(), 3), std::to_string(c.stashed),
       std::to_string(c.flushed), std::to_string(c.stash_backlog_end),
       std::to_string(c.peak_garbage),
       std::to_string(c.last.remote_penalty_ns), c.last.clock_source,
       c.last.pin_mode});
  return c;
}

int run_smoke(int argc, char** argv) {
  // hp, not debra, for the same reason as bench_fig_queue: hp's scan
  // fires locally at the retire-list threshold, so the consumer-side
  // frees land inside the window regardless of CI interleaving.
  harness::Table table(kColumns);
  bool ok = true;
  // The seed aggregator checks the stash ledger of every run (stashed
  // == flushed, nothing parked at teardown); a non-hf run must also
  // never touch the routing layer.
  auto cell = [&](const std::string& name, std::size_t flush_batch) {
    const harness::AggregateResult c =
        run_row(table, smoke_config(name, flush_batch), kSmokeSeeds);
    const bool hf = smr::parse_reclaimer(name).home_flush;
    ok &= c.accounted && (hf || c.stashed + c.flushed == 0);
    return c;
  };

  constexpr std::size_t kDefaultFlush = 64;
  const harness::AggregateResult af = cell("hp_af", kDefaultFlush);
  const harness::AggregateResult hf = cell("hp_af_hf", kDefaultFlush);
  const harness::AggregateResult adaptive_hf =
      cell("hp_adaptive_hf", kDefaultFlush);
  // EMR_FLUSH_BATCH sweep on the routed form: a tiny quantum flushes
  // eagerly; an oversized one re-parks garbage in the stashes.
  const harness::AggregateResult hf_small = cell("hp_af_hf", 16);
  const harness::AggregateResult hf_huge = cell("hp_af_hf", 4096);

  std::printf("\nremote-free share: hp_af=%.3f hp_af_hf=%.3f "
              "(adaptive_hf=%.3f)\n",
              af.remote_share(), hf.remote_share(),
              adaptive_hf.remote_share());
  std::printf("dequeue p99.9: hp_af=%.1fus hp_af_hf=%.1fus (mops %.3f vs "
              "%.3f)\n",
              deq_p999_us(af), deq_p999_us(hf), af.avg_mops, hf.avg_mops);
  std::printf("peak garbage vs flush batch: fb16=%llu fb64=%llu "
              "fb4096=%llu\n",
              static_cast<unsigned long long>(hf_small.peak_garbage),
              static_cast<unsigned long long>(hf.peak_garbage),
              static_cast<unsigned long long>(hf_huge.peak_garbage));

  // (b) Routing is what collapses the foreign-free share: in the 4+4
  // split every consumer-side free is foreign (>= 0.9 — the only local
  // frees are queue-pool effects), and with routing on the owner frees
  // its own blocks back (<= 0.25 leaves room for large-allocation
  // bypass and daemonless edge drains).
  if (af.remote_share() < 0.9) {
    std::printf("FAILED: hp_af remote share (%.3f) below 0.9 — the "
                "asymmetric split is not charging foreign frees\n",
                af.remote_share());
    ok = false;
  }
  if (hf.remote_share() > 0.25) {
    std::printf("FAILED: hp_af_hf remote share (%.3f) above 0.25 — "
                "routing is not bringing frees home\n",
                hf.remote_share());
    ok = false;
  }
  // Routing must actually route: a pipeline window moves hundreds of
  // thousands of nodes, so a near-zero stash count means the layer is
  // disarmed.
  if (hf.stashed < 1000) {
    std::printf("FAILED: hp_af_hf stashed only %llu blocks\n",
                static_cast<unsigned long long>(hf.stashed));
    ok = false;
  }
  // (c) The tail improves without giving up throughput: consumers stop
  // paying the per-block foreign-free penalty inside dequeues. The mops
  // bound is one-sided — rerouting the penalized frees legitimately
  // RAISES throughput (that is the win); what the tail story must not
  // ride on is the routed form quietly doing less work.
  if (deq_p999_us(hf) >= deq_p999_us(af)) {
    std::printf("FAILED: hp_af_hf dequeue p99.9 (%.1fus) does not improve "
                "on hp_af (%.1fus)\n",
                deq_p999_us(hf), deq_p999_us(af));
    ok = false;
  }
  if (af.avg_mops <= 0 || hf.avg_mops < 0.8 * af.avg_mops) {
    std::printf("FAILED: hp_af_hf mops (%.3f) fell below 80%% of hp_af's "
                "(%.3f) — the tail improvement must not ride on a "
                "throughput loss\n",
                hf.avg_mops, af.avg_mops);
    ok = false;
  }

  maybe_write_json(table, json_path_from_args(argc, argv));
  std::printf("bench_fig_homeflush --smoke: %s\n", ok ? "OK" : "FAILED");
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
  base.enable_garbage = true;
  bool is_queue = false;
  for (const std::string& n : ds::queue_names()) is_queue |= (n == base.ds);
  if (!is_queue) base.ds = "msqueue";
  const std::string scheme = smr::parse_reclaimer(base.reclaimer).scheme;
  harness::print_banner(
      "Home-flush routing: foreign frees rerouted to their owners",
      "beyond the paper: per-owner remote-free stashes "
      "(docs/FREE_SCHEDULES.md)",
      describe(base) + " reclaimer=" + scheme +
          " cap=" + std::to_string(base.queue_cap));

  harness::Table table(kColumns);
  const smr::ReclaimerSpec kForms[] = {
      {scheme, smr::FreeForm::kAf, false},
      {scheme, smr::FreeForm::kAf, true},
      {scheme, smr::FreeForm::kAdaptive, true}};
  const std::size_t kFlushBatches[] = {16, 64, 1024, 4096};
  for (int nthreads : default_thread_sweep()) {
    const int producers = nthreads / 2;
    if (producers == 0) continue;  // the split needs >= 2 threads
    for (const smr::ReclaimerSpec& form : kForms) {
      for (const std::size_t fb : kFlushBatches) {
        // flush_batch is dead weight without routing.
        if (!form.home_flush && fb != 64) continue;
        harness::TrialConfig cfg = base;
        cfg.nthreads = nthreads;
        cfg.producers = producers;
        cfg.reclaimer = smr::reclaimer_name(form);
        cfg.smr.flush_batch = fb;
        run_row(table, cfg, {cfg.seed});
      }
    }
  }
  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "fig_homeflush.csv");
  std::printf("\nCSV: %sfig_homeflush.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
