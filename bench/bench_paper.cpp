// The paper's figures and tables, and the ablations around them, from one
// driver. Each figure is a row of data: id, paper ref, CSV name, title,
// columns, config edits, cell axes, a thread list and an optional footer.
// The driver owns the loop: banner, one harness::run_trials per cell,
// table, CSV, and the timeline/garbage renders of Figs. 2-4, 6-9 and
// 18-29.
//
//   bench_paper                  list the figure ids
//   bench_paper fig11b [tab02]   run those figures; every EMR_* knob
//                                applies (EXPERIMENTS.md)
//   bench_paper --smoke          every figure at 20 ms, threads {1, 2},
//                                keyrange 4096; exits 1 unless every
//                                cell accounts exactly and every CSV it
//                                writes has a data row
//
// Sweep figures fold EMR_TRIALS seeds per cell. Single-run figures pass
// one seed, cfg.seed, so their numbers mean what one bare Trial meant.
// Single-point figures run at max_threads(), which never oversubscribes
// the box; sweeps keep their rows above nproc (the analogue of the
// paper's walk across sockets), and the banner and each such row say so.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "core/affinity.hpp"
#include "smr/factory.hpp"

using namespace emr;
using harness::fixed;
using harness::human_count;
using harness::TrialConfig;

namespace {

constexpr const char* kPaper = "PPoPP'24 \"Are Your Epochs Too Epic?\" ";

/// Printed under every figure that compares nbr/nbrplus or wfe with the
/// other schemes (docs/SMR_SCHEMES.md).
constexpr const char* kSchemeCaveat =
    "caveat: nbr/nbrplus poll a neutralization flag where the paper's NBR "
    "sends a signal,\nand wfe falls back to a bounded open reservation "
    "where the paper runs the wait-free\nhelper protocol "
    "(docs/SMR_SCHEMES.md).";

/// What a cell's columns read: the run_trials fold, plus what only the
/// live Trial can tell.
struct Result {
  harness::AggregateResult agg;
  std::uint64_t batch_frees = 0;    // kBatchFree timeline events
  std::uint64_t batch_free_ns = 0;  // their summed duration
  std::uint64_t pooled_allocs = 0;  // allocations a _pool inventory served
};

/// One table row: the cell's config (a pair's ORIG side) and its results,
/// one or ORIG then AF.
struct Row {
  TrialConfig cfg;
  std::vector<Result> runs;
};

using Edit = std::function<void(TrialConfig&)>;
/// One cell axis: an edit per value. A figure's cells are the product of
/// its axes, outermost first, with the thread list innermost.
using Axis = std::vector<Edit>;

enum class Threads {
  kSweep,       // every EMR_THREADS entry
  kMax,         // max_threads() alone
  kHalfAndMax,  // max(1, max_threads() / 2), then max_threads()
};

/// Per-trial render: an ASCII timeline and/or garbage census, each also
/// dumped to <prefix><key>.csv.
struct Render {
  EventKind kind = EventKind::kBatchFree;  // _af cells draw free calls
  const char* timeline_csv = nullptr;      // null = no timeline
  const char* garbage_csv = nullptr;       // null = no garbage census
  std::string (*key)(const TrialConfig&) = nullptr;  // null = no render
};

struct Figure {
  const char* id;
  const char* ref;
  const char* csv;  // the table's CSV; null = no table
  const char* title;
  std::vector<std::string> columns = {};  // headers, resolved by value()
  Edit base = nullptr;                    // figure-wide, before the axes
  std::vector<Axis> axes = {};
  Threads threads = Threads::kSweep;
  bool pair = false;    // every cell runs ORIG and its _af twin
  bool single = false;  // one seed per cell instead of cfg.trials
  Render render = {};
  void (*footer)(const std::vector<Row>&) = nullptr;
  const char* note = nullptr;  // after the table, never in the CSV
};

// ------------------------------------------------------------- threads

/// The CPUs this process may run on.
int nproc() {
  const std::size_t allowed = affinity::allowed_cpus().size();
  if (allowed > 0) return static_cast<int>(allowed);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Workers for the single-point figures (the paper's "192 threads"
/// column): the sweep's largest entry, capped at nproc - 1 so the point
/// never oversubscribes, floored at 1.
int max_threads(const std::vector<int>& sweep) {
  const int largest = *std::max_element(sweep.begin(), sweep.end());
  return std::max(1, std::min(largest, nproc() - 1));
}

std::vector<int> thread_list(Threads threads, const std::vector<int>& sweep) {
  const int hi = max_threads(sweep);
  switch (threads) {
    case Threads::kSweep:
      return sweep;
    case Threads::kMax:
      return {hi};
    case Threads::kHalfAndMax:
      return {std::max(1, hi / 2), hi};
  }
  return sweep;
}

// --------------------------------------------------------------- axes

template <class T, class Set>
Axis axis(const std::vector<T>& values, Set set) {
  Axis a;
  for (const T& v : values) {
    a.push_back([v, set](TrialConfig& c) { set(c, v); });
  }
  return a;
}

Axis reclaimers(const std::vector<std::string>& names) {
  return axis(names,
              [](TrialConfig& c, const std::string& v) { c.reclaimer = v; });
}

Axis allocators(const std::vector<std::string>& names) {
  return axis(names,
              [](TrialConfig& c, const std::string& v) { c.allocator = v; });
}

// -------------------------------------------------------------- values

double ratio(const Result& orig, const Result& af) {
  return orig.agg.avg_mops > 0 ? af.agg.avg_mops / orig.agg.avg_mops : 0.0;
}

double avg_batch_us(const Result& r) {
  return r.batch_frees > 0 ? static_cast<double>(r.batch_free_ns) /
                                 static_cast<double>(r.batch_frees) / 1e3
                           : 0.0;
}

/// The value under column `h` of row `r`: every header a figure lists
/// resolves here (--smoke reaches each one). Pair rows read ORIG from
/// runs[0] and AF from runs[1].
std::string value(const std::string& h, const Row& r) {
  const TrialConfig& c = r.cfg;
  const harness::AggregateResult& a = r.runs[0].agg;
  const harness::TrialResult& t = a.last;
  const alloc::AllocTotals& at = t.alloc_diff.totals;
  if (h == "threads") return std::to_string(c.nthreads);
  if (h == "ds") return c.ds;
  if (h == "reclaimer" || h == "variant" || h == "policy" ||
      h == "algorithm") {
    return c.reclaimer;
  }
  if (h == "alloc") return c.allocator;
  if (h == "approach") {  // the allocator the run used, and the free style
    const bool af =
        smr::parse_reclaimer(c.reclaimer).form == smr::FreeForm::kAf;
    return c.allocator + (af ? " amort." : " batch");
  }
  if (h == "configuration") {
    return c.reclaimer +
           (c.alloc.deferred_flush ? " + deferred JE" : " + stock JE");
  }
  if (h == "penalty_ns") return std::to_string(c.alloc.remote_free_penalty_ns);
  if (h == "tcache_cap") return std::to_string(c.alloc.tcache_cap);
  if (h == "flush_frac") return fixed(c.alloc.flush_fraction, 2);
  if (h == "updates%") {
    return std::to_string(std::llround((c.insert_frac + c.erase_frac) * 100));
  }
  if (h == "drain/op") return std::to_string(c.smr.af_drain_per_op);
  if (h == "Mops/s" || h == "ORIG Mops/s" || h == "batch Mops/s") {
    return fixed(a.avg_mops, 2);
  }
  if (h == "AF Mops/s") return fixed(r.runs[1].agg.avg_mops, 2);
  if (h == "AF/ORIG" || h == "AF/batch") {
    return fixed(ratio(r.runs[0], r.runs[1]), 2) + "x";
  }
  if (h == "min") return fixed(a.min_mops, 2);
  if (h == "max") return fixed(a.max_mops, 2);
  if (h == "peak_MiB") return fixed(a.avg_peak_mib, 1);
  if (h == "ops/s") return human_count(a.avg_mops * 1e6);
  if (h == "peak_garbage") {
    return human_count(static_cast<double>(a.peak_garbage));
  }
  // Retired but not yet freed when the window closed.
  if (h == "pending_garbage" || h == "end_backlog") {
    return human_count(static_cast<double>(t.smr_stats.pending));
  }
  if (h == "epochs") return std::to_string(t.epochs_in_window);
  if (h == "epochs(rotations)") {
    return std::to_string(t.smr_stats.epochs_advanced);
  }
  if (h == "batch_events") return std::to_string(r.runs[0].batch_frees);
  if (h == "avg_batch_us") return fixed(avg_batch_us(r.runs[0]), 1);
  if (h == "%free") return fixed(t.pct_free, 1);
  if (h == "%flush") return fixed(t.pct_flush, 1);
  if (h == "%lock") return fixed(t.pct_lock, 1);
  const double freed = static_cast<double>(t.freed_in_window);
  if (h == "freed") return human_count(freed);
  if (h == "freed/s-of-freeing") {
    const double s = static_cast<double>(at.ns_in_free) / 1e9;
    return human_count(s > 0 ? freed / s : 0);
  }
  if (h == "allocator_allocs") {
    return human_count(static_cast<double>(at.n_alloc));
  }
  if (h == "pooled_allocs") {
    return human_count(static_cast<double>(r.runs[0].pooled_allocs));
  }
  if (h == "flushes") return std::to_string(at.n_flush);
  throw std::logic_error("bench_paper: no value for column '" + h + "'");
}

// ------------------------------------------------------------- renders

std::string by_threads(const TrialConfig& c) {
  return std::to_string(c.nthreads) + "t";
}
std::string by_reclaimer(const TrialConfig& c) { return c.reclaimer; }
std::string by_alloc_threads(const TrialConfig& c) {
  return c.allocator + "_" + by_threads(c);
}

struct EventStats {
  std::uint64_t events = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t over_100us = 0;  // Fig. 9's visibility threshold
  std::uint64_t max_ns = 0;
};

EventStats event_stats(harness::Trial& trial, EventKind kind) {
  EventStats s;
  const Timeline& tl = trial.timeline();
  for (int t = 0; t < trial.config().nthreads; ++t) {
    for (std::size_t i = 0; i < tl.event_count(t); ++i) {
      const TimelineEvent& e = tl.events(t)[i];
      if (e.kind != kind) continue;
      const std::uint64_t d = e.t_end - e.t_start;
      ++s.events;
      s.total_ns += d;
      if (d > 100'000) ++s.over_100us;
      s.max_ns = std::max(s.max_ns, d);
    }
  }
  return s;
}

/// Reports a written CSV and keeps its path for the data-row check.
void wrote(bool ok, const std::string& path, std::vector<std::string>& csvs) {
  if (!ok) std::printf("bench_paper: failed to write %s\n", path.c_str());
  std::printf("CSV: %s\n", path.c_str());
  csvs.push_back(path);
}

void render(const Render& spec, harness::Trial& trial,
            const harness::TrialResult& r, std::vector<std::string>& csvs) {
  const TrialConfig& cfg = trial.config();
  std::printf("\n--- %s, %s, threads=%d: %.2f Mops/s ---\n",
              cfg.reclaimer.c_str(), cfg.allocator.c_str(), cfg.nthreads,
              r.mops);
  if (spec.timeline_csv != nullptr) {
    const EventKind kind =
        smr::parse_reclaimer(cfg.reclaimer).form == smr::FreeForm::kAf
            ? EventKind::kFreeCall
            : spec.kind;
    const EventStats s = event_stats(trial, kind);
    std::printf("'#' = %s, '|' = epoch advance\n",
                kind == EventKind::kFreeCall ? "a free call"
                                             : "freeing a limbo bag");
    std::fputs(trial.timeline().render_ascii(kind, 16, 100).c_str(), stdout);
    std::printf("%s: %llu events, mean %.1f us, %llu > 0.1 ms, max %.2f ms\n",
                event_kind_name(kind),
                static_cast<unsigned long long>(s.events),
                s.events > 0 ? static_cast<double>(s.total_ns) /
                                   static_cast<double>(s.events) / 1e3
                             : 0.0,
                static_cast<unsigned long long>(s.over_100us),
                static_cast<double>(s.max_ns) / 1e6);
    const std::string path =
        harness::out_dir() + spec.timeline_csv + spec.key(cfg) + ".csv";
    wrote(trial.timeline().dump_csv(path), path, csvs);
  }
  if (spec.garbage_csv != nullptr) {
    const auto census = trial.garbage().aggregate();
    double total = 0;
    for (const auto& epoch : census) total += static_cast<double>(epoch.second);
    const double avg =
        census.empty() ? 0 : total / static_cast<double>(census.size());
    const std::uint64_t peak = trial.garbage().peak_garbage();
    std::printf("garbage per epoch:\n");
    std::fputs(trial.garbage().render_ascii(100, 8).c_str(), stdout);
    std::printf("epochs=%zu peak=%llu avg=%.0f (peak/avg %.1fx)\n",
                census.size(), static_cast<unsigned long long>(peak), avg,
                avg > 0 ? static_cast<double>(peak) / avg : 0.0);
    const std::string path =
        harness::out_dir() + spec.garbage_csv + spec.key(cfg) + ".csv";
    wrote(trial.garbage().dump_csv(path), path, csvs);
  }
}

// ------------------------------------------------------------- figures

std::vector<Figure> figures() {
  const std::vector<std::string> exp1 = {
      "token_af", "debra_af", "debra", "token", "qsbr", "rcu", "ibr",
      "nbr",      "nbrplus",  "he",    "hp",    "wfe",  "none"};
  const Edit dgt = [](TrialConfig& c) {
    // The paper's DGT key range is a tenth of the ABtree's.
    c.ds = "dgt";
    c.keyrange = std::max<std::uint64_t>(64, c.keyrange / 10);
  };
  const Edit debra = [](TrialConfig& c) { c.reclaimer = "debra"; };
  return {
      {.id = "fig01", .ref = "Fig. 1", .csv = "fig01_scaling.csv",
       .title = "Figure 1: ABtree vs OCCtree, DEBRA vs leak",
       .columns = {"threads", "ds", "reclaimer", "Mops/s", "min", "max",
                   "peak_MiB"},
       .axes = {reclaimers({"debra", "none"}),
                axis<std::string>({"abtree", "occtree"},
                                  [](TrialConfig& c, const std::string& v) {
                                    c.ds = v;
                                  })}},
      {.id = "fig02", .ref = "Fig. 2", .csv = nullptr,
       .title = "Figure 2: timelines of batch frees, moderate vs high threads",
       .base =
           [](TrialConfig& c) {
             c.reclaimer = "debra";
             c.enable_timeline = true;
           },
       .threads = Threads::kHalfAndMax, .single = true,
       .render = {.timeline_csv = "fig02_timeline_", .key = by_threads},
       .footer =
           [](const std::vector<Row>& rows) {
             const Row& lo = rows.front();
             const Row& hi = rows.back();
             const double lo_us = avg_batch_us(lo.runs[0]);
             const double hi_us = avg_batch_us(hi.runs[0]);
             std::printf(
                 "avg batch-free duration: %dt = %.0f us, %dt = %.0f us "
                 "(ratio %.2fx; >2x indicates the RBF amplification)\n",
                 lo.cfg.nthreads, lo_us, hi.cfg.nthreads, hi_us,
                 lo_us > 0 ? hi_us / lo_us : 0.0);
           }},
      {.id = "fig03", .ref = "Fig. 3, Fig. 17", .csv = nullptr,
       .title =
           "Figure 3 / Figure 17: individual free calls, batch vs amortized",
       .base =
           [](TrialConfig& c) {
             c.enable_timeline = true;
             c.timeline_min_duration_ns = 1'000;  // free calls > 1 us
           },
       .axes = {reclaimers({"debra", "debra_af"})},
       .threads = Threads::kMax, .single = true,
       .render = {.kind = EventKind::kFreeCall,
                  .timeline_csv = "fig03_freecalls_",
                  .key = by_reclaimer},
       .note = "paper shape: the batch-free timeline shows many more "
               "high-latency free calls than the amortized one."},
      {.id = "fig04", .ref = "Fig. 4", .csv = nullptr,
       .title = "Figure 4: garbage per epoch, batch free vs amortized free",
       .base = [](TrialConfig& c) { c.enable_garbage = true; },
       .axes = {reclaimers({"debra", "debra_af"})},
       .threads = Threads::kMax, .single = true,
       .render = {.garbage_csv = "fig04_garbage_", .key = by_reclaimer},
       .note = "paper shape: amortized free substantially reduces the peaks "
               "while the average grows only slightly."},
      {.id = "fig05", .ref = "Fig. 5", .csv = "fig05_token_naive.csv",
       .title = "Figure 5: Naive Token-EBR performance + peak memory",
       .columns = {"threads", "reclaimer", "Mops/s", "peak_MiB",
                   "pending_garbage"},
       .axes = {reclaimers({"token_naive", "debra"})},
       .single = true,
       .note = "paper shape: naive token-EBR looks fast but its peak memory "
               "usage grows far beyond DEBRA's."},
      {.id = "fig06to09", .ref = "Figs. 6-9", .csv = "fig06to09_token.csv",
       .title = "Figures 6-9: Token-EBR variants, timelines + garbage census",
       .columns = {"variant", "Mops/s", "epochs(rotations)", "peak_garbage",
                   "peak_MiB"},
       .base =
           [](TrialConfig& c) {
             c.enable_timeline = true;
             c.enable_garbage = true;
           },
       .axes = {{[](TrialConfig& c) { c.reclaimer = "token_naive"; },
                 [](TrialConfig& c) { c.reclaimer = "token_passfirst"; },
                 [](TrialConfig& c) { c.reclaimer = "token"; },
                 [](TrialConfig& c) {
                   c.reclaimer = "token_af";
                   // Fig. 9 plots the free calls longer than 0.1 ms.
                   c.timeline_min_duration_ns = 100'000;
                 }}},
       .threads = Threads::kMax, .single = true,
       .render = {.timeline_csv = "fig0609_timeline_",
                  .garbage_csv = "fig0609_garbage_",
                  .key = by_reclaimer}},
      {.id = "fig10", .ref = "Fig. 10", .csv = "fig10_token_scaling.csv",
       .title =
           "Figure 10: Token-EBR variants, throughput + peak memory vs threads",
       .columns = {"threads", "reclaimer", "Mops/s", "min", "max",
                   "peak_MiB"},
       .axes = {reclaimers({"token_naive", "token_passfirst", "token",
                            "token_af", "debra"})}},
      {.id = "fig11a", .ref = "Fig. 11a", .csv = "fig11a_exp1.csv",
       .title = "Figure 11a / Experiment 1: token_af vs the state of the art",
       .columns = {"threads", "reclaimer", "Mops/s", "min", "max"},
       .axes = {reclaimers(exp1)},
       .footer =
           [](const std::vector<Row>& rows) {
             // Every reclaimer runs the same thread list.
             std::map<std::string, double> sum;
             for (const Row& r : rows) {
               sum[r.cfg.reclaimer] += r.runs[0].agg.avg_mops;
             }
             const double per_reclaimer =
                 static_cast<double>(rows.size()) /
                 static_cast<double>(sum.size());
             const double token_af = sum.at("token_af");
             std::printf(
                 "averages across thread counts (paper: token_af ~1.7x the "
                 "next best, 7-9x hp/he, and faster than none):\n");
             for (const auto& [name, s] : sum) {
               std::printf("  %-10s %7.2f Mops/s  (token_af/%s = %.2fx)\n",
                           name.c_str(), s / per_reclaimer, name.c_str(),
                           s > 0 ? token_af / s : 0.0);
             }
           },
       .note = kSchemeCaveat},
      {.id = "fig11b", .ref = "Fig. 11b", .csv = "fig11b_exp2.csv",
       .title = "Figure 11b / Experiment 2: ORIG vs AF for ten reclaimers",
       .columns = {"reclaimer", "ORIG Mops/s", "AF Mops/s", "AF/ORIG"},
       .axes = {reclaimers(smr::experiment2_reclaimers())},
       .threads = Threads::kMax, .pair = true,
       .footer =
           [](const std::vector<Row>& rows) {
             const auto improved =
                 std::count_if(rows.begin(), rows.end(), [](const Row& r) {
                   return ratio(r.runs[0], r.runs[1]) > 1.0;
                 });
             std::printf("%d of %zu algorithms improved by AF "
                         "(paper: 9 of 10, up to 2.3x)\n",
                         static_cast<int>(improved), rows.size());
           },
       .note = kSchemeCaveat},
      {.id = "fig12", .ref = "Fig. 12", .csv = "fig12_orig_vs_af.csv",
       .title = "Figure 12: ORIG vs AF across threads, per reclaimer (ABtree)",
       .columns = {"reclaimer", "threads", "ORIG Mops/s", "AF Mops/s",
                   "AF/ORIG"},
       .axes = {reclaimers(smr::experiment2_reclaimers())},
       .pair = true,
       .note = kSchemeCaveat},
      {.id = "fig13", .ref = "Fig. 13", .csv = "fig13_dgt_orig_vs_af.csv",
       .title =
           "Figure 13: ORIG vs AF across threads, per reclaimer (DGT tree)",
       .columns = {"reclaimer", "threads", "ORIG Mops/s", "AF Mops/s",
                   "AF/ORIG"},
       .base = dgt,
       .axes = {reclaimers(smr::experiment2_reclaimers())},
       .pair = true,
       .note = kSchemeCaveat},
      {.id = "fig14", .ref = "Fig. 14", .csv = "fig14_dgt_exp1.csv",
       .title =
           "Figure 14: token_af vs all reclaimers across threads (DGT tree)",
       .columns = {"threads", "reclaimer", "Mops/s"},
       .base = dgt,
       .axes = {reclaimers(exp1)},
       .note = kSchemeCaveat},
      {.id = "fig18to29", .ref = "Figs. 18-29", .csv = "fig18to29_summary.csv",
       .title = "Figures 18-29: DEBRA timelines for JE/TC/MI at each thread "
                "count",
       .columns = {"alloc", "threads", "Mops/s", "batch_events",
                   "avg_batch_us", "peak_garbage"},
       .base =
           [](TrialConfig& c) {
             c.reclaimer = "debra";
             c.enable_timeline = true;
             c.enable_garbage = true;
           },
       .axes = {allocators({"je", "tc", "mi"})},
       .single = true,
       .render = {.timeline_csv = "fig1829_", .key = by_alloc_threads}},
      {.id = "tab01", .ref = "Table 1", .csv = "tab01_overhead.csv",
       .title = "Table 1: JE-model free overhead (ABtree + DEBRA)",
       .columns = {"threads", "ops/s", "epochs", "%free", "%flush", "%lock"},
       .base =
           [](TrialConfig& c) {
             c.reclaimer = "debra";
             c.allocator = "je";
           },
       .single = true,
       .note = "paper (192t): 43.4M ops/s, 1980 epochs, 59.5% free, 58.8% "
               "flush, 39.8% lock"},
      {.id = "tab02", .ref = "Table 2", .csv = "tab02_af.csv",
       .title = "Table 2: amortized free vs batch free",
       .columns = {"approach", "ops/s", "freed", "%free", "%flush", "%lock",
                   "freed/s-of-freeing"},
       .axes = {reclaimers({"debra", "debra_af"})},
       .threads = Threads::kMax, .single = true,
       .footer =
           [](const std::vector<Row>& rows) {
             std::printf("speedup (amortized / batch): %.2fx   "
                         "(paper: 2.6x at 192 threads)\n",
                         ratio(rows[0].runs[0], rows[1].runs[0]));
           }},
      {.id = "tab03", .ref = "Table 3", .csv = "tab03_allocators.csv",
       .title = "Table 3: batch vs amortized free across allocator models",
       .columns = {"approach", "ops/s", "freed", "%free", "%flush"},
       .axes = {allocators({"je", "tc", "mi"}),
                reclaimers({"debra", "debra_af"})},
       .threads = Threads::kMax, .single = true,
       .footer =
           [](const std::vector<Row>& rows) {
             for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
               std::printf("%s: AF speedup %.2fx\n",
                           rows[i].cfg.allocator.c_str(),
                           ratio(rows[i].runs[0], rows[i + 1].runs[0]));
             }
           },
       .note = "paper (192t): TC 25.7M->83.5M (3.25x); MI 104M->95M (AF "
               "slightly *hurts* on mimalloc)"},
      {.id = "tab04", .ref = "Table 4", .csv = "tab04_token.csv",
       .title = "Table 4: Token-EBR variant analysis",
       .columns = {"algorithm", "ops/s", "%free", "freed"},
       .axes = {reclaimers(
           {"token_naive", "token_passfirst", "token", "token_af"})},
       .threads = Threads::kMax, .single = true,
       .note = "paper (192t): naive 73.7M/3.3%/7M; pass-first "
               "52.4M/45.4%/98M; periodic 54.4M/47.1%/118M; amortized "
               "123.7M/14.7%/323M"},
      {.id = "ablation_af_rate", .ref = "section 7 guidance",
       .csv = "ablation_af_rate.csv",
       .title =
           "Ablation: amortized-free drain rate (objects freed per operation)",
       .columns = {"drain/op", "Mops/s", "%free", "%flush", "end_backlog"},
       .base = [](TrialConfig& c) { c.reclaimer = "debra_af"; },
       .axes = {axis<std::size_t>(
           {1, 2, 4, 8, 32, 128},
           [](TrialConfig& c, std::size_t k) { c.smr.af_drain_per_op = k; })},
       .threads = Threads::kMax, .single = true,
       .note = "expected: k=1 suffices for the ABtree (~1 free/op); large k "
               "re-batches frees and loses the AF benefit."},
      {.id = "ablation_deferred", .ref = "footnote 3 (future work)",
       .csv = "ablation_deferred.csv",
       .title = "Ablation: allocator-side deferred flush vs reclaimer-side AF",
       .columns = {"configuration", "Mops/s", "%free", "%flush", "%lock"},
       .axes = {reclaimers({"debra", "debra_af"}),
                axis<bool>({false, true},
                           [](TrialConfig& c, bool on) {
                             c.alloc.deferred_flush = on;
                           })},
       .threads = Threads::kMax, .single = true,
       .note = "expected: 'debra + deferred JE' approaches 'debra_af + stock "
               "JE' - the fix works on either side of the interface."},
      {.id = "ablation_pooling", .ref = "section 3.3 + footnote 4",
       .csv = "ablation_pooling.csv",
       .title = "Ablation: batch vs amortized vs pooling free (extension)",
       .columns = {"policy", "Mops/s", "%free", "%lock", "allocator_allocs",
                   "pooled_allocs"},
       .axes = {reclaimers({"debra", "debra_af", "debra_pool", "token",
                            "token_af", "token_pool"})},
       .threads = Threads::kMax, .single = true,
       .note = "expected: pooling serves most node allocations from the "
               "lane backlog (paper footnote 4: why VBR beats "
               "allocator-bound EBRs)."},
      {.id = "ablation_remote_penalty", .ref = "modelled remote-free cost",
       .csv = "ablation_remote_penalty.csv",
       .title = "Ablation: remote-free penalty sensitivity (batch vs AF)",
       .columns = {"penalty_ns", "batch Mops/s", "AF Mops/s", "AF/batch"},
       .base = debra,
       .axes = {axis<std::uint64_t>(
           {0, 50, 150, 500, 2000},
           [](TrialConfig& c, std::uint64_t ns) {
             c.alloc.remote_free_penalty_ns = ns;
             // The sweep is the penalty: calibration must not replace it.
             c.alloc.remote_penalty_explicit = true;
           })},
       .threads = Threads::kMax, .pair = true, .single = true,
       .note = "expected: the AF advantage grows with the remote-free cost - "
               "the NUMA effect the paper measures on 4 sockets."},
      {.id = "ablation_tcache", .ref = "section 3.2 mechanism",
       .csv = "ablation_tcache.csv",
       .title = "Ablation: tcache capacity and flush fraction (JE model, "
                "batch free)",
       .columns = {"tcache_cap", "flush_frac", "Mops/s", "%flush", "%lock",
                   "flushes"},
       .base = debra,
       .axes = {axis<std::size_t>({32, 128, 512},
                                  [](TrialConfig& c, std::size_t cap) {
                                    c.alloc.tcache_cap = cap;
                                  }),
                axis<double>({0.25, 0.75},
                             [](TrialConfig& c, double frac) {
                               c.alloc.flush_fraction = frac;
                             })},
       .threads = Threads::kMax, .single = true},
      {.id = "ablation_workload_mix", .ref = "workload extension",
       .csv = "ablation_workload_mix.csv",
       .title = "Ablation: update fraction (reads displace allocator traffic)",
       .columns = {"updates%", "batch Mops/s", "AF Mops/s", "AF/batch"},
       .base = debra,
       .axes = {axis<int>({100, 50, 20, 5},
                          [](TrialConfig& c, int pct) {
                            c.insert_frac = pct / 200.0;
                            c.erase_frac = pct / 200.0;
                          })},
       .threads = Threads::kMax, .pair = true, .single = true},
  };
}

// -------------------------------------------------------------- driver

bool has_data_row(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  return std::getline(in, line) && std::getline(in, line) && !line.empty();
}

Result measure(const Figure& f, const TrialConfig& cfg,
               std::vector<std::string>& csvs) {
  Result res;
  std::vector<std::uint64_t> seeds;
  if (f.single) seeds.push_back(cfg.seed);
  res.agg = harness::run_trials(
      cfg, seeds,
      [&](harness::Trial& trial, const harness::TrialResult& r,
          bool accounted) {
        const EventStats batch = event_stats(trial, EventKind::kBatchFree);
        res.batch_frees += batch.events;
        res.batch_free_ns += batch.total_ns;
        res.pooled_allocs +=
            trial.reclaimer().executor().total_pooled_allocs();
        if (f.render.key != nullptr) render(f.render, trial, r, csvs);
        if (!accounted) {
          std::fprintf(stderr,
                       "bench_paper %s: %s on %s, %d threads, seed %llu did "
                       "not account exactly\n",
                       f.id, cfg.reclaimer.c_str(), cfg.ds.c_str(),
                       cfg.nthreads,
                       static_cast<unsigned long long>(trial.config().seed));
        }
      });
  return res;
}

struct Outcome {
  int cells = 0;
  bool ok = true;  // every cell accounted, every CSV has a data row
};

Outcome run_figure(const Figure& f, TrialConfig base,
                   const std::vector<int>& sweep) {
  if (f.base) f.base(base);
  if (f.single) base.trials = 1;  // what the banner reports
  std::vector<Axis> axes = f.axes;
  axes.push_back(axis(thread_list(f.threads, sweep),
                      [](TrialConfig& c, int n) { c.nthreads = n; }));
  std::vector<TrialConfig> cells = {base};
  for (const Axis& a : axes) {
    std::vector<TrialConfig> next;
    for (const TrialConfig& c : cells) {
      for (const Edit& edit : a) {
        next.push_back(c);
        edit(next.back());
      }
    }
    cells = std::move(next);
  }

  const int cpus = nproc();
  const bool over =
      std::any_of(cells.begin(), cells.end(),
                  [&](const TrialConfig& c) { return c.nthreads > cpus; });
  harness::print_banner(
      f.title, std::string(kPaper) + f.ref,
      bench::describe(base) + " nproc=" + std::to_string(cpus) +
          (over ? " (rows above nproc oversubscribe)" : ""));

  Outcome out;
  std::vector<std::string> csvs;
  std::vector<Row> rows;
  harness::Table table(f.columns);
  for (const TrialConfig& cfg : cells) {
    Row row{cfg, {measure(f, cfg, csvs)}};
    if (f.pair) {
      TrialConfig af = cfg;
      af.reclaimer += "_af";
      row.runs.push_back(measure(f, af, csvs));
    }
    for (const Result& r : row.runs) {
      out.ok = out.ok && r.agg.accounted;
      ++out.cells;
    }
    if (f.csv != nullptr) {
      std::vector<std::string> values;
      std::string line = " ";
      for (const std::string& h : f.columns) {
        values.push_back(value(h, row));
        line += " " + h + "=" + values.back();
      }
      std::printf("%s%s\n", line.c_str(),
                  cfg.nthreads > cpus ? "  (oversubscribed)" : "");
      table.add_row(std::move(values));
    }
    rows.push_back(std::move(row));
  }
  if (f.csv != nullptr) {
    std::printf("\n");
    table.print();
    std::printf("\n");
    const std::string path = harness::out_dir() + f.csv;
    wrote(table.write_csv(path), path, csvs);
  }
  if (f.footer != nullptr) {
    std::printf("\n");
    f.footer(rows);
  }
  if (f.note != nullptr) std::printf("\n%s\n", f.note);
  for (const std::string& path : csvs) {
    if (!has_data_row(path)) {
      std::fprintf(stderr, "bench_paper %s: %s has no data row\n", f.id,
                   path.c_str());
      out.ok = false;
    }
  }
  std::printf("\n");
  return out;
}

void list(const std::vector<Figure>& figs) {
  std::printf("usage: bench_paper <id>... | --smoke\n\n");
  for (const Figure& f : figs) {
    std::printf("  %-24s %-26s %s\n", f.id, f.ref, f.title);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Figure> figs = figures();
  if (argc < 2) {
    list(figs);
    return 0;
  }
  TrialConfig base = bench::default_config();
  std::vector<int> sweep = bench::default_thread_sweep();
  std::vector<const Figure*> chosen;
  if (std::strcmp(argv[1], "--smoke") == 0) {
    // Fixed in code, so EMR_MS / EMR_THREADS / EMR_KEYRANGE / EMR_TRIALS
    // cannot stretch the CI step.
    base.measure_ms = 20;
    base.keyrange = 4096;
    base.trials = 1;
    sweep = {1, 2};
    for (const Figure& f : figs) chosen.push_back(&f);
  } else {
    for (int i = 1; i < argc; ++i) {
      const auto it =
          std::find_if(figs.begin(), figs.end(), [&](const Figure& f) {
            return std::strcmp(f.id, argv[i]) == 0;
          });
      if (it == figs.end()) {
        std::fprintf(stderr, "bench_paper: unknown figure id '%s'\n",
                     argv[i]);
        list(figs);
        return 2;
      }
      chosen.push_back(&*it);
    }
  }

  int cells = 0;
  std::vector<std::string> failed;
  for (const Figure* f : chosen) {
    const Outcome out = run_figure(*f, base, sweep);
    cells += out.cells;
    if (!out.ok) failed.push_back(f->id);
  }
  std::printf("bench_paper: %zu figure(s), %d cells", chosen.size(), cells);
  if (failed.empty()) {
    std::printf(": OK\n");
    return 0;
  }
  std::printf(": FAILED");
  for (const std::string& id : failed) std::printf(" %s", id.c_str());
  std::printf("\n");
  return 1;
}
