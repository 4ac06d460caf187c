// Service-mode figure (docs/SERVICE_MODE.md): the
// measurement closed loops structurally cannot make — open-loop arrival
// traffic against the same structures. A closed loop issues the next op
// the moment the last one returns, so past saturation the throughput
// number just flattens; an open loop keeps offering load on a
// pre-generated seeded schedule, and the *queueing delay* (service
// start minus scheduled arrival) explodes while per-op service time
// stays ordinary. The second panel is the daemon story: one structure
// under busy-then-idle phase traffic, where the background reclaimer
// daemon drains the garbage that op-driven reclamation strands when the
// traffic stops.
//
//   EMR_ARRIVAL / EMR_RATE_OPS / EMR_ZIPF_S / EMR_PHASES - traffic shape
//   EMR_RECLAIMER_DAEMON / EMR_DAEMON_MS - off | optimistic | aggressive
//   --json <path>  - mirror the table as JSON (bench_common); with
//                    --smoke, `--json BENCH_fig_service.json` from the
//                    repo root refreshes the committed snapshot
//
// `bench_fig_service --smoke` runs the acceptance gates at laptop scale:
//   (a) determinism - the offered schedule is a pure function of the
//       config: byte-identical hash across regenerations, identical
//       offered counts across repeated daemon-off runs (the "daemon off
//       changes nothing" guarantee rides on the same fixed seed);
//   (b) saturation  - aggregated over two seeds, the overloaded cell's
//       queueing p99.9 is >= 5x the light cell's while the service rate
//       it sustains stays within the closed-loop capacity band — the
//       throughput column alone looks healthy while the queue dies;
//   (c) daemon      - on the churn scenario with a near-idle tail, the
//       aggressive daemon cuts the garbage the bundle holds in the idle
//       window (mean sampled backlog) vs daemon off.
#include <cinttypes>
#include <cstring>

#include "bench_common.hpp"
#include "core/arrival.hpp"

using namespace emr;
using namespace emr::bench;

namespace {

const std::vector<std::string> kColumns = {
    "scenario",     "arrival",      "reclaimer",      "daemon",
    "threads",      "rate_ops",     "offered",        "completed",
    "mops",         "q_p50_us",     "q_p999_us",      "svc_p999_us",
    "peak_backlog", "mean_backlog", "daemon_drained", "sched_hash",
    "penalty_ns",   "clock",        "pin"};

/// Where the daemon scenario's idle window is well underway: past the
/// 75 ms phase break of the 150 ms smoke cell plus settling margin.
constexpr std::uint64_t kTailFromMs = 95;

/// The hash of the schedule a trial of `cfg` serves, regenerated from
/// the same TrialConfig-to-ArrivalConfig mapping Trial::run uses.
std::uint64_t schedule_hash(const harness::TrialConfig& cfg) {
  if (cfg.arrival == "closed") return 0;
  return arrival_schedule_hash(generate_arrivals(harness::arrival_config(cfg)));
}

/// Mean and peak executor backlog over the schedule-trace samples taken
/// at t >= from_ms.
struct Backlog {
  double mean = 0;
  std::uint64_t peak = 0;
};
Backlog backlog_since(const harness::TrialResult& r, std::uint64_t from_ms) {
  Backlog b;
  double sum = 0;
  std::uint64_t n = 0;
  for (const harness::ScheduleSample& s : r.schedule_trace) {
    if (s.t_ms < from_ms) continue;
    sum += static_cast<double>(s.backlog);
    b.peak = std::max(b.peak, s.backlog);
    ++n;
  }
  if (n > 0) b.mean = sum / static_cast<double>(n);
  return b;
}

void add_row(harness::Table* table, const std::string& scenario,
             const harness::TrialConfig& cfg,
             const harness::AggregateResult& c) {
  const harness::TrialResult& r = c.last;
  char hash[32] = "-";
  if (cfg.arrival != "closed") {
    // "0x" keeps the cell outside the JSON number grammar, so emit_json
    // always writes the hash as a string (an all-digit hash would
    // otherwise silently change type between snapshots).
    std::snprintf(hash, sizeof(hash), "0x%016" PRIx64, schedule_hash(cfg));
  }
  table->add_row(
      {scenario, cfg.arrival, cfg.reclaimer, cfg.reclaimer_daemon,
       std::to_string(cfg.nthreads), harness::fixed(cfg.rate_ops, 0),
       std::to_string(r.arrivals_offered),
       std::to_string(r.arrivals_completed), harness::fixed(r.mops, 3),
       harness::fixed(r.q_p50_ns / 1000.0, 2),
       harness::fixed(r.q_p999_ns / 1000.0, 2),
       harness::fixed(r.lat_p999_ns / 1000.0, 2),
       std::to_string(r.peak_backlog),
       harness::fixed(backlog_since(r, 0).mean, 1),
       std::to_string(r.daemon_drained), hash,
       std::to_string(r.remote_penalty_ns), r.clock_source, r.pin_mode});
}

void print_cell(const std::string& scenario, const harness::TrialConfig& cfg,
                const harness::AggregateResult& c) {
  const harness::TrialResult& r = c.last;
  std::printf(
      "%-12s %-7s seed=%-4llu rate=%-8s offered=%-8llu done=%-8llu "
      "mops=%-6s q_p50=%-8s q_p999=%-8s svc_p999=%-8s drained=%-6llu %s\n",
      scenario.c_str(), cfg.arrival.c_str(),
      static_cast<unsigned long long>(cfg.seed),
      harness::human_count(cfg.rate_ops).c_str(),
      static_cast<unsigned long long>(r.arrivals_offered),
      static_cast<unsigned long long>(r.arrivals_completed),
      harness::fixed(r.mops, 2).c_str(), harness::human_ns(r.q_p50_ns).c_str(),
      harness::human_ns(r.q_p999_ns).c_str(),
      harness::human_ns(r.lat_p999_ns).c_str(),
      static_cast<unsigned long long>(r.daemon_drained),
      c.accounted ? "ok" : "UNACCOUNTED");
}

// ------------------------------------------------------------- configs

harness::TrialConfig smoke_base() {
  harness::TrialConfig cfg;
  cfg.ds = "dgt";
  cfg.reclaimer = "debra_af";
  cfg.allocator = "je";
  cfg.nthreads = 2;
  cfg.keyrange = 4096;
  cfg.measure_ms = 150;
  cfg.smr.batch_size = 128;
  // Zero is deliberate: the smoke isolates queueing effects.
  cfg.alloc.remote_free_penalty_ns = 0;
  cfg.enable_latency = true;
  return cfg;
}

/// The idle-tail scenario for the daemon gate. The garbage that
/// structurally needs a background reclaimer is *adopted* backlog:
/// op-driven draining always keeps pace while traffic flows (the quota
/// is at least one node per op), but when a churned-out worker's
/// departure scan hands its retire list to the executor during the idle
/// tail, no ops follow to drain it — with the daemon off it simply
/// stands until teardown. Thread churn every 40 ms puts two departures
/// inside the 75 ms idle tail, each stranding ~half a scan threshold.
harness::TrialConfig idle_config(double capacity, const char* level) {
  harness::TrialConfig cfg = smoke_base();
  cfg.seed = 42;
  cfg.arrival = "poisson";
  // hp's departure scan needs no grace period (it checks hazard slots on
  // the spot), so the hand-off reaches the executor deterministically.
  cfg.reclaimer = "hp_af";
  cfg.smr.batch_size = 2048;
  cfg.churn_interval_ms = 40;
  // Busy phase at ~0.7x capacity: dense traffic, but the arrival queue
  // stays short so serving really stops at the phase break and the tail
  // is an idle window, not a backlog-spill extension of the busy half.
  cfg.rate_ops = capacity * 0.35;
  cfg.phases = {2.0, 0.0002};  // busy half, then an almost-opless tail
  cfg.reclaimer_daemon = level;
  cfg.daemon_period_ms = 1;
  cfg.enable_schedule_trace = true;
  cfg.enable_garbage = true;
  return cfg;
}

int run_smoke(int argc, char** argv) {
  harness::Table table(kColumns);
  bool ok = true;

  // Closed-loop capacity of the smoke cell — the saturation knee the
  // open-loop offered rates are placed around.
  double capacity = 0;
  {
    harness::TrialConfig cfg = smoke_base();
    cfg.seed = 42;
    const harness::AggregateResult c = harness::run_trials(cfg, {cfg.seed});
    add_row(&table, "closed-cal", cfg, c);
    capacity = static_cast<double>(c.last.ops) /
               (static_cast<double>(c.last.wall_ns) / 1e9);
  }
  std::printf("closed-loop capacity: %s ops/s (2 threads)\n\n",
              harness::human_count(capacity).c_str());
  if (capacity <= 0) {
    std::printf("FAILED: capacity calibration measured nothing\n");
    return 1;
  }

  // ---- (a) + (b): open-loop saturation over two seeds ----------------
  LatencyHistogram light_q, over_q;
  double over_rate_sum = 0;
  int over_runs = 0;
  for (const std::uint64_t seed : kSmokeSeeds) {
    for (const bool overload : {false, true}) {
      harness::TrialConfig cfg = smoke_base();
      cfg.seed = seed;
      cfg.arrival = "poisson";
      cfg.rate_ops = capacity * (overload ? 1.6 : 0.4);
      const std::uint64_t served_hash = schedule_hash(cfg);
      const harness::AggregateResult c = harness::run_trials(cfg, {cfg.seed});
      const harness::TrialResult& r = c.last;
      ok &= c.accounted;
      print_cell(overload ? "over" : "light", cfg, c);
      add_row(&table, overload ? "over" : "light", cfg, c);

      if (overload) {
        over_q.add(c.queue_lat);
        over_rate_sum += static_cast<double>(r.arrivals_completed) /
                         (static_cast<double>(r.wall_ns) / 1e9);
        ++over_runs;
      } else {
        light_q.add(c.queue_lat);
        // Light load: (almost) every offered arrival gets served.
        if (r.arrivals_completed < r.arrivals_offered * 95 / 100) {
          std::printf("FAILED: light load left offered arrivals unserved "
                      "(%llu of %llu)\n",
                      static_cast<unsigned long long>(r.arrivals_completed),
                      static_cast<unsigned long long>(r.arrivals_offered));
          ok = false;
        }
      }

      // (a) regenerating the schedule from the same config hashes
      // identically to what the run served.
      if (schedule_hash(cfg) != served_hash) {
        std::printf("FAILED: schedule hash not reproducible for seed %llu\n",
                    static_cast<unsigned long long>(seed));
        ok = false;
      }
    }
  }
  // (a) continued: a repeated daemon-off run offers the bit-identical
  // schedule — same hash, same event count.
  {
    harness::TrialConfig cfg = smoke_base();
    cfg.seed = kSmokeSeeds[0];
    cfg.arrival = "poisson";
    cfg.rate_ops = capacity * 0.4;
    const std::uint64_t hash_a = schedule_hash(cfg);
    const std::uint64_t offered_a =
        harness::run_trials(cfg, {cfg.seed}).last.arrivals_offered;
    const std::uint64_t hash_b = schedule_hash(cfg);
    const std::uint64_t offered_b =
        harness::run_trials(cfg, {cfg.seed}).last.arrivals_offered;
    if (hash_a != hash_b || offered_a != offered_b) {
      std::printf("FAILED: repeated daemon-off runs disagree on the offered "
                  "schedule (hash 0x%016" PRIx64 " vs 0x%016" PRIx64
                  ", offered %llu vs %llu)\n",
                  hash_a, hash_b, static_cast<unsigned long long>(offered_a),
                  static_cast<unsigned long long>(offered_b));
      ok = false;
    }
  }

  const double light_p999 = latency_percentile(light_q, 0.999);
  const double over_p999 = latency_percentile(over_q, 0.999);
  const double over_rate = over_runs > 0 ? over_rate_sum / over_runs : 0;
  std::printf("\nqueueing p99.9: light=%s over=%s | sustained over-rate "
              "%s ops/s vs capacity %s\n",
              harness::human_ns(light_p999).c_str(),
              harness::human_ns(over_p999).c_str(),
              harness::human_count(over_rate).c_str(),
              harness::human_count(capacity).c_str());
  // (b) Past saturation the queueing tail explodes by multiples...
  if (over_p999 < 5.0 * light_p999 || over_p999 < 500'000.0) {
    std::printf("FAILED: overload queueing p99.9 (%s) is not >= 5x light "
                "(%s) and >= 0.5ms\n",
                harness::human_ns(over_p999).c_str(),
                harness::human_ns(light_p999).c_str());
    ok = false;
  }
  // ...while the throughput column stays flat: the saturated workers
  // still serve within the closed-loop capacity band.
  if (over_rate < 0.6 * capacity) {
    std::printf("FAILED: overloaded service rate (%s) collapsed below 60%% "
                "of closed-loop capacity — the harm should be queueing, not "
                "throughput\n",
                harness::human_count(over_rate).c_str());
    ok = false;
  }

  // ---- (c) idle-tail garbage, daemon off vs aggressive ---------------
  std::printf("\n");
  harness::AggregateResult cells[2];
  Backlog tail[2];
  const char* const kLevels[2] = {"off", "aggressive"};
  for (int i = 0; i < 2; ++i) {
    const harness::TrialConfig cfg = idle_config(capacity, kLevels[i]);
    cells[i] = harness::run_trials(cfg, {cfg.seed});
    tail[i] = backlog_since(cells[i].last, kTailFromMs);
    ok &= cells[i].accounted;
    if (env_has("EMR_TRACE_DUMP")) {
      std::printf("-- trace %s: ", kLevels[i]);
      for (const harness::ScheduleSample& s : cells[i].last.schedule_trace) {
        std::printf("%llu:%llu ", static_cast<unsigned long long>(s.t_ms),
                    static_cast<unsigned long long>(s.backlog));
      }
      std::printf("\n   ticks=%llu pressure=%llu quiet=%llu\n",
                  static_cast<unsigned long long>(cells[i].last.daemon_ticks),
                  static_cast<unsigned long long>(
                      cells[i].last.daemon_pressure_ticks),
                  static_cast<unsigned long long>(
                      cells[i].last.daemon_quiet_ticks));
    }
    const std::string label = std::string("idle-") + kLevels[i];
    print_cell(label, cfg, cells[i]);
    add_row(&table, label, cfg, cells[i]);
  }
  std::printf("\ngarbage held in the idle tail (t >= %llums): off "
              "peak=%llu mean=%.1f | aggressive peak=%llu mean=%.1f "
              "(daemon drained %llu; census peaks %llu vs %llu)\n",
              static_cast<unsigned long long>(kTailFromMs),
              static_cast<unsigned long long>(tail[0].peak),
              tail[0].mean,
              static_cast<unsigned long long>(tail[1].peak),
              tail[1].mean,
              static_cast<unsigned long long>(cells[1].last.daemon_drained),
              static_cast<unsigned long long>(cells[0].peak_garbage),
              static_cast<unsigned long long>(cells[1].peak_garbage));
  if (cells[1].last.daemon_drained == 0) {
    std::printf("FAILED: the aggressive daemon never drained anything\n");
    ok = false;
  }
  // The daemon's win is the garbage stranded once traffic stops: with
  // the daemon off, whatever the executor holds at the last op simply
  // stays there; aggressive keeps draining through the idle window.
  if (tail[0].mean < 64.0) {
    std::printf("FAILED: daemon-off stranded almost nothing in the idle "
                "tail (mean %.1f nodes) — the scenario is degenerate\n",
                tail[0].mean);
    ok = false;
  }
  // The first post-strand sample can catch aggressive before its next
  // tick, so the gate is the tail *mean* (daemon clears the strand in a
  // few ticks; off holds it for the rest of the window), not the peak.
  if (tail[1].mean > 0.5 * tail[0].mean) {
    std::printf("FAILED: aggressive tail garbage (mean %.1f) is not < 50%% "
                "of daemon-off (%.1f)\n",
                tail[1].mean, tail[0].mean);
    ok = false;
  }

  maybe_write_json(table, json_path_from_args(argc, argv));
  std::printf("bench_fig_service --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke(argc, argv);
  }

  harness::TrialConfig base = default_config();
  base.enable_latency = true;
  harness::print_banner(
      "Service mode: open-loop arrivals, queueing delay, daemon",
      "beyond the paper: closed loops cannot see queueing collapse "
      "(docs/SERVICE_MODE.md)",
      describe(base) + " reclaimer=" + base.reclaimer +
          " daemon=" + base.reclaimer_daemon);

  harness::Table table(kColumns);

  // Panel 1: walk the offered load across the saturation knee.
  double capacity = 0;
  {
    harness::TrialConfig cal = base;
    cal.arrival = "closed";
    const harness::AggregateResult c = harness::run_trials(cal, {cal.seed});
    add_row(&table, "closed-cal", cal, c);
    capacity = static_cast<double>(c.last.ops) /
               (static_cast<double>(c.last.wall_ns) / 1e9);
    std::printf("closed-loop capacity: %s ops/s (%d threads)\n\n",
                harness::human_count(capacity).c_str(), cal.nthreads);
  }
  for (const double frac : {0.25, 0.5, 0.75, 1.0, 1.25, 1.5}) {
    harness::TrialConfig cfg = base;
    if (cfg.arrival == "closed") cfg.arrival = "poisson";
    if (!env_has("EMR_RATE_OPS")) cfg.rate_ops = capacity * frac;
    const harness::AggregateResult cell = harness::run_trials(cfg, {cfg.seed});
    char label[32];
    std::snprintf(label, sizeof(label), "load-%.2f", frac);
    print_cell(label, cfg, cell);
    add_row(&table, label, cfg, cell);
  }

  // Panel 2: one structure under phase traffic, daemon off vs on.
  std::printf("\n");
  for (const char* level : {"off", "optimistic", "aggressive"}) {
    harness::TrialConfig cfg = base;
    if (cfg.arrival == "closed") cfg.arrival = "poisson";
    if (!env_has("EMR_RATE_OPS")) cfg.rate_ops = capacity * 0.5;
    if (!env_has("EMR_PHASES")) cfg.phases = {2.0, 0.05};
    cfg.reclaimer_daemon = level;
    cfg.enable_schedule_trace = true;
    const harness::AggregateResult cell = harness::run_trials(cfg, {cfg.seed});
    const std::string label = std::string("idle-") + level;
    print_cell(label, cfg, cell);
    add_row(&table, label, cfg, cell);
  }

  std::printf("\n");
  table.print();
  table.write_csv(harness::out_dir() + "fig_service.csv");
  std::printf("\nCSV: %sfig_service.csv\n", harness::out_dir().c_str());
  maybe_write_json(table, json_path_from_args(argc, argv));
  return 0;
}
