// Workload determinism and end-to-end trial behaviour at tiny scale.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ds/queue.hpp"
#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace {

using namespace emr;
using harness::Op;
using harness::OpStream;
using harness::TrialConfig;

TrialConfig tiny_config() {
  TrialConfig cfg;
  cfg.nthreads = 2;
  cfg.keyrange = 1024;
  cfg.measure_ms = 25;
  cfg.trials = 1;
  cfg.smr.batch_size = 64;
  cfg.alloc.remote_free_penalty_ns = 0;
  return cfg;
}

TEST(OpStreamTest, SameSeedSameStream) {
  TrialConfig cfg = tiny_config();
  cfg.seed = 1234;
  OpStream a(cfg, /*tid=*/1);
  OpStream b(cfg, /*tid=*/1);
  for (int i = 0; i < 10000; ++i) {
    const Op x = a.next();
    const Op y = b.next();
    ASSERT_EQ(x.kind, y.kind) << "op " << i;
    ASSERT_EQ(x.key, y.key) << "op " << i;
  }
}

TEST(OpStreamTest, DifferentSeedOrTidDiverges) {
  TrialConfig cfg = tiny_config();
  cfg.seed = 1;
  OpStream a(cfg, 0);
  OpStream other_tid(cfg, 1);
  cfg.seed = 2;
  OpStream other_seed(cfg, 0);

  int same_tid = 0;
  int same_seed = 0;
  for (int i = 0; i < 1000; ++i) {
    const Op x = a.next();
    if (x.key == other_tid.next().key) ++same_tid;
    if (x.key == other_seed.next().key) ++same_seed;
  }
  EXPECT_LT(same_tid, 100);
  EXPECT_LT(same_seed, 100);
}

TEST(OpStreamTest, MixFractionsRespected) {
  TrialConfig cfg = tiny_config();
  cfg.insert_frac = 0.25;
  cfg.erase_frac = 0.25;
  OpStream s(cfg, 0);
  int counts[3] = {0, 0, 0};
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[s.next().kind];
  EXPECT_NEAR(counts[Op::kInsert], kN * 0.25, kN * 0.02);
  EXPECT_NEAR(counts[Op::kErase], kN * 0.25, kN * 0.02);
  EXPECT_NEAR(counts[Op::kLookup], kN * 0.50, kN * 0.02);
}

// Bad configs must fail at Trial construction with an error naming the
// valid choices, never silently default.
TEST(TrialTest, InvalidConfigsFailFastWithValidNames) {
  auto expect_throw_listing = [](TrialConfig cfg, const char* some_valid) {
    try {
      harness::Trial trial(cfg);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(some_valid), std::string::npos)
          << "error should name the valid choices, got: " << e.what();
    }
  };

  TrialConfig cfg = tiny_config();
  cfg.insert_frac = 0.7;
  cfg.erase_frac = 0.7;  // sums past 1
  EXPECT_THROW(harness::Trial trial(cfg), std::invalid_argument);

  cfg = tiny_config();
  cfg.erase_frac = -0.1;
  EXPECT_THROW(harness::Trial trial(cfg), std::invalid_argument);

  cfg = tiny_config();
  cfg.ds = "splaytree";
  expect_throw_listing(cfg, "abtree");

  cfg = tiny_config();
  cfg.reclaimer = "ebr9000";
  expect_throw_listing(cfg, "debra");

  cfg = tiny_config();
  cfg.reclaimer = "hp_latency";  // `_latency` is not a suffix
  expect_throw_listing(cfg, "hp_adaptive");

  cfg = tiny_config();
  cfg.allocator = "hoard";
  expect_throw_listing(cfg, "je");

  // Churn knobs fail fast naming the valid ranges.
  cfg = tiny_config();
  cfg.churn_interval_ms = -5;
  try {
    harness::Trial trial(cfg);
    FAIL() << "negative churn_interval_ms must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 0"), std::string::npos)
        << "error should name the valid range, got: " << e.what();
  }

  cfg = tiny_config();
  cfg.nthreads = 1;
  cfg.churn_interval_ms = 5;
  try {
    harness::Trial trial(cfg);
    FAIL() << "churn with one thread must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nthreads >= 2"),
              std::string::npos)
        << "error should name the valid range, got: " << e.what();
  }

  // Degenerate window/trial knobs used to slide through and produce a
  // zero-length measurement (mops = ops / 0). They fail fast now.
  cfg = tiny_config();
  cfg.measure_ms = 0;
  expect_throw_listing(cfg, ">= 1 millisecond");
  cfg.measure_ms = -10;
  expect_throw_listing(cfg, ">= 1 millisecond");

  cfg = tiny_config();
  cfg.trials = 0;
  expect_throw_listing(cfg, ">= 1");

  cfg = tiny_config();
  cfg.schedule_sample_ms = 0;
  expect_throw_listing(cfg, ">= 1 millisecond");
}

// The churn mode the ThreadHandle API unlocks: workers deregister and
// are replaced mid-trial, and afterwards nothing is leaked or pinned —
// every retired node still reaches the executor at teardown.
TEST(TrialTest, ChurnedTrialReplacesWorkersAndAccountsExactly) {
  for (const char* reclaimer : {"debra", "token_af", "hp", "ibr"}) {
    TrialConfig cfg = tiny_config();
    cfg.reclaimer = reclaimer;
    cfg.nthreads = 3;
    cfg.measure_ms = 60;
    cfg.churn_interval_ms = 10;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    EXPECT_GT(r.ops, 0u) << reclaimer;
    EXPECT_GT(r.threads_churned, 0u) << reclaimer;
    EXPECT_EQ(trial.reclaimer().stats().pending, 0u) << reclaimer;
    EXPECT_EQ(trial.reclaimer().executor().backlog(), 0u) << reclaimer;
    // All worker handles deregistered at trial end.
    EXPECT_EQ(trial.reclaimer().active_slots(), 0u) << reclaimer;
  }
}

TEST(TrialTest, RunsAndAccountsForEveryRetiredNode) {
  for (const char* reclaimer : {"debra", "debra_af", "token_af", "none"}) {
    TrialConfig cfg = tiny_config();
    cfg.reclaimer = reclaimer;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    EXPECT_GT(r.ops, 0u) << reclaimer;
    EXPECT_GT(r.mops, 0.0) << reclaimer;
    EXPECT_GT(r.peak_bytes_mapped, 0u) << reclaimer;
    // flush_all ran at teardown: nothing may stay in limbo.
    EXPECT_EQ(trial.reclaimer().stats().pending, 0u) << reclaimer;
  }
}

TEST(TrialTest, EpochsAdvanceAndGarbageIsObserved) {
  TrialConfig cfg = tiny_config();
  cfg.reclaimer = "debra";
  cfg.measure_ms = 50;
  cfg.smr.batch_size = 32;
  cfg.enable_garbage = true;
  harness::Trial trial(cfg);
  const harness::TrialResult r = trial.run();
  EXPECT_GT(r.epochs_in_window, 0u);
  EXPECT_GT(r.freed_in_window, 0u);
  EXPECT_GT(trial.garbage().aggregate().size(), 0u);
  EXPECT_GT(trial.garbage().peak_garbage(), 0u);
}

TEST(TrialTest, TimelineRecordsBatchFrees) {
  TrialConfig cfg = tiny_config();
  cfg.reclaimer = "debra";
  cfg.measure_ms = 50;
  cfg.smr.batch_size = 32;
  cfg.enable_timeline = true;
  cfg.timeline_min_duration_ns = 0;  // record everything
  harness::Trial trial(cfg);
  (void)trial.run();
  std::size_t events = 0;
  for (int t = 0; t < cfg.nthreads; ++t) {
    events += trial.timeline().event_count(t);
  }
  EXPECT_GT(events, 0u);
  const std::string ascii =
      trial.timeline().render_ascii(EventKind::kBatchFree, 4, 60);
  EXPECT_FALSE(ascii.empty());
}

TEST(TrialTest, LatencyRecorderSurfacesOrderedPercentiles) {
  TrialConfig cfg = tiny_config();
  cfg.reclaimer = "debra_af";
  cfg.measure_ms = 50;
  cfg.enable_latency = true;
  // Every set kind runs, so each set-op channel below is exercised.
  cfg.insert_frac = 0.4;
  cfg.erase_frac = 0.4;
  harness::Trial trial(cfg);
  const harness::TrialResult r = trial.run();
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.lat_ops, 0u) << "enable_latency must record every op";
  EXPECT_GT(r.lat_p50_ns, 0.0);
  EXPECT_LE(r.lat_p50_ns, r.lat_p99_ns);
  EXPECT_LE(r.lat_p99_ns, r.lat_p999_ns);
  EXPECT_LE(r.lat_p999_ns, static_cast<double>(r.lat_max_ns));
  // The set loop times every completed op exactly once, on its set-op
  // channel.
  EXPECT_EQ(r.lat_ops, r.ops);
  for (int k : {Op::kInsert, Op::kErase, Op::kLookup}) {
    EXPECT_GT(r.kind_lat[k].ops, 0u) << "kind " << k;
  }
  EXPECT_EQ(r.kind_lat[Op::kInsert].ops + r.kind_lat[Op::kErase].ops +
                r.kind_lat[Op::kLookup].ops,
            r.ops);
  EXPECT_EQ(r.kind_lat[Op::kEnqueue].ops + r.kind_lat[Op::kDequeue].ops, 0u);

  // Off stays off: no schedule arms the recorder (and its two clock
  // reads per op) behind the trial's back.
  cfg.reclaimer = "debra_adaptive";
  cfg.enable_latency = false;
  harness::Trial quiet(cfg);
  const harness::TrialResult q = quiet.run();
  EXPECT_GT(q.ops, 0u);
  EXPECT_EQ(q.lat_ops, 0u);
  for (int k = 0; k < harness::Op::kNumKinds; ++k) {
    EXPECT_EQ(q.kind_lat[k].ops, 0u) << "kind " << k;
  }
}

TEST(TrialTest, DeterministicSeedGivesIdenticalRetireCounts) {
  // Throughput varies run to run, but the op streams (and hence the mix
  // of attempted inserts/erases) are a pure function of the seed.
  TrialConfig cfg = tiny_config();
  OpStream a(cfg, 0);
  OpStream b(cfg, 0);
  std::uint64_t erases_a = 0;
  std::uint64_t erases_b = 0;
  for (int i = 0; i < 50000; ++i) {
    if (a.next().kind == Op::kErase) ++erases_a;
    if (b.next().kind == Op::kErase) ++erases_b;
  }
  EXPECT_EQ(erases_a, erases_b);
}

TEST(TrialTest, ResultCarriesHardwareRealismMetadata) {
  TrialConfig cfg = tiny_config();
  cfg.alloc.remote_free_penalty_ns = 150;
  harness::Trial trial(cfg);
  const harness::TrialResult r = trial.run();

  EXPECT_EQ(r.pin_mode, "off");
  EXPECT_TRUE(r.pin_cpus.empty());  // off = run unpinned
  // The clock the recorders ran on, and its rate when it's the TSC.
  EXPECT_TRUE(r.clock_source == "tsc" || r.clock_source == "steady")
      << r.clock_source;
  if (r.clock_source == "tsc") {
    EXPECT_GT(r.tsc_ghz, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(r.tsc_ghz, 0.0);
  }
  EXPECT_EQ(r.remote_penalty_ns, 150u);
}

TEST(TrialTest, ChargesExactlyTheConfiguredPenalty) {
  // The config is the only source of the penalty: a trial builds its
  // allocator with exactly remote_free_penalty_ns and reports that
  // value, zero included, whatever this host's cores cost to talk.
  for (const std::uint64_t ns : {0u, 333u}) {
    TrialConfig cfg = tiny_config();
    cfg.alloc.remote_free_penalty_ns = ns;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    EXPECT_EQ(r.remote_penalty_ns, ns);
  }
}

TEST(TrialTest, PinnedTrialRunsAndReportsItsLayout) {
  // compact/scatter must work on any box (the map wraps round-robin
  // over however many CPUs the affinity mask allows) and the layout
  // lands in the result: one slot per worker plus the daemon's.
  for (const char* mode : {"compact", "scatter"}) {
    TrialConfig cfg = tiny_config();
    cfg.pin = mode;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    EXPECT_GT(r.ops, 0u) << mode;
    EXPECT_EQ(r.pin_mode, mode);
#if defined(__linux__)
    EXPECT_EQ(r.pin_cpus.size(),
              static_cast<std::size_t>(cfg.nthreads) + 1)
        << mode;
    for (int cpu : r.pin_cpus) EXPECT_GE(cpu, 0) << mode;
#endif
  }
}

// The op loop's books on the pipeline workload: every attempt lands in
// exactly one per-kind tally and one latency sample (refused polls are
// timed too), and the queue conserves values across the window.
TEST(TrialTest, PipelineCountsEveryAttemptByKind) {
  for (const char* reclaimer : {"hp_af_hf", "debra"}) {
    for (const int producers : {0, 2}) {
      SCOPED_TRACE(std::string(reclaimer) +
                   " producers=" + std::to_string(producers));
      TrialConfig cfg = tiny_config();
      cfg.workload = "pipeline";
      cfg.ds = "msqueue";
      cfg.reclaimer = reclaimer;
      cfg.nthreads = 3;
      cfg.producers = producers;
      cfg.queue_cap = 256;
      cfg.enable_latency = true;
      harness::Trial trial(cfg);
      const harness::TrialResult r = trial.run();
      const harness::TrialResult::OpKindLatency& enq =
          r.kind_lat[Op::kEnqueue];
      const harness::TrialResult::OpKindLatency& deq =
          r.kind_lat[Op::kDequeue];
      EXPECT_GT(r.ops, 0u);
      EXPECT_EQ(r.ops, r.producer.ops + r.consumer.ops);
      EXPECT_EQ(enq.ops, r.producer.ops + r.producer.failed);
      EXPECT_EQ(deq.ops, r.consumer.ops + r.consumer.failed);
      EXPECT_EQ(enq.ops + deq.ops, r.lat_ops);
      // The prefill (half the capacity) plus every accepted enqueue was
      // either dequeued inside the window or is still queued.
      smr::ThreadHandle h = trial.reclaimer().register_thread();
      std::uint64_t left = 0;
      std::uint64_t value = 0;
      while (trial.queue().dequeue(h, &value)) ++left;
      EXPECT_EQ(cfg.queue_cap / 2 + r.producer.ops, r.consumer.ops + left);
      EXPECT_EQ(r.stashed, r.flushed);
      EXPECT_EQ(r.stash_backlog_end, 0u);
    }
  }
}

TEST(ReportTest, TableAlignsAndWritesCsv) {
  harness::Table table({"a", "b"});
  table.add_row({"1", "hello"});
  table.add_row({"2", "world"});
  EXPECT_EQ(table.rows(), 2u);

  const std::string path = harness::out_dir() + "test_table.csv";
  ASSERT_TRUE(table.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "a,b\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ReportTest, EmitJsonTypesNumbersAndEscapesStrings) {
  harness::Table table({"threads", "reclaimer", "Mops/s"});
  table.add_row({"4", "debra_af", "3.25"});
  table.add_row({"8", "token \"naive\"", "0.50"});
  std::ostringstream os;
  harness::emit_json(os, table);
  const std::string json = os.str();
  // Numeric cells are unquoted, string cells escaped.
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"Mops/s\": 3.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reclaimer\": \"debra_af\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("token \\\"naive\\\""), std::string::npos) << json;

  const std::string path = harness::out_dir() + "test_table.json";
  ASSERT_TRUE(table.write_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);
  std::remove(path.c_str());
}

TEST(ReportTest, Formatting) {
  EXPECT_EQ(harness::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(harness::human_count(950), "950");
  EXPECT_EQ(harness::human_count(1.5e6), "1.50M");
  EXPECT_EQ(harness::human_count(2.25e9), "2.25G");
  EXPECT_EQ(harness::node_size_for_ds("abtree"), 240u);
  EXPECT_EQ(harness::node_size_for_ds("occtree"), 64u);
  EXPECT_EQ(harness::node_size_for_ds("dgt"), 96u);
}

}  // namespace
