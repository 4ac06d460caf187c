// Service-mode suite (docs/SERVICE_MODE.md): arrival-schedule
// determinism (same seed -> byte-identical schedule, at every worker
// count), the shape knobs (phases, bursts, zipf skew, op mix),
// open-loop trials completing their offered load and separating
// queueing delay from service latency, and the reclaimer-daemon levels
// — including the *DaemonChurn* start/stop vs handle-churn stress
// ci/check.sh race-checks under TSAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arrival.hpp"
#include "harness/workload.hpp"
#include "smr/factory.hpp"
#include "smr/reclaimer_daemon.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using harness::Op;
using harness::OpStream;
using harness::TrialConfig;

ArrivalConfig small_arrivals() {
  ArrivalConfig cfg;
  cfg.rate_ops = 200'000;
  cfg.duration_ns = 50'000'000;  // 50 ms -> ~10k events
  cfg.seed = 7;
  cfg.keyrange = 4096;
  return cfg;
}

// ------------------------------------------------- schedule determinism

TEST(ArrivalTest, SameSeedByteIdenticalSchedule) {
  const ArrivalConfig cfg = small_arrivals();
  const std::vector<Arrival> a = generate_arrivals(cfg);
  const std::vector<Arrival> b = generate_arrivals(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i] == b[i]) << "event " << i << " diverged";
  }
  EXPECT_EQ(arrival_schedule_hash(a), arrival_schedule_hash(b));
  // The schedule's identity is pinned, not just self-consistent: a
  // change to the hashed words or to the per-event draw order moves it.
  EXPECT_EQ(a.size(), 10070u);
  EXPECT_EQ(arrival_schedule_hash(a), 0xb05359e68cb3b26bULL);
}

TEST(ArrivalTest, SeedChangesTheSchedule) {
  ArrivalConfig cfg = small_arrivals();
  const std::uint64_t h1 = arrival_schedule_hash(generate_arrivals(cfg));
  cfg.seed = 8;
  const std::uint64_t h2 = arrival_schedule_hash(generate_arrivals(cfg));
  EXPECT_NE(h1, h2);
}

TEST(ArrivalTest, RateControlsEventVolumeAndOrdering) {
  const ArrivalConfig cfg = small_arrivals();
  const std::vector<Arrival> s = generate_arrivals(cfg);
  const double expected =
      cfg.rate_ops * static_cast<double>(cfg.duration_ns) / 1e9;
  EXPECT_NEAR(static_cast<double>(s.size()), expected, expected * 0.15);
  for (std::size_t i = 1; i < s.size(); ++i) {
    ASSERT_LE(s[i - 1].t_ns, s[i].t_ns);
    ASSERT_LT(s[i].t_ns, cfg.duration_ns);
  }
}

TEST(ArrivalTest, PhasesShapeTheWindow) {
  ArrivalConfig cfg = small_arrivals();
  cfg.phases = {4.0, 0.1};  // busy first half, near-idle tail
  const std::vector<Arrival> s = generate_arrivals(cfg);
  std::size_t first = 0;
  for (const Arrival& a : s) {
    if (a.t_ns < cfg.duration_ns / 2) ++first;
  }
  const std::size_t second = s.size() - first;
  // 40:1 nominal density ratio; require a conservative 4:1.
  EXPECT_GT(first, 4 * std::max<std::size_t>(second, 1));
}

TEST(ArrivalTest, BurstsClusterWithoutChangingTheMean) {
  const ArrivalConfig poisson = small_arrivals();
  ArrivalConfig burst = small_arrivals();
  burst.process = ArrivalConfig::Process::kBurst;
  burst.burst_factor = 3.0;
  burst.burst_duty = 0.25;
  burst.burst_period_ns = 10'000'000;

  const std::vector<Arrival> p = generate_arrivals(poisson);
  const std::vector<Arrival> b = generate_arrivals(burst);
  // Mean-preserving: the square wave reshapes, never adds, load.
  EXPECT_NEAR(static_cast<double>(b.size()), static_cast<double>(p.size()),
              static_cast<double>(p.size()) * 0.2);

  // Event density inside the on-window (first quarter of every period)
  // vs outside: nominal 9x (3.0 on vs 1/3 off), require 2x.
  const double duty_ns =
      burst.burst_duty * static_cast<double>(burst.burst_period_ns);
  std::size_t on = 0;
  for (const Arrival& a : b) {
    if (static_cast<double>(a.t_ns % burst.burst_period_ns) < duty_ns) ++on;
  }
  const std::size_t off = b.size() - on;
  const double on_density =
      static_cast<double>(on) / burst.burst_duty;
  const double off_density =
      static_cast<double>(off) / (1.0 - burst.burst_duty);
  EXPECT_GT(on_density, 2.0 * off_density);
}

TEST(ArrivalTest, ZipfSkewsKeysTowardLowRanks) {
  ArrivalConfig cfg = small_arrivals();
  cfg.zipf_s = 1.1;
  const std::vector<Arrival> s = generate_arrivals(cfg);
  std::size_t hot = 0;  // top 1% of the keyrange by rank
  for (const Arrival& a : s) {
    ASSERT_LT(a.key, cfg.keyrange);
    if (a.key < cfg.keyrange / 100) ++hot;
  }
  // Under s = 1.1 the head carries far more than its uniform 1% share.
  EXPECT_GT(hot, s.size() / 5);

  cfg.zipf_s = 0.0;
  std::size_t hot_uniform = 0;
  for (const Arrival& a : generate_arrivals(cfg)) {
    if (a.key < cfg.keyrange / 100) ++hot_uniform;
  }
  EXPECT_LT(hot_uniform, s.size() / 20);
}

TEST(ArrivalTest, ZipfSamplerIsRankedAndDeterministic) {
  const Zipf z(1000, 0.99);
  EXPECT_FALSE(z.uniform());
  EXPECT_EQ(z.sample(0.0), 0u);  // rank 0 is the hottest
  EXPECT_LT(z.sample(0.999999), 1000u);
  EXPECT_EQ(z.sample(0.5), z.sample(0.5));

  const Zipf u(1000, 0.0);
  EXPECT_TRUE(u.uniform());
  EXPECT_EQ(u.sample(0.0), 0u);
  EXPECT_EQ(u.sample(0.5), 500u);
}

TEST(ArrivalTest, OpMixRespected) {
  ArrivalConfig cfg = small_arrivals();
  cfg.insert_frac = 0.25;
  cfg.erase_frac = 0.25;
  const std::vector<Arrival> s = generate_arrivals(cfg);
  std::size_t per_kind[3] = {0, 0, 0};
  for (const Arrival& a : s) {
    ASSERT_LT(a.kind, 3u);
    ++per_kind[a.kind];
  }
  const auto n = static_cast<double>(s.size());
  EXPECT_NEAR(static_cast<double>(per_kind[0]), n * 0.25, n * 0.05);
  EXPECT_NEAR(static_cast<double>(per_kind[1]), n * 0.25, n * 0.05);
  EXPECT_NEAR(static_cast<double>(per_kind[2]), n * 0.50, n * 0.05);
}

TEST(ArrivalTest, ValidationNamesFieldAndRange) {
  auto expect_naming = [](ArrivalConfig cfg, const char* needle) {
    try {
      generate_arrivals(cfg);
      FAIL() << "expected std::invalid_argument naming " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  ArrivalConfig cfg = small_arrivals();
  cfg.rate_ops = -5;
  expect_naming(cfg, "rate_ops");

  cfg = small_arrivals();
  cfg.zipf_s = -0.5;
  expect_naming(cfg, "zipf_s");

  cfg = small_arrivals();
  cfg.phases = {};
  expect_naming(cfg, "phases");

  cfg = small_arrivals();
  cfg.phases = {1.0, 0.0};
  expect_naming(cfg, "phases");

  cfg = small_arrivals();
  cfg.process = ArrivalConfig::Process::kBurst;
  cfg.burst_duty = 1.5;
  expect_naming(cfg, "burst_duty");

  cfg = small_arrivals();
  cfg.rate_ops = 1e12;  // rate x window blows the schedule cap
  expect_naming(cfg, "cap");
}

TEST(DaemonLevelTest, NamesRoundTripAndUnknownThrows) {
  EXPECT_EQ(smr::daemon_level_from_name("off"), smr::DaemonLevel::kOff);
  EXPECT_EQ(smr::daemon_level_from_name("optimistic"),
            smr::DaemonLevel::kOptimistic);
  EXPECT_EQ(smr::daemon_level_from_name("aggressive"),
            smr::DaemonLevel::kAggressive);
  EXPECT_STREQ(smr::daemon_level_name(smr::DaemonLevel::kOptimistic),
               "optimistic");
  try {
    smr::daemon_level_from_name("turbo");
    FAIL() << "unknown level must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("aggressive"), std::string::npos)
        << "error should list the valid levels, got: " << e.what();
  }
}

// ------------------------------------------------------ opstream compat

TEST(OpStreamServiceTest, LegacyStreamBitIdenticalWithServiceKnobsOff) {
  // The TrialConfig constructor must consume exactly the legacy random
  // draws while zipf_s == 0 — pre-service-mode trials replay
  // bit-identically.
  TrialConfig cfg;
  cfg.seed = 99;
  cfg.keyrange = 2048;
  OpStream legacy(cfg.seed, /*tid=*/3, cfg.insert_frac, cfg.erase_frac,
                  cfg.keyrange);
  OpStream service(cfg, /*tid=*/3);
  for (int i = 0; i < 50000; ++i) {
    const Op a = legacy.next();
    const Op b = service.next();
    ASSERT_EQ(a.kind, b.kind) << "op " << i;
    ASSERT_EQ(a.key, b.key) << "op " << i;
  }
}

TEST(OpStreamServiceTest, ZipfSkewsKeys) {
  TrialConfig cfg;
  cfg.seed = 5;
  cfg.keyrange = 4096;
  cfg.zipf_s = 1.1;
  OpStream s(cfg, 0);
  const int kN = 50000;
  int hot_keys = 0;
  for (int i = 0; i < kN; ++i) {
    const Op op = s.next();
    ASSERT_LT(op.key, cfg.keyrange);
    if (op.key < cfg.keyrange / 100) ++hot_keys;
  }
  EXPECT_GT(hot_keys, kN / 5);
}

// ------------------------------------------------------ service trials

TrialConfig tiny_service_config() {
  TrialConfig cfg;
  cfg.nthreads = 2;
  cfg.keyrange = 1024;
  cfg.measure_ms = 50;
  cfg.trials = 1;
  cfg.smr.batch_size = 64;
  cfg.alloc.remote_free_penalty_ns = 0;
  cfg.arrival = "poisson";
  cfg.rate_ops = 20'000;  // far under capacity: every arrival is served
  return cfg;
}

TEST(ServiceTrialTest, OfferedLoadIsServedAtEveryWorkerCount) {
  // ONE global schedule partitioned by residue class: the offered load
  // is a pure function of the seed — identical at every worker count —
  // and under light load (almost) every arrival is served.
  std::uint64_t offered[2] = {0, 0};
  int i = 0;
  for (int nthreads : {1, 4}) {
    TrialConfig cfg = tiny_service_config();
    cfg.nthreads = nthreads;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    ASSERT_GT(r.arrivals_offered, 0u) << nthreads;
    offered[i++] = r.arrivals_offered;
    // The stop flag can cut the last scheduled instants; everything
    // else completes, and every completion recorded its delay.
    EXPECT_GE(r.arrivals_completed, r.arrivals_offered * 98 / 100)
        << nthreads;
    EXPECT_EQ(r.q_ops, r.arrivals_completed) << nthreads;
    EXPECT_EQ(r.ops, r.arrivals_completed) << nthreads;
    EXPECT_EQ(trial.reclaimer().stats().pending, 0u) << nthreads;
  }
  EXPECT_EQ(offered[0], offered[1]);
}

TEST(ServiceTrialTest, OverloadExplodesQueueingDelayNotThroughput) {
  // The open-loop signal closed loops cannot show: past saturation the
  // queueing tail grows without bound while each op's own service time
  // stays ordinary.
  TrialConfig light = tiny_service_config();
  light.nthreads = 1;
  light.measure_ms = 40;
  light.rate_ops = 50'000;
  harness::Trial lt(light);
  const harness::TrialResult lr = lt.run();

  TrialConfig over = light;
  over.rate_ops = 20'000'000;  // far past single-thread capacity
  harness::Trial ot(over);
  const harness::TrialResult orr = ot.run();

  ASSERT_GT(lr.q_ops, 0u);
  ASSERT_GT(orr.q_ops, 0u);
  EXPECT_GT(orr.q_p999_ns, 500'000.0);  // >= 0.5 ms of queueing
  EXPECT_GT(orr.q_p999_ns, 5.0 * lr.q_p999_ns);
  // Saturated: the workers could not serve everything inside the window.
  EXPECT_LT(orr.arrivals_completed, orr.arrivals_offered);
}

TEST(ServiceTrialTest, BurstScheduleRunsAndSeparatesDelay) {
  TrialConfig cfg = tiny_service_config();
  cfg.arrival = "burst";
  cfg.rate_ops = 100'000;
  cfg.phases = {2.0, 0.1};
  cfg.enable_latency = true;
  harness::Trial trial(cfg);
  const harness::TrialResult r = trial.run();
  EXPECT_GT(r.arrivals_completed, 0u);
  EXPECT_GT(r.lat_ops, 0u);
  EXPECT_EQ(r.q_ops, r.arrivals_completed);
  // Queueing delay and service latency are distinct distributions, each
  // internally ordered.
  EXPECT_LE(r.q_p50_ns, r.q_p999_ns);
  EXPECT_LE(r.lat_p50_ns, r.lat_p999_ns);
}

// ------------------------------------------------------ daemon levels

TEST(DaemonTrialTest, LevelsRunAndAccountExactly) {
  for (const std::string level : {"off", "optimistic", "aggressive"}) {
    TrialConfig cfg = tiny_service_config();
    cfg.reclaimer = "hp_af";
    cfg.rate_ops = 100'000;
    cfg.phases = {2.0, 0.05};  // busy half, then an idle tail the
                               // daemon can reclaim through
    cfg.reclaimer_daemon = level;
    cfg.daemon_period_ms = 1;
    harness::Trial trial(cfg);
    const harness::TrialResult r = trial.run();
    EXPECT_GT(r.arrivals_completed, 0u) << level;
    EXPECT_EQ(trial.reclaimer().stats().pending, 0u) << level;
    EXPECT_EQ(trial.reclaimer().executor().backlog(), 0u) << level;
    EXPECT_EQ(trial.reclaimer().active_slots(), 0u) << level;
    if (level == "off") {
      EXPECT_EQ(trial.daemon(), nullptr);
      EXPECT_EQ(r.daemon_ticks, 0u);
      EXPECT_EQ(r.daemon_drained, 0u);
    } else {
      ASSERT_NE(trial.daemon(), nullptr) << level;
      EXPECT_FALSE(trial.daemon()->running()) << level;
      EXPECT_GT(r.daemon_ticks, 0u) << level;
    }
    if (level == "aggressive") {
      // Every tick acts: the amortized executor leaves backlog between
      // ops and the idle tail leaves it untouched for the daemon.
      EXPECT_GT(r.daemon_drained, 0u);
    }
  }
}

TEST(DaemonTrialTest, StartRequiresTheHookArmed) {
  test::TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  smr::SmrConfig cfg;
  cfg.num_threads = 2;
  smr::ReclaimerBundle bundle = smr::make_reclaimer("debra_af", ctx, cfg);
  smr::ReclaimerDaemon daemon(*bundle.reclaimer,
                              smr::DaemonLevel::kAggressive, 1);
  EXPECT_THROW(daemon.start(), std::logic_error);
  bundle.reclaimer->executor().set_daemon_hooked(true);
  daemon.start();
  EXPECT_TRUE(daemon.running());
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(bundle.reclaimer->active_slots(), 0u);
}

// The TSAN stress ci/check.sh filters on: daemon start/stop cycles
// racing ThreadHandle register/deregister churn (with live retire
// traffic) across one representative of every reclaimer family and
// every executor flavour (batch, amortized, pooling).
TEST(DaemonChurnTest, StartStopRacesHandleChurn) {
  for (const char* name :
       {"debra", "token_af", "hp", "ibr", "nbr", "debra_pool"}) {
    test::TrackingAllocator allocator;
    smr::SmrContext ctx;
    ctx.allocator = &allocator;
    smr::SmrConfig cfg;
    cfg.num_threads = 4;
    cfg.batch_size = 16;
    cfg.af_drain_per_op = 4;
    cfg.epoch_freq = 8;
    cfg.extra_slots = 2;  // churn overlap + the daemon's own slot
    smr::ReclaimerBundle bundle = smr::make_reclaimer(name, ctx, cfg);
    smr::Reclaimer& r = *bundle.reclaimer;
    r.executor().set_daemon_hooked(true);
    smr::ReclaimerDaemon daemon(r, smr::DaemonLevel::kAggressive, 1);

    std::atomic<bool> stop{false};
    std::vector<std::thread> churners;
    for (int w = 0; w < 3; ++w) {
      churners.emplace_back([&r, &stop] {
        std::uint64_t rounds = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          smr::ThreadHandle h = r.register_thread();
          for (int i = 0; i < 8; ++i) {
            smr::Guard g(h);
            g.retire(r.alloc_node(h, 64));
          }
          ++rounds;
        }  // handle released: backlog adopted or drained, never leaked
        EXPECT_GT(rounds, 0u);
      });
    }

    for (int cycle = 0; cycle < 25; ++cycle) {
      daemon.start();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      daemon.stop();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : churners) t.join();

    r.flush_all();
    const smr::SmrStats st = r.stats();
    EXPECT_EQ(st.pending, 0u) << name;
    EXPECT_EQ(allocator.live(), 0u) << name;
  }
}

}  // namespace
