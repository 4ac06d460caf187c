// FreeSchedule layer suite: the fixed policy mirrors the config, the
// adaptive controller tracks backlog/population and clamps its quantum,
// nonsensical knob values fail fast naming the knob, every factory name
// builds the executor, schedule and routing its ReclaimerSpec names,
// the pooling cap flows through the policy, the churn-aware departure
// drain never frees more than the quota in one op (the adoption-spike
// regression), and the daemon's drain leaves the pooling stock in
// place. The *Concurrent* case races lane-stats readers against live
// lanes — ci/check.sh runs it under TSAN.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "smr/factory.hpp"
#include "smr/free_executor.hpp"
#include "smr/free_schedule.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

struct World {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;

  explicit World(const std::string& name, smr::SmrConfig config) {
    ctx.allocator = &allocator;
    cfg = config;
    bundle = smr::make_reclaimer(name, ctx, cfg);
  }

  smr::Reclaimer& r() { return *bundle.reclaimer; }
};

smr::SmrConfig small_config(std::size_t batch = 8, std::size_t drain = 4) {
  smr::SmrConfig cfg;
  cfg.num_threads = 3;
  cfg.batch_size = batch;
  cfg.af_drain_per_op = drain;
  cfg.epoch_freq = 16;
  return cfg;
}

// ------------------------------------------------------------- policies

TEST(FreeSchedule, FixedMirrorsTheConfig) {
  smr::SmrConfig cfg;
  cfg.batch_size = 128;
  cfg.af_drain_per_op = 7;
  auto sched = smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg);
  EXPECT_STREQ(sched->name(), "fixed");
  smr::LaneStats huge;
  huge.backlog = 1 << 20;
  EXPECT_EQ(sched->drain_quota(huge), 7u);       // backlog is ignored
  EXPECT_EQ(sched->scan_threshold(0), 128u);     // population is ignored
  EXPECT_EQ(sched->scan_threshold(999), 128u);
  EXPECT_EQ(sched->pool_cap(), 1024u);  // auto: max(4 * batch, 1024)

  cfg.batch_size = 4096;
  EXPECT_EQ(smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg)
                ->pool_cap(),
            16384u);
  cfg.pool_cap = 77;  // explicit cap wins over the auto formula
  EXPECT_EQ(smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg)
                ->pool_cap(),
            77u);
}

TEST(FreeSchedule, NonsenseFailsFastNamingTheKnob) {
  smr::SmrConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.drain_min = 0;
  EXPECT_THROW(smr::make_free_schedule(smr::ScheduleKind::kAdaptive, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.drain_min = 8;
  cfg.drain_max = 2;
  try {
    smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg);
    FAIL() << "drain_max < drain_min must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("EMR_DRAIN_MAX"),
              std::string::npos);
  }
}

TEST(FreeSchedule, AdaptiveQuotaTracksBacklogAndClamps) {
  smr::SmrConfig cfg;
  cfg.num_threads = 4;
  cfg.drain_min = 2;
  cfg.drain_max = 32;
  auto sched = smr::make_free_schedule(smr::ScheduleKind::kAdaptive, cfg);
  EXPECT_STREQ(sched->name(), "adaptive");
  sched->on_population(4);

  smr::LaneStats lane;
  EXPECT_EQ(sched->drain_quota(lane), 2u);  // empty backlog: the floor

  lane.backlog = 1;
  const std::size_t q_small = sched->drain_quota(lane);
  lane.backlog = 100'000;
  const std::size_t q_big = sched->drain_quota(lane);
  EXPECT_GE(q_big, q_small) << "quota must be monotone in backlog";
  EXPECT_EQ(q_big, 32u) << "a huge backlog must hit the clamp";
  lane.backlog = 1 << 30;
  EXPECT_EQ(sched->drain_quota(lane), 32u);

  // More registrants shorten the drain horizon: same backlog, bigger
  // quota.
  lane.backlog = 2048;
  sched->on_population(1);
  const std::size_t q_idle = sched->drain_quota(lane);
  sched->on_population(8);
  const std::size_t q_crowded = sched->drain_quota(lane);
  EXPECT_GE(q_crowded, q_idle);
}

TEST(FreeSchedule, AdaptiveQuotaRespectsDrainCost) {
  smr::SmrConfig cfg;
  cfg.drain_min = 1;
  cfg.drain_max = 1024;
  auto sched = smr::make_free_schedule(smr::ScheduleKind::kAdaptive, cfg);
  sched->on_population(1);
  smr::LaneStats lane;
  lane.backlog = 1 << 20;
  lane.timed_drained = 100;
  // Pool recycles / batch frees are counted here but never clocked;
  // they must not dilute the ns-per-free estimate below.
  lane.drained = 100'000;
  lane.drain_ns = 100 * 1'000'000;  // 1 ms per clocked free: pathological
  // 50 us budget / 1 ms per free -> quota collapses toward the floor
  // instead of stalling the op on a million-node drain.
  EXPECT_LE(sched->drain_quota(lane), 2u);
}

TEST(FreeSchedule, AdaptiveThresholdProratesWithPopulation) {
  smr::SmrConfig cfg;
  cfg.num_threads = 6;
  cfg.extra_slots = 2;  // capacity 8
  cfg.batch_size = 4096;
  auto sched = smr::make_free_schedule(smr::ScheduleKind::kAdaptive, cfg);
  const std::size_t cap = cfg.slot_capacity();
  EXPECT_EQ(sched->scan_threshold(cap), 4096u);  // full table: full batch
  EXPECT_EQ(sched->scan_threshold(cap / 2), 2048u);
  EXPECT_EQ(sched->scan_threshold(1), 4096u / cap);
  EXPECT_EQ(sched->scan_threshold(0), 4096u / cap);  // floored population
  EXPECT_EQ(sched->scan_threshold(cap * 10), 4096u)
      << "population beyond capacity must not exceed the configured batch";
  // Degenerate batch still yields a usable threshold.
  cfg.batch_size = 2;
  auto tiny = smr::make_free_schedule(smr::ScheduleKind::kAdaptive, cfg);
  EXPECT_GE(tiny->scan_threshold(1), 1u);
}

// ------------------------------------------------------ factory wiring

// Every name round-trips through its spec, and the spec alone decides
// the bundle: executor class, schedule and routing.
TEST(FreeSchedule, SuffixSelectsThePolicy) {
  for (const std::string& name : smr::all_factory_names()) {
    SCOPED_TRACE(name);
    const smr::ReclaimerSpec spec = smr::parse_reclaimer(name);
    EXPECT_EQ(smr::reclaimer_name(spec), name);
    World w(name, small_config());
    const std::type_info& executor =
        spec.form == smr::FreeForm::kBatch  ? typeid(smr::BatchFreeExecutor)
        : spec.form == smr::FreeForm::kPool ? typeid(smr::PoolingFreeExecutor)
                                            : typeid(smr::FreeExecutor);
    EXPECT_STREQ(typeid(w.r().executor()).name(), executor.name());
    EXPECT_STREQ(w.bundle.schedule->name(),
                 spec.form == smr::FreeForm::kAdaptive ? "adaptive"
                                                       : "fixed");
    EXPECT_EQ(w.r().executor().home_flush(), spec.home_flush);
  }
  World adaptive("debra_adaptive", small_config());
  EXPECT_STREQ(adaptive.r().name(), "debra");
  World token_adaptive("token_adaptive", small_config());
  EXPECT_STREQ(token_adaptive.r().name(), "token_adaptive");

  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  for (const char* bad :
       {"", "_af", "debras", "debra_hf_af", "debra_af_af", "hp_latency",
        "token_naive_af", "token_passfirst_hf"}) {
    EXPECT_THROW(smr::parse_reclaimer(bad), std::invalid_argument) << bad;
    EXPECT_THROW(smr::make_reclaimer(bad, ctx, small_config()),
                 std::invalid_argument)
        << bad;
  }
}

TEST(FreeSchedule, LatencyNamesInTheFactoryGrammar) {
  const std::vector<std::string> names = smr::all_factory_names();
  // 2 fixed token variants + 11 suffixable bases x 4 forms x {direct,
  // _hf}; `_latency` is not one of the forms.
  EXPECT_EQ(names.size(), 90u);
  for (const std::string& n : names) {
    EXPECT_EQ(n.find("_latency"), std::string::npos) << n;
  }
}

TEST(FreeSchedule, PopulationFollowsRegistration) {
  World w("debra_adaptive", small_config());
  auto* sched =
      dynamic_cast<smr::AdaptiveFreeSchedule*>(w.bundle.schedule.get());
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->population(), 0u);
  {
    smr::ThreadHandle a = w.r().register_thread();
    EXPECT_EQ(sched->population(), 1u);
    smr::ThreadHandle b = w.r().register_thread();
    EXPECT_EQ(sched->population(), 2u);
  }
  EXPECT_EQ(sched->population(), 0u);
}

TEST(FreeSchedule, PoolCapFlowsThroughThePolicy) {
  smr::SmrConfig cfg = small_config(/*batch=*/8, /*drain=*/64);
  cfg.pool_cap = 16;
  World w("debra_pool", cfg);
  smr::ThreadHandle h = w.r().register_thread();
  smr::ThreadHandle other = w.r().register_thread();
  for (int i = 0; i < 256; ++i) {
    smr::Guard g(h);
    g.retire(w.r().alloc_node(h, 64));
  }
  // Quiescent rounds age every bag and trim the pool down to the cap.
  for (int i = 0; i < 256; ++i) {
    { smr::Guard g(h); }
    { smr::Guard g(other); }
  }
  EXPECT_LE(w.r().executor().backlog(), 16u)
      << "pooling must trim its inventory to FreeSchedule::pool_cap()";
  EXPECT_GT(w.r().executor().backlog(), 0u)
      << "pooling must keep inventory up to the cap";
  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

TEST(FreeSchedule, RegisterExhaustionNamesTheKnob) {
  World w("debra", small_config());
  std::vector<smr::ThreadHandle> handles;
  for (std::size_t i = 0; i < w.r().slot_capacity(); ++i) {
    handles.push_back(w.r().register_thread());
  }
  try {
    w.r().register_thread();
    FAIL() << "exhausted table must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(w.r().slot_capacity())),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("EMR_EXTRA_SLOTS"), std::string::npos) << msg;
  }
}

// ------------------------------------- churn-aware departure drain

// The adoption-spike regression: a departing thread's parked bags must
// reach the allocator at the schedule's quota per op — never as one
// burst. Departure hand-offs join the lane's one backlog under every
// executor, so the check covers the batch executor (where fresh bags are
// deliberately freed whole) and the amortized one, across the epoch,
// hazard-pointer and token families.
TEST(FreeSchedule, DepartureBacklogNeverSpikesPastQuota) {
  constexpr std::uint64_t kQuota = 4;
  constexpr int kRetired = 40;
  for (const char* name : {"debra", "debra_af", "hp", "hp_af", "token_af"}) {
    SCOPED_TRACE(name);
    World w(name, small_config(/*batch=*/8, /*drain=*/kQuota));
    smr::ThreadHandle a = w.r().register_thread();
    smr::ThreadHandle b = w.r().register_thread();

    std::uint64_t at_release = 0;
    {
      smr::ThreadHandle departing = w.r().register_thread();
      for (int i = 0; i < kRetired; ++i) {
        smr::Guard g(departing);
        g.retire(w.r().alloc_node(departing, 64));
      }
      // Bags that aged while the thread was live may already have been
      // freed — whole under batch, per op under _af. The regression is
      // about what happens from the release on.
      at_release = w.allocator.frees();
    }  // departs: open bag seals, every parked bag is marked adopted
    EXPECT_LE(w.allocator.frees() - at_release, kQuota)
        << "the departure itself must not burst-free the backlog";

    smr::ThreadHandle succ = w.r().register_thread();  // adopts the lane
    std::uint64_t prev = w.allocator.frees();
    for (int i = 0; i < 600 && w.allocator.frees() < kRetired; ++i) {
      { smr::Guard g(succ); }
      std::uint64_t now = w.allocator.frees();
      EXPECT_LE(now - prev, kQuota)
          << "op " << i << " freed a larger-than-quota burst";
      prev = now;
      { smr::Guard g(a); }
      { smr::Guard g(b); }
      now = w.allocator.frees();
      // The other lanes hold no backlog; nothing may drain there.
      EXPECT_LE(now - prev, kQuota) << "op " << i;
      prev = now;
    }
    EXPECT_GE(w.allocator.frees(), static_cast<std::uint64_t>(kRetired))
        << "the adopted backlog must fully drain through the quota";

    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u);
    EXPECT_EQ(w.allocator.live(), 0u);
  }
}

// The daemon frees reclamation debt, not recycling stock: one
// unbounded daemon_drain empties an amortized lane's backlog but leaves
// a pooling lane at exactly the schedule's pool cap. The nodes are
// allocated up front so the pool cannot recycle its backlog away.
TEST(FreeSchedule, DaemonDrainKeepsThePoolStock) {
  constexpr std::size_t kPoolCap = 16;
  constexpr int kNodes = 800;
  for (const char* name : {"debra_af", "debra_pool", "hp_pool"}) {
    SCOPED_TRACE(name);
    smr::SmrConfig cfg = small_config(/*batch=*/8, /*drain=*/1);
    cfg.pool_cap = kPoolCap;
    World w(name, cfg);
    smr::FreeExecutor& ex = w.r().executor();
    ex.set_daemon_hooked(true);
    smr::ThreadHandle h = w.r().register_thread();
    smr::ThreadHandle other = w.r().register_thread();
    smr::ThreadHandle daemon = w.r().register_thread();

    std::vector<void*> nodes;
    for (int i = 0; i < kNodes; ++i) {
      nodes.push_back(w.r().alloc_node(h, 64));
    }
    for (std::size_t i = 0; i < nodes.size(); i += 4) {
      {
        smr::Guard g(h);
        for (std::size_t j = i; j < i + 4; ++j) g.retire(nodes[j]);
      }
      { smr::Guard g(other); }
    }
    const std::uint64_t before = ex.lane_stats(h.slot()).backlog;
    ASSERT_GT(before, 400u) << "precondition: a deep backlog on the lane";

    const std::size_t freed = ex.daemon_drain(h.slot(), 1 << 20,
                                              daemon.slot());
    const std::uint64_t keep =
        smr::parse_reclaimer(name).form == smr::FreeForm::kPool ? kPoolCap
                                                                 : 0;
    EXPECT_EQ(ex.lane_stats(h.slot()).backlog, keep);
    EXPECT_EQ(freed, before - keep);

    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u);
    EXPECT_EQ(w.allocator.live(), 0u);
  }
}

// Adaptive end-to-end accounting: the _adaptive variants retire/flush
// exactly like their fixed siblings across every family.
TEST(FreeSchedule, AdaptiveVariantsAccountExactly) {
  for (const std::string& base : smr::experiment2_reclaimers()) {
    World w(smr::reclaimer_name({base, smr::FreeForm::kAdaptive}),
            small_config());
    smr::ThreadHandle h = w.r().register_thread();
    smr::ThreadHandle other = w.r().register_thread();
    for (int i = 0; i < 100; ++i) {
      {
        smr::Guard g(h);
        g.retire(w.r().alloc_node(h, 64));
      }
      { smr::Guard g(other); }
    }
    w.r().flush_all();
    const smr::SmrStats st = w.r().stats();
    EXPECT_EQ(st.retired, 100u) << base;
    EXPECT_EQ(st.pending, 0u) << base;
    EXPECT_EQ(w.allocator.live(), 0u) << base;
  }
}

TEST(FreeSchedule, LaneStatsSurfaceThroughReclaimerStats) {
  World w("debra_af", small_config(/*batch=*/8, /*drain=*/2));
  smr::ThreadHandle h = w.r().register_thread();
  smr::ThreadHandle other = w.r().register_thread();
  for (int i = 0; i < 64; ++i) {
    {
      smr::Guard g(h);
      g.retire(w.r().alloc_node(h, 64));
    }
    { smr::Guard g(other); }
  }
  const smr::SmrStats st = w.r().stats_with_lanes();
  ASSERT_EQ(st.lanes.size(), w.r().slot_capacity());
  std::uint64_t ops = 0, retired = 0, enqueued = 0, drained = 0,
                backlog = 0;
  for (const smr::LaneStats& l : st.lanes) {
    ops += l.ops;
    retired += l.retired;
    enqueued += l.enqueued;
    drained += l.drained;
    backlog += l.backlog;
  }
  EXPECT_EQ(ops, 128u);
  EXPECT_GT(enqueued, 0u) << "sealed bags must be counted into a lane";
  EXPECT_EQ(enqueued - drained, backlog);
  EXPECT_EQ(backlog, w.r().executor().backlog());
  EXPECT_EQ(drained, w.r().executor().total_freed());
  // The snapshot's totals are the sums of its own rows.
  EXPECT_EQ(retired, 64u);
  EXPECT_EQ(retired, st.retired);
  EXPECT_EQ(drained, st.freed);
  EXPECT_EQ(st.pending, st.retired - st.freed);
  w.r().flush_all();
}

// ----------------------------------------------------- TSAN stress

// Lane-stats counters under fire: workers churn registration and drive
// retires through one executor per scheme family while a reader thread
// samples stats(), stats_with_lanes() and the schedule's quota. Every
// sample must keep the ledger untorn (freed <= retired, pending ==
// retired - freed), and after teardown the per-lane retire counts must
// add up to every retire made across the slot recycling. ci/check.sh
// runs this case in the TSAN tree.
TEST(FreeScheduleConcurrent, LaneStatsRaceFreeUnderChurn) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 20;
  constexpr int kRetiresPerRound = 200;
  for (const char* name :
       {"debra_af", "token_af", "hp_af", "ibr_adaptive", "nbr_af"}) {
    World w(name, [] {
      smr::SmrConfig cfg = small_config(/*batch=*/16, /*drain=*/4);
      cfg.num_threads = kWorkers;
      return cfg;
    }());

    std::atomic<bool> stop{false};
    std::uint64_t samples = 0, torn = 0;
    std::thread reader([&] {
      const auto untorn = [](const smr::SmrStats& st) {
        return st.freed <= st.retired &&
               st.pending == st.retired - st.freed;
      };
      while (!stop.load(std::memory_order_acquire)) {
        const smr::SmrStats st = w.r().stats_with_lanes();
        smr::LaneStats busiest;
        for (const smr::LaneStats& l : st.lanes) {
          if (l.backlog >= busiest.backlog) busiest = l;
        }
        (void)w.bundle.schedule->drain_quota(busiest);
        samples += 2;
        torn += untorn(st) ? 0 : 1;
        torn += untorn(w.r().stats()) ? 0 : 1;
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t) {
      workers.emplace_back([&] {
        for (int round = 0; round < kRounds; ++round) {
          smr::ThreadHandle h = w.r().register_thread();
          for (int i = 0; i < kRetiresPerRound; ++i) {
            smr::Guard g(h);
            g.retire(w.r().alloc_node(h, 64));
          }
        }  // deregister mid-flight: departure scans + adoption hand-offs
      });
    }
    for (std::thread& t : workers) t.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_GT(samples, 0u) << name;
    EXPECT_EQ(torn, 0u) << name << ": " << torn << " of " << samples
                        << " stats samples had freed > retired";
    w.r().flush_all();
    const smr::SmrStats st = w.r().stats();
    EXPECT_EQ(st.retired,
              std::uint64_t{kWorkers} * kRounds * kRetiresPerRound)
        << name;
    EXPECT_EQ(st.freed, st.retired) << name;
    EXPECT_EQ(st.pending, 0u) << name;
    EXPECT_EQ(w.r().executor().backlog(), 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

}  // namespace
