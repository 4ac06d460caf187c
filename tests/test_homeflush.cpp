// Home-flush routing suite (docs/FREE_SCHEDULES.md): the _hf factory
// grammar and the EMR_HOME_FLUSH override, the flush_quota policies,
// routed frees landing on the owner's stash and flushing locally with
// an exact stashed/flushed ledger on the tracking allocator, departure
// splicing a live stash into the adoption queue, the daemon adopting a
// vacant lane's stash, and teardown stranding nothing across every
// scheme family. The *Concurrent* case races many producers pushing one
// owner's MPSC stash against the owner flushing it — ci/check.sh runs
// it under TSAN.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "smr/factory.hpp"
#include "smr/free_schedule.hpp"
#include "smr/reclaimer_daemon.hpp"
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
  smr::FreeExecutor& ex() { return bundle.reclaimer->executor(); }
};

smr::SmrConfig small_config(std::size_t batch = 8, std::size_t drain = 4) {
  smr::SmrConfig cfg;
  cfg.num_threads = 3;
  cfg.batch_size = batch;
  cfg.af_drain_per_op = drain;
  cfg.epoch_freq = 16;
  return cfg;
}

// ------------------------------------------------------ factory grammar

TEST(HomeFlush, HfNamesInTheFactoryGrammar) {
  EXPECT_EQ(smr::reclaimer_base_name("hp_hf"), "hp");
  EXPECT_EQ(smr::reclaimer_base_name("hp_af_hf"), "hp");
  EXPECT_EQ(smr::reclaimer_base_name("debra_pool_hf"), "debra");
  EXPECT_EQ(smr::reclaimer_base_name("token_adaptive_hf"), "token");
  const std::vector<std::string> names = smr::all_factory_names();
  // 2 fixed token variants + 11 suffixable bases x (4 forms + their 4
  // _hf twins).
  EXPECT_EQ(names.size(), 90u);
  auto has = [&](const char* n) {
    for (const std::string& s : names) {
      if (s == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("hp_hf"));
  EXPECT_TRUE(has("hp_af_hf"));
  EXPECT_TRUE(has("debra_adaptive_hf"));
  EXPECT_TRUE(has("token_adaptive_hf"));
  EXPECT_FALSE(has("token_naive_hf"));  // fixed-policy probes only
  EXPECT_FALSE(has("token_passfirst_hf"));
}

TEST(HomeFlush, HfSuffixArmsRoutingAndOverrideWins) {
  World off("debra_af", small_config());
  EXPECT_FALSE(off.ex().home_flush());
  World on("debra_af_hf", small_config());
  EXPECT_TRUE(on.ex().home_flush());
  EXPECT_STREQ(on.r().name(), "debra");
  EXPECT_STREQ(on.bundle.schedule->name(), "fixed");
  World adaptive("hp_adaptive_hf", small_config());
  EXPECT_TRUE(adaptive.ex().home_flush());
  EXPECT_STREQ(adaptive.bundle.schedule->name(), "adaptive");

  smr::SmrConfig forced_on = small_config();
  forced_on.home_flush = "on";
  World forced("debra_af", forced_on);
  EXPECT_TRUE(forced.ex().home_flush());

  smr::SmrConfig forced_off = small_config();
  forced_off.home_flush = "off";
  World muted("debra_af_hf", forced_off);
  EXPECT_FALSE(muted.ex().home_flush());

  smr::SmrConfig bad = small_config();
  bad.home_flush = "maybe";
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  try {
    smr::make_reclaimer("debra_af", ctx, bad);
    FAIL() << "invalid home_flush value must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("EMR_HOME_FLUSH"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(smr::make_reclaimer("token_naive_hf", ctx, small_config()),
               std::invalid_argument);
}

// --------------------------------------------------- flush_quota policy

TEST(HomeFlush, FlushQuotaPolicies) {
  smr::SmrConfig cfg;
  cfg.flush_batch = 48;
  auto fixed = smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg);
  smr::LaneStats lane;
  EXPECT_EQ(fixed->flush_quota(lane), 48u);
  lane.stash_backlog = 1 << 20;
  EXPECT_EQ(fixed->flush_quota(lane), 48u);  // backlog is ignored

  cfg.num_threads = 4;
  auto adaptive = smr::make_free_schedule(smr::ScheduleKind::kAdaptive, cfg);
  adaptive->on_population(4);
  lane.stash_backlog = 0;
  EXPECT_EQ(adaptive->flush_quota(lane), 1u);  // quiet stash: the floor
  lane.stash_backlog = 1;
  const std::size_t q_small = adaptive->flush_quota(lane);
  lane.stash_backlog = 1 << 20;
  const std::size_t q_big = adaptive->flush_quota(lane);
  EXPECT_GE(q_big, q_small) << "quota must be monotone in stash backlog";
  EXPECT_EQ(q_big, 48u) << "a huge stash must hit the EMR_FLUSH_BATCH cap";

  cfg = {};
  cfg.flush_batch = 0;
  try {
    smr::make_free_schedule(smr::ScheduleKind::kFixed, cfg);
    FAIL() << "flush_batch == 0 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("EMR_FLUSH_BATCH"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------- routing + the ledger

// Lane b drains blocks whose allocator home is lane a: with routing on
// they divert onto a's stash and a flushes them locally; the tracking
// allocator proves every block is freed exactly once and the
// stashed/flushed ledger balances to zero backlog.
TEST(HomeFlush, RoutedFreeLandsOnOwnersStashAndFlushesLocally) {
  smr::SmrConfig cfg = small_config(/*batch=*/8, /*drain=*/4);
  cfg.flush_batch = 16;
  World w("debra_af_hf", cfg);
  smr::ThreadHandle a = w.r().register_thread();
  smr::ThreadHandle b = w.r().register_thread();
  constexpr int kBlocks = 200;
  for (int i = 0; i < kBlocks; ++i) {
    void* p = w.r().alloc_node(a, 64);
    {
      smr::Guard g(b);
      g.retire(p);  // b frees a's block: the routed path
    }
    { smr::Guard g(a); }  // a's op end flushes its stash
  }
  EXPECT_GT(w.ex().total_stashed(), 0u)
      << "cross-lane drains must divert through the stash";
  w.r().flush_all();
  EXPECT_EQ(w.ex().total_stashed(), w.ex().total_flushed());
  EXPECT_EQ(w.ex().total_stash_backlog(), 0u);
  EXPECT_EQ(w.r().stats().pending, 0u);
  EXPECT_EQ(w.allocator.live(), 0u);
  EXPECT_EQ(w.allocator.frees(), w.allocator.allocs());

  // The ledger surfaces per lane through stats_with_lanes.
  const smr::SmrStats st = w.r().stats_with_lanes();
  std::uint64_t stashed = 0, flushed = 0, backlog = 0;
  for (const smr::LaneStats& l : st.lanes) {
    stashed += l.stashed;
    flushed += l.flushed;
    backlog += l.stash_backlog;
  }
  EXPECT_EQ(stashed, w.ex().total_stashed());
  EXPECT_EQ(flushed, w.ex().total_flushed());
  EXPECT_EQ(backlog, 0u);
}

// Without the _hf suffix the routing layer is never touched.
TEST(HomeFlush, RoutingOffTouchesNoStash) {
  World w("debra_af", small_config());
  smr::ThreadHandle a = w.r().register_thread();
  smr::ThreadHandle b = w.r().register_thread();
  for (int i = 0; i < 100; ++i) {
    void* p = w.r().alloc_node(a, 64);
    {
      smr::Guard g(b);
      g.retire(p);
    }
    { smr::Guard g(a); }
  }
  w.r().flush_all();
  EXPECT_EQ(w.ex().total_stashed(), 0u);
  EXPECT_EQ(w.ex().total_flushed(), 0u);
  EXPECT_EQ(w.allocator.live(), 0u);
}

// Teardown strands nothing in any scheme family: the flush_all
// hand-over/quiesce interleavings differ per scheme, and the teardown
// latch must cover all of them.
TEST(HomeFlush, HfVariantsAccountExactlyAcrossFamilies) {
  for (const std::string& base : smr::experiment2_reclaimers()) {
    World w(base + "_af_hf", small_config());
    smr::ThreadHandle h = w.r().register_thread();
    smr::ThreadHandle other = w.r().register_thread();
    for (int i = 0; i < 100; ++i) {
      void* p = w.r().alloc_node(h, 64);
      {
        smr::Guard g(other);
        g.retire(p);
      }
      { smr::Guard g(h); }
    }
    w.r().flush_all();
    const smr::SmrStats st = w.r().stats();
    EXPECT_EQ(st.retired, 100u) << base;
    EXPECT_EQ(st.pending, 0u) << base;
    EXPECT_EQ(w.ex().total_stashed(), w.ex().total_flushed()) << base;
    EXPECT_EQ(w.ex().total_stash_backlog(), 0u) << base;
    EXPECT_EQ(w.allocator.live(), 0u) << base;
  }
}

// ---------------------------------------- departure + orphan adoption

// A lane departing with a fed stash folds it into the adoption queue at
// deregister time — the ledger counts the splice as flushed and the
// backlog gauge drops to zero immediately, long before flush_all.
TEST(HomeFlush, DepartureSplicesStashIntoAdoption) {
  smr::SmrConfig cfg = small_config(/*batch=*/4, /*drain=*/2);
  World w("debra_af_hf", cfg);
  smr::ThreadHandle b = w.r().register_thread();
  std::vector<void*> blocks;
  {
    smr::ThreadHandle d = w.r().register_thread();
    for (int i = 0; i < 64; ++i) blocks.push_back(w.r().alloc_node(d, 64));
    // b drains blocks homed on d; d never runs an op, so its stash only
    // fills.
    for (void* p : blocks) {
      smr::Guard g(b);
      g.retire(p);
    }
    for (int i = 0; i < 64; ++i) {
      smr::Guard g(b);
    }
    ASSERT_GT(w.ex().total_stash_backlog(), 0u)
        << "precondition: d's stash must hold blocks when d departs";
  }  // d departs: on_lane_released splices the stash
  EXPECT_EQ(w.ex().total_stash_backlog(), 0u);
  EXPECT_EQ(w.ex().total_stashed(), w.ex().total_flushed());
  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// Blocks homed on a lane that departed *before* they were drained land
// on a vacant lane's stash; the daemon's all-lanes sweep adopts them.
TEST(HomeFlush, DaemonAdoptsVacantLaneStash) {
  smr::SmrConfig cfg = small_config(/*batch=*/4, /*drain=*/2);
  cfg.extra_slots = 2;  // the daemon's own slot + churn headroom
  World w("debra_af_hf", cfg);
  w.ex().set_daemon_hooked(true);
  smr::ReclaimerDaemon daemon(w.r(), smr::DaemonLevel::kAggressive, 1);

  std::vector<void*> blocks;
  {
    smr::ThreadHandle d = w.r().register_thread();
    for (int i = 0; i < 64; ++i) blocks.push_back(w.r().alloc_node(d, 64));
  }  // d departs with an empty stash; its blocks are still live
  daemon.start();
  smr::ThreadHandle b = w.r().register_thread();
  for (void* p : blocks) {
    smr::Guard g(b);
    g.retire(p);
  }
  // b's drains feed the vacant lane's stash; only the daemon can empty
  // it (b flushes its own stash, never a foreign one).
  for (int i = 0; i < 2000 && (w.ex().total_stashed() == 0 ||
                               w.ex().total_stash_backlog() != 0);
       ++i) {
    { smr::Guard g(b); }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(w.ex().total_stashed(), 0u);
  EXPECT_EQ(w.ex().total_stash_backlog(), 0u)
      << "the daemon sweep must adopt a vacant lane's stash";
  daemon.stop();
  w.r().flush_all();
  EXPECT_EQ(w.ex().total_stashed(), w.ex().total_flushed());
  EXPECT_EQ(w.allocator.live(), 0u);
}

// ----------------------------------------------------- TSAN stress

// MPSC stash under fire: many producer lanes push one owner's stash
// while the owner concurrently flushes it. The tracking allocator
// asserts no block is freed twice (no dup) and the final ledger proves
// none is lost. hp, not debra: hazard-pointer scans fire locally at the
// retire-list threshold, so every producer routes blocks no matter how
// the other threads are scheduled — an epoch scheme's advance (and so
// this test) could be wedged for the whole run by the flusher thread
// getting descheduled inside a guard.
TEST(HomeFlushConcurrent, MpscStashStressNoLossNoDup) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  smr::SmrConfig cfg = small_config(/*batch=*/8, /*drain=*/4);
  cfg.num_threads = kProducers + 1;
  cfg.flush_batch = 8;  // small quantum: flushes interleave with pushes
  World w("hp_af_hf", cfg);

  smr::ThreadHandle owner = w.r().register_thread();
  // Home every block on the owner's lane (single-threaded: the model
  // allocator's per-thread state is not written concurrently).
  std::vector<std::vector<void*>> shares(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kPerProducer; ++i) {
      shares[static_cast<std::size_t>(t)].push_back(
          w.r().alloc_node(owner, 64));
    }
  }

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      smr::Guard g(owner);  // op end flushes the owner's stash
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      smr::ThreadHandle h = w.r().register_thread();
      for (void* p : shares[static_cast<std::size_t>(t)]) {
        smr::Guard g(h);
        g.retire(p);
      }
      // hp scans fired at the retire-list threshold along the way, so
      // this lane already pushed the owner's stash; the tail below the
      // threshold routes at deregistration's departure scan.
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  flusher.join();

  w.r().flush_all();
  EXPECT_GT(w.ex().total_stashed(), 0u);
  EXPECT_EQ(w.ex().total_stashed(), w.ex().total_flushed());
  EXPECT_EQ(w.ex().total_stash_backlog(), 0u);
  EXPECT_EQ(w.allocator.live(), 0u) << "no block may be lost in a stash";
  EXPECT_EQ(w.allocator.frees(), w.allocator.allocs());
}

}  // namespace
