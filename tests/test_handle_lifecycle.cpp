// ThreadHandle lifecycle suite: register/release/re-register loops
// across every factory name, slot exhaustion and reuse, the
// departed-thread guarantees (a released handle's pending retires still
// reach total_freed(); a vacated slot never pins the epoch or stalls
// the token ring), and a register/deregister churn stress over a live
// lock-free structure — the TSAN target ci/check.sh race-checks.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "ds/set.hpp"
#include "smr/factory.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

struct LifecycleWorld {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;

  explicit LifecycleWorld(const std::string& name, int threads = 2,
                          std::size_t batch = 8) {
    ctx.allocator = &allocator;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.af_drain_per_op = 4;
    cfg.epoch_freq = 16;
    bundle = smr::make_reclaimer(name, ctx, cfg);
  }

  smr::Reclaimer& r() { return *bundle.reclaimer; }
};

class HandleLifecycleTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllFactoryNames, HandleLifecycleTest,
    ::testing::ValuesIn(smr::all_factory_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Slots are a bounded, recycled resource: a full table rejects the next
// registration, released slots are reused (dense indices, bumped
// generations), and ops interleaved with the register/release loops
// still account exactly at teardown.
TEST_P(HandleLifecycleTest, RegisterReleaseReRegisterLoops) {
  const std::string name = GetParam();
  LifecycleWorld w(name);
  const std::size_t cap = w.r().slot_capacity();
  ASSERT_GE(cap, 2u);

  std::uint64_t retired = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<smr::ThreadHandle> handles;
    std::set<int> slots;
    for (std::size_t i = 0; i < cap; ++i) {
      handles.push_back(w.r().register_thread());
      EXPECT_GE(handles.back().generation(),
                static_cast<std::uint64_t>(round + 1))
          << name;
      slots.insert(handles.back().slot());
    }
    // Dense, unique slots covering [0, cap).
    EXPECT_EQ(slots.size(), cap) << name;
    EXPECT_EQ(*slots.begin(), 0) << name;
    EXPECT_EQ(*slots.rbegin(), static_cast<int>(cap) - 1) << name;
    EXPECT_EQ(w.r().active_slots(), cap) << name;
    EXPECT_THROW(w.r().register_thread(), std::runtime_error) << name;

    for (smr::ThreadHandle& h : handles) {
      for (int i = 0; i < 4; ++i) {
        smr::Guard g(h);
        g.retire(w.r().alloc_node(h, 64));
        ++retired;
      }
    }
    handles.clear();  // release all: slots recycle, backlogs hand off
    EXPECT_EQ(w.r().active_slots(), 0u) << name;
  }

  w.r().flush_all();
  const smr::SmrStats st = w.r().stats();
  EXPECT_EQ(st.retired, retired) << name;
  EXPECT_EQ(st.pending, 0u) << name;
  EXPECT_EQ(w.allocator.live(), 0u) << name;
}

// The departed-thread backlog guarantee: retires parked on a handle
// that is then released are never lost — they reach the executor's
// total_freed() once grace (or teardown) allows.
TEST_P(HandleLifecycleTest, ReleasedHandleBacklogReachesTotalFreed) {
  const std::string name = GetParam();
  LifecycleWorld w(name, /*threads=*/2, /*batch=*/64);

  {
    smr::ThreadHandle h = w.r().register_thread();
    for (int i = 0; i < 20; ++i) {  // well under batch: all stay pending
      smr::Guard g(h);
      g.retire(w.r().alloc_node(h, 64));
    }
  }  // release with the backlog still in limbo

  // A successor adopts the slot and keeps operating.
  smr::ThreadHandle h2 = w.r().register_thread();
  for (int i = 0; i < 8; ++i) {
    smr::Guard g(h2);
  }
  h2.release();

  w.r().flush_all();
  EXPECT_GE(w.r().executor().total_freed(), 20u)
      << name << ": a released handle's retires must reach the executor";
  EXPECT_EQ(w.r().stats().pending, 0u) << name;
  EXPECT_EQ(w.allocator.live(), 0u) << name;
}

TEST(HandleLifecycle, DetachedHandleFailsFast) {
  LifecycleWorld w("debra");
  smr::ThreadHandle h = w.r().register_thread();
  h.release();
  EXPECT_FALSE(h.attached());
  EXPECT_THROW(w.r().begin_op(h), std::logic_error);

  LifecycleWorld other("debra");
  smr::ThreadHandle foreign = other.r().register_thread();
  EXPECT_THROW(w.r().begin_op(foreign), std::logic_error);
}

// The satellite fix: the token ring must keep rotating while a slot
// between two live threads is vacant (pre-handle code passed to a dense
// tid that no longer ran and stalled forever), and the departed
// thread's sealed bags must still drain.
TEST(HandleLifecycle, TokenRotationCompletesAcrossVacantSlot) {
  for (const char* name : {"token", "token_naive", "token_passfirst",
                           "token_af", "token_pool"}) {
    LifecycleWorld w(name, /*threads=*/3, /*batch=*/4);
    smr::ThreadHandle h0 = w.r().register_thread();
    smr::ThreadHandle h1 = w.r().register_thread();
    smr::ThreadHandle h2 = w.r().register_thread();

    auto tick = [&w](smr::ThreadHandle& h) {
      w.r().begin_op(h);
      w.r().end_op(h);
    };
    // Seed some retires on the soon-to-depart middle slot, then rotate.
    for (int i = 0; i < 8; ++i) {
      smr::Guard g(h1);
      g.retire(w.r().alloc_node(h1, 64));
    }
    for (int i = 0; i < 16; ++i) {
      tick(h0);
      tick(h1);
      tick(h2);
    }

    h1.release();  // slot 1 is now a hole in the ring
    const std::uint64_t rotations_before = w.r().stats().epochs_advanced;
    for (int i = 0; i < 4000; ++i) {
      tick(h0);
      tick(h2);
    }
    EXPECT_GT(w.r().stats().epochs_advanced, rotations_before)
        << name << ": rotation stalled on the vacant slot";

    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

// Token parked on the departing holder: the departure hand-off (or a
// surviving thread's adoption CAS) must keep the ring moving even when
// the holder releases between ops.
TEST(HandleLifecycle, TokenHolderDepartureHandsOff) {
  LifecycleWorld w("token", /*threads=*/2, /*batch=*/4);
  for (int round = 0; round < 20; ++round) {
    smr::ThreadHandle a = w.r().register_thread();
    smr::ThreadHandle b = w.r().register_thread();
    const std::uint64_t before = w.r().stats().epochs_advanced;
    for (int i = 0; i < 200; ++i) {
      w.r().begin_op(a);
      w.r().end_op(a);
    }
    a.release();  // whoever holds the token, b must still rotate alone...
    for (int i = 0; i < 600; ++i) {
      w.r().begin_op(b);
      w.r().end_op(b);
    }
    EXPECT_GT(w.r().stats().epochs_advanced, before) << "round " << round;
    b.release();
  }
  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// EBR advances the epoch only while a sealed bag waits for grace: idle
// readers leave it alone, and one sealed bag gets its two advances and
// its free within a few cadence points.
TEST(HandleLifecycle, IdleReadersDoNotAdvanceTheEpoch) {
  for (const char* name : {"debra", "qsbr", "rcu"}) {
    LifecycleWorld w(name, /*threads=*/3, /*batch=*/8);
    std::vector<smr::ThreadHandle> hs;
    for (int i = 0; i < 3; ++i) hs.push_back(w.r().register_thread());
    auto round = [&hs] {
      for (smr::ThreadHandle& h : hs) smr::Guard g(h);
    };

    const std::uint64_t before = w.r().stats().epochs_advanced;
    for (int i = 0; i < 1000; ++i) round();
    EXPECT_EQ(w.r().stats().epochs_advanced, before)
        << name << ": advanced with no bag waiting";

    for (int i = 0; i < 8; ++i) {  // the 8th retire seals one bag
      smr::Guard g(hs[0]);
      g.retire(w.r().alloc_node(hs[0], 64));
    }
    for (int i = 0; i < 64 && w.r().stats().freed < 8; ++i) round();
    EXPECT_GE(w.r().stats().epochs_advanced, before + 2) << name;
    EXPECT_EQ(w.r().stats().freed, 8u) << name;

    hs.clear();
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

// EBR: a handle that departs (without quiescing further) must not pin
// the epoch for the survivors. A pinned survivor holds the second
// advance back while the departing handle seals its two bags, so both
// park unsafe and the survivors have a reason to advance.
TEST(HandleLifecycle, EpochKeepsAdvancingAfterDeparture) {
  for (const char* name : {"debra", "qsbr", "rcu"}) {
    LifecycleWorld w(name, /*threads=*/3, /*batch=*/4);
    smr::ThreadHandle h0 = w.r().register_thread();
    smr::ThreadHandle h1 = w.r().register_thread();
    {
      smr::Guard pin(h0);
      smr::ThreadHandle departing = w.r().register_thread();
      for (int i = 0; i < 8; ++i) {
        smr::Guard g(departing);
        g.retire(w.r().alloc_node(departing, 64));
      }
    }  // departs with both bags parked, then the pin drops
    ASSERT_GT(w.r().stats().pending, 0u)
        << name << ": the pin should have kept a bag unsafe";

    const std::uint64_t before = w.r().stats().epochs_advanced;
    for (int i = 0; i < 2000; ++i) {
      smr::Guard g0(h0);
      smr::Guard g1(h1);
    }
    EXPECT_GT(w.r().stats().epochs_advanced, before)
        << name << ": departed handle pinned the epoch";

    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

// Destroying a structure while every registration slot is held must
// not throw out of the destructor (std::terminate): the TeardownCursor
// degrades to the handle-less teardown lane.
TEST(HandleLifecycle, StructureTeardownSurvivesExhaustedSlotTable) {
  for (const std::string& ds_name : ds::set_names()) {
    LifecycleWorld w("debra", /*threads=*/2);
    ds::SetConfig dcfg;
    dcfg.keyrange = 64;
    dcfg.num_threads = 2;
    std::unique_ptr<ds::ConcurrentSet> set =
        ds::make_set(ds_name, dcfg, &w.r());

    std::vector<smr::ThreadHandle> handles;
    handles.push_back(w.r().register_thread());
    for (std::uint64_t k = 0; k < 64; k += 2) set->insert(handles[0], k);
    while (w.r().active_slots() < w.r().slot_capacity()) {
      handles.push_back(w.r().register_thread());
    }

    set.reset();  // full table: the cursor's register fails, no throw
    handles.clear();
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << ds_name;
    EXPECT_EQ(w.allocator.live(), 0u) << ds_name;
  }
}

// ------------------------------------------------------- churn stress

// Register/deregister churn racing live guarded traversals: four
// workers repeatedly register, run guarded ops on a shared lock-free
// structure (retiring nodes), and deregister while the other threads
// are mid-traversal. The TSAN build in ci/check.sh runs exactly this
// filter; the tracking allocator asserts on double/foreign frees, and
// the epoch beat must keep advancing throughout (the acceptance
// criterion for departed threads).
TEST(HandleChurnStress, RegisterDeregisterRacesGuardedTraversals) {
  // debra_adaptive/ibr_adaptive put the AdaptiveFreeSchedule and the
  // executor's lane-stats counters under the same register/deregister
  // fire (the TSAN pass the adaptive controller is gated on).
  for (const char* reclaimer : {"debra", "hp", "ibr", "nbr", "token_af",
                                "debra_adaptive", "ibr_adaptive"}) {
    constexpr int kWorkers = 4;
    constexpr std::uint64_t kKeyrange = 128;
    TrackingAllocator allocator;
    smr::SmrContext ctx;
    ctx.allocator = &allocator;
    smr::SmrConfig cfg;
    cfg.num_threads = kWorkers;
    cfg.batch_size = 8;
    cfg.epoch_freq = 16;
    smr::ReclaimerBundle bundle = smr::make_reclaimer(reclaimer, ctx, cfg);
    ds::SetConfig dcfg;
    dcfg.keyrange = kKeyrange;
    dcfg.num_threads = kWorkers;
    {
      std::unique_ptr<ds::ConcurrentSet> set =
          ds::make_set("dgt", dcfg, bundle.reclaimer.get());
      {
        smr::ThreadHandle h = bundle.reclaimer->register_thread();
        for (std::uint64_t k = 0; k < kKeyrange; k += 2) set->insert(h, k);
      }

      const std::uint64_t epochs_before =
          bundle.reclaimer->stats().epochs_advanced;
      std::vector<std::thread> threads;
      for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
          Rng rng(500 + w);
          for (int round = 0; round < 30; ++round) {
            // A fresh registration per round: deregistration below runs
            // while the other workers are mid-traversal.
            smr::ThreadHandle h = bundle.reclaimer->register_thread();
            for (int i = 0; i < 120; ++i) {
              const std::uint64_t key = rng.next_range(kKeyrange);
              switch (rng.next_range(3)) {
                case 0:
                  set->insert(h, key);
                  break;
                case 1:
                  set->erase(h, key);
                  break;
                default:
                  set->contains(h, key);
                  break;
              }
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      EXPECT_GT(bundle.reclaimer->stats().epochs_advanced, epochs_before)
          << reclaimer << ": churned departures pinned the progress beat";
      EXPECT_EQ(bundle.reclaimer->active_slots(), 0u) << reclaimer;
    }
    bundle.reclaimer->flush_all();
    EXPECT_EQ(bundle.reclaimer->stats().pending, 0u) << reclaimer;
    EXPECT_EQ(bundle.reclaimer->executor().backlog(), 0u) << reclaimer;
    EXPECT_EQ(allocator.live(), 0u) << reclaimer;
    EXPECT_EQ(allocator.allocs(), allocator.frees()) << reclaimer;
  }
}

}  // namespace
