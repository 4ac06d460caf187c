// Scheme-faithfulness suite, parameterized over every factory name the
// benches can ask for: a node that a reader currently protects is never
// handed to the free schedule (not freed, not pool-recycled), every
// retired node is freed at teardown, and the pointer-protecting names
// resolve to their own families rather than aliasing the epoch
// machinery. Scheme-specific behaviours (HP scan partitioning, era
// grace, WFE's bounded protect, NBR neutralization) get their own cases
// at the bottom.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "smr/factory.hpp"
#include "smr/internal.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

void* load_ptr(const void* s) {
  return static_cast<const std::atomic<void*>*>(s)->load(
      std::memory_order_acquire);
}

struct SchemeWorld {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  std::vector<smr::ThreadHandle> handles;

  explicit SchemeWorld(const std::string& name, std::size_t batch = 8,
                       int threads = 2) {
    ctx.allocator = &allocator;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.af_drain_per_op = 4;
    cfg.epoch_freq = 16;  // advance the era clock within small tests
    bundle = smr::make_reclaimer(name, ctx, cfg);
    for (int t = 0; t < threads; ++t) {
      handles.push_back(r().register_thread());
    }
  }

  smr::Reclaimer& r() { return *bundle.reclaimer; }
  smr::ThreadHandle& h(int t) {
    return handles[static_cast<std::size_t>(t)];
  }
};

class SmrSchemeTest : public ::testing::TestWithParam<std::string> {};

// smr::all_factory_names() is the factory's own single source of truth
// for every constructible name (bases x the suffix grammar), so new
// names are covered here automatically.
INSTANTIATE_TEST_SUITE_P(
    AllFactoryNames, SmrSchemeTest,
    ::testing::ValuesIn(smr::all_factory_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The core protection invariant: thread 0 protects a node mid-op;
// thread 1 unlinks and retires that node, then churns hard enough to
// drive scans, epoch advances, token passes and executor drains. The
// protected node must survive all of it — and must not be served back
// out of the pool either — until the protector's operation ends. After
// teardown every retired node must have been freed exactly once.
TEST_P(SmrSchemeTest, NoFreeWhileProtectedAndAllFreedAtTeardown) {
  const std::string name = GetParam();
  SchemeWorld w(name);

  void* x = w.r().alloc_node(w.h(0), 64);
  std::atomic<void*> src{x};
  w.r().begin_op(w.h(0));
  ASSERT_EQ(w.r().protect(w.h(0), 0, load_ptr, &src), x) << name;

  // Lane 1 "unlinks" x and retires it, then churns.
  w.r().begin_op(w.h(1));
  w.r().retire(w.h(1), x);
  w.r().end_op(w.h(1));
  for (int i = 0; i < 400; ++i) {
    w.r().begin_op(w.h(1));
    void* p = w.r().alloc_node(w.h(1), 64);
    EXPECT_NE(p, x) << name << ": protected node served out of the pool";
    w.r().retire(w.h(1), p);
    w.r().end_op(w.h(1));
  }

  EXPECT_EQ(w.allocator.freed_count(x), 0u)
      << name << ": node freed while a reader still protects it";

  w.r().end_op(w.h(0));
  w.r().flush_all();
  const smr::SmrStats st = w.r().stats();
  EXPECT_EQ(st.retired, 401u) << name;
  EXPECT_EQ(st.pending, 0u) << name;
  EXPECT_EQ(w.allocator.live(), 0u) << name;
}

// Protection slots are per-(tid, idx): releasing one thread's op leaves
// other retires reclaimable, and repeated protect calls on many slots
// never confuse the accounting.
TEST_P(SmrSchemeTest, MultiSlotTraversalAccountsExactly) {
  const std::string name = GetParam();
  SchemeWorld w(name);

  for (int round = 0; round < 8; ++round) {
    w.r().begin_op(w.h(0));
    std::vector<void*> nodes;
    for (int i = 0; i < 12; ++i) {
      void* p = w.r().alloc_node(w.h(0), 64);
      std::atomic<void*> src{p};
      EXPECT_EQ(w.r().protect(w.h(0), i, load_ptr, &src), p) << name;
      nodes.push_back(p);
    }
    w.r().end_op(w.h(0));
    w.r().begin_op(w.h(1));
    for (void* p : nodes) w.r().retire(w.h(1), p);
    w.r().end_op(w.h(1));
  }
  w.r().flush_all();
  const smr::SmrStats st = w.r().stats();
  EXPECT_EQ(st.retired, 96u) << name;
  EXPECT_EQ(st.pending, 0u) << name;
  EXPECT_EQ(w.allocator.live(), 0u) << name;
}

// The anti-aliasing check the CI smoke also enforces: every pointer-
// protecting name must resolve to its own implementation family.
TEST(SmrFamilies, PointerSchemesAreNotEbrAliases) {
  const struct {
    const char* name;
    const char* family;
  } kExpected[] = {
      {"none", "ebr"},     {"qsbr", "ebr"},     {"rcu", "ebr"},
      {"debra", "ebr"},    {"token", "token"},  {"token_naive", "token"},
      {"token_passfirst", "token"},             {"hp", "hp"},
      {"he", "era"},       {"ibr", "era"},      {"wfe", "era"},
      {"nbr", "nbr"},      {"nbrplus", "nbr"},
  };
  for (const auto& e : kExpected) {
    SchemeWorld w(e.name);
    EXPECT_STREQ(w.r().family(), e.family) << e.name;
    EXPECT_STREQ(w.r().name(), e.name);
  }
  for (const char* name : {"hp", "he", "ibr", "wfe", "nbr", "nbrplus"}) {
    SchemeWorld w(name);
    EXPECT_STRNE(w.r().family(), "ebr")
        << name << " fell back to EBR aliasing";
  }
}

// Suffixed forms of the fixed token variants are outside the name
// grammar (and outside all_factory_names()' coverage), so the factory
// must refuse them instead of constructing untested combinations.
// Nor is `_latency` a suffix, with or without `_hf`.
TEST(SmrFamilies, FixedTokenVariantsTakeNoSuffix) {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  ctx.allocator = &allocator;
  smr::SmrConfig cfg;
  for (const char* name :
       {"token_naive_af", "token_naive_pool", "token_naive_adaptive",
        "token_passfirst_af", "token_passfirst_pool",
        "token_passfirst_adaptive", "hp_latency_hf", "token_latency_hf",
        "debra_latency", "token_latency", "hp_latency"}) {
    EXPECT_THROW(smr::make_reclaimer(name, ctx, cfg),
                 std::invalid_argument)
        << name;
  }
}

// HP partitions a full retire list in one scan: everything except the
// hazarded node reaches the allocator immediately, with no epoch grace.
TEST(SmrHp, ScanFreesUnprotectedImmediately) {
  SchemeWorld w("hp", /*batch=*/8);
  void* x = w.r().alloc_node(w.h(0), 64);
  std::atomic<void*> src{x};
  w.r().begin_op(w.h(0));
  w.r().protect(w.h(0), 0, load_ptr, &src);

  w.r().begin_op(w.h(1));
  w.r().retire(w.h(1), x);
  // Push past the scan threshold (batch floored at N*K+1 hazards).
  for (int i = 0; i < 96; ++i) {
    w.r().retire(w.h(1), w.r().alloc_node(w.h(1), 64));
  }
  w.r().end_op(w.h(1));

  const smr::SmrStats st = w.r().stats();
  EXPECT_GT(st.freed, 0u) << "scan should free unprotected retires";
  EXPECT_EQ(w.allocator.freed_count(x), 0u);
  EXPECT_GE(st.epochs_advanced, 1u);  // counts scans for hp

  w.r().end_op(w.h(0));
  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// Era schemes only reclaim nodes whose [birth, retire] interval no
// reservation intersects; with no readers at all, a full bag drains on
// the next scan.
TEST(SmrEra, UnreservedIntervalsReclaimWithoutReaders) {
  for (const char* name : {"he", "ibr", "wfe"}) {
    SchemeWorld w(name, /*batch=*/16);
    for (int i = 0; i < 96; ++i) {
      w.r().begin_op(w.h(0));
      w.r().retire(w.h(0), w.r().alloc_node(w.h(0), 64));
      w.r().end_op(w.h(0));
    }
    EXPECT_GT(w.r().stats().freed, 0u) << name;
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

// WFE's fidelity caveat, pinned: where the paper's wait-free eras run a
// helper protocol, protect() re-validates at most kWfeValidateBound times
// and then publishes an open reservation [era at the call's start, +inf).
// A reader whose every load sees the era move returns after the bound;
// every node retired at or after that floor — including nodes a writer
// unlinks and retires while the reader spins — stays unfreed until the
// reader's end_op, and the next scan frees it.
TEST(SmrWfe, BoundedProtectFallsBackToAnOpenReservation) {
  constexpr int kBatch = 8;  // lane 1's scan threshold
  constexpr int kEarly = 2;
  // No scan may run before the floor is up: the early retires plus one
  // unlinked node per load stay below the threshold.
  static_assert(kEarly + smr::internal::kWfeValidateBound + 1 < kBatch);
  SchemeWorld w("wfe", kBatch);
  auto retire_on_lane1 = [&w](void* p) {
    w.r().begin_op(w.h(1));
    w.r().retire(w.h(1), p);
    w.r().end_op(w.h(1));
  };
  // Lane 1 allocates until the era ticks, keeping the nodes to retire
  // later: their retire eras land at or after any floor published before.
  std::vector<void*> born;
  auto tick = [&w, &born] {
    const std::uint64_t era = w.r().stats().epochs_advanced;
    while (w.r().stats().epochs_advanced == era) {
      born.push_back(w.r().alloc_node(w.h(1), 64));
    }
  };
  // Born before the reader's call; a writer unlinks one per load.
  std::vector<void*> unlinked(smr::internal::kWfeValidateBound + 1);
  for (void*& p : unlinked) p = w.r().alloc_node(w.h(1), 64);

  // Retired, then the era moves: below any floor published from here on.
  for (int i = 0; i < kEarly; ++i) {
    retire_on_lane1(w.r().alloc_node(w.h(1), 64));
  }
  ASSERT_EQ(w.r().stats().freed, 0u) << "no scan before the reader";
  tick();

  struct Source {
    std::atomic<void*> ptr;
    std::function<void()> on_load;
    mutable int loads = 0;
  };
  const smr::Reclaimer::LoadFn advancing = [](const void* src) -> void* {
    const auto* s = static_cast<const Source*>(src);
    ++s->loads;
    s->on_load();
    return s->ptr.load(std::memory_order_acquire);
  };
  void* x = w.r().alloc_node(w.h(0), 64);
  Source src{{x}, [&] {
               tick();
               if (unlinked.empty()) return;
               retire_on_lane1(unlinked.back());
               unlinked.pop_back();
             }};
  w.r().begin_op(w.h(0));
  EXPECT_EQ(w.r().protect(w.h(0), 0, advancing, &src), x);
  EXPECT_EQ(src.loads, smr::internal::kWfeValidateBound + 1)
      << "one load per failed attempt, then one under the open floor";

  // Everything lane 1 retires now has a retire era at or after the floor:
  // x, the nodes born while the reader spun, and enough fresh ones to
  // drive several scans. Only the early nodes may go.
  w.r().begin_op(w.h(1));
  w.r().retire(w.h(1), x);
  for (void* p : born) w.r().retire(w.h(1), p);
  for (int i = 0; i < 32; ++i) {
    w.r().retire(w.h(1), w.r().alloc_node(w.h(1), 64));
  }
  w.r().end_op(w.h(1));
  EXPECT_EQ(w.r().stats().freed, static_cast<std::uint64_t>(kEarly))
      << "a node retired at or after the open floor was freed";
  EXPECT_EQ(w.allocator.freed_count(x), 0u);

  // The reader's end_op drops the floor; the next scan frees everything.
  w.r().end_op(w.h(0));
  w.r().begin_op(w.h(1));
  for (int i = 0; i < 64 && w.r().stats().freed == kEarly; ++i) {
    w.r().retire(w.h(1), w.r().alloc_node(w.h(1), 64));
  }
  w.r().end_op(w.h(1));
  EXPECT_EQ(w.r().stats().pending, 0u);
  EXPECT_EQ(w.allocator.freed_count(x), 1u);

  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

// NBR's defining move: a neutralized reader that polls validate()
// learns its read block is dead, restarts at the current era and
// thereby abandons its claim on earlier retires — which then become
// freeable — while a reader that never polls keeps blocking them.
// (protect() itself never restarts: it must not invalidate the pointer
// it is about to return.)
TEST(SmrNbr, NeutralizedReaderRestartsAndUnblocksReclamation) {
  for (const char* name : {"nbr", "nbrplus"}) {
    SchemeWorld w(name, /*batch=*/8);
    void* x = w.r().alloc_node(w.h(0), 64);
    std::atomic<void*> src{x};

    w.r().begin_op(w.h(0));
    w.r().protect(w.h(0), 0, load_ptr, &src);

    // Churn: retires + era advances set lane 0's neutralize flag, but
    // until the reader polls validate() the old announcement stands.
    w.r().begin_op(w.h(1));
    w.r().retire(w.h(1), x);
    w.r().end_op(w.h(1));
    auto churn = [&w](int ops) {
      for (int i = 0; i < ops; ++i) {
        w.r().begin_op(w.h(1));
        w.r().retire(w.h(1), w.r().alloc_node(w.h(1), 64));
        w.r().end_op(w.h(1));
      }
    };
    churn(200);
    EXPECT_EQ(w.allocator.freed_count(x), 0u)
        << name << ": unacknowledged neutralization must not unprotect";

    // The reader polls: validate() reports the neutralization, restarts
    // the read block, and x's retire era falls out of every active
    // announcement on the next churn round.
    EXPECT_FALSE(w.r().validate(w.h(0)))
        << name << ": churn should have neutralized the reader";
    EXPECT_TRUE(w.r().validate(w.h(0)))
        << name << ": a restarted block validates cleanly again";
    churn(200);
    // freed_count, not is_live: the allocator may have recycled x's
    // address for a later churn node by the time we look.
    EXPECT_GE(w.allocator.freed_count(x), 1u)
        << name << ": restarted reader should unblock reclamation";

    w.r().end_op(w.h(0));
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

}  // namespace
