// Reclaimer invariants: retire->flush accounting (exactly-once frees),
// batch-size deferral, bounded asynchronous-free lag, pooling recycling,
// and factory coverage across every name the benches use.
#include <gtest/gtest.h>

#include <vector>

#include "smr/factory.hpp"
#include "smr/free_executor.hpp"
#include "tests/tracking_allocator.hpp"

namespace {

using namespace emr;
using test::TrackingAllocator;

struct World {
  TrackingAllocator allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  // One registered handle per logical lane; the single-threaded tests
  // multiplex them (legal: one thread at a time per handle).
  std::vector<smr::ThreadHandle> handles;

  explicit World(const std::string& name, std::size_t batch = 8,
                 std::size_t drain = 1, int threads = 2) {
    ctx.allocator = &allocator;
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    cfg.af_drain_per_op = drain;
    bundle = smr::make_reclaimer(name, ctx, cfg);
    for (int t = 0; t < threads; ++t) {
      handles.push_back(r().register_thread());
    }
  }

  smr::Reclaimer& r() { return *bundle.reclaimer; }
  smr::ThreadHandle& h(int t) {
    return handles[static_cast<std::size_t>(t)];
  }

  /// One no-op operation on each handle: lets epochs advance and the AF
  /// executor drain.
  void tick() {
    for (int t = 0; t < cfg.num_threads; ++t) {
      r().begin_op(h(t));
      r().end_op(h(t));
    }
  }

  void retire_nodes(int tid, int n, std::size_t size = 64) {
    for (int i = 0; i < n; ++i) {
      r().begin_op(h(tid));
      r().retire(h(tid), r().alloc_node(h(tid), size));
      r().end_op(h(tid));
    }
  }
};

TEST(SmrAccounting, RetireFlushFreesExactlyOnce) {
  for (const char* name : {"debra", "qsbr", "token", "hp", "none"}) {
    World w(name);
    w.retire_nodes(0, 100);
    w.r().flush_all();
    const smr::SmrStats st = w.r().stats();
    EXPECT_EQ(st.retired, 100u) << name;
    EXPECT_EQ(st.freed, 100u) << name;
    EXPECT_EQ(st.pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;  // exactly-once, no leaks
  }
}

TEST(SmrAccounting, AfVariantsFlushEverything) {
  for (const std::string& base : smr::experiment2_reclaimers()) {
    World w(base + "_af");
    w.retire_nodes(0, 50);
    w.r().flush_all();
    const smr::SmrStats st = w.r().stats();
    EXPECT_EQ(st.retired, 50u) << base;
    EXPECT_EQ(st.freed, 50u) << base;
    EXPECT_EQ(w.allocator.live(), 0u) << base;
  }
}

TEST(SmrBatching, BatchThresholdDefersFrees) {
  // With batch_size=64, nothing may reach the allocator until a bag fills
  // (and epochs pass), no matter how many quiescent rounds go by.
  World w("debra", /*batch=*/64);
  w.retire_nodes(0, 63);
  for (int i = 0; i < 32; ++i) w.tick();
  EXPECT_EQ(w.r().stats().freed, 0u);
  EXPECT_EQ(w.r().stats().pending, 63u);

  // Crossing the threshold seals the bag; two epoch advances later the
  // whole bag is freed at once.
  w.retire_nodes(0, 1);
  for (int i = 0; i < 64; ++i) w.tick();
  EXPECT_EQ(w.r().stats().freed, 64u);
  EXPECT_EQ(w.r().stats().pending, 0u);
}

TEST(SmrBatching, LeakingReclaimerNeverFreesUntilFlush) {
  World w("none", /*batch=*/8);
  w.retire_nodes(0, 200);
  for (int i = 0; i < 100; ++i) w.tick();
  EXPECT_EQ(w.r().stats().freed, 0u);
  EXPECT_EQ(w.r().stats().pending, 200u);
  w.r().flush_all();
  EXPECT_EQ(w.r().stats().pending, 0u);
}

TEST(SmrAmortized, DrainRateBoundsFreesPerOp) {
  // Fill one bag, let it become reclaimable, then count frees per op.
  const std::size_t kBatch = 32;
  const std::size_t kDrain = 4;
  World w("debra_af", kBatch, kDrain);
  w.retire_nodes(0, static_cast<int>(kBatch));
  for (int i = 0; i < 64; ++i) w.tick();  // bag reaches the lane backlog

  const std::uint64_t before = w.r().stats().freed;
  w.r().begin_op(w.h(0));
  w.r().end_op(w.h(0));
  const std::uint64_t after = w.r().stats().freed;
  EXPECT_LE(after - before, kDrain);
}

TEST(SmrAmortized, BacklogDrainsWithBoundedLag) {
  // Once a bag is freeable, at most ceil(batch/drain) further ops may
  // pass before the backlog is empty.
  const std::size_t kBatch = 32;
  const std::size_t kDrain = 4;
  World w("debra_af", kBatch, kDrain);
  w.retire_nodes(0, static_cast<int>(kBatch));
  // Epoch grace: a few collective rounds seal + age the bag.
  for (int i = 0; i < 16; ++i) w.tick();
  // Lag bound: batch/drain ops on the owning thread drain everything.
  for (std::size_t i = 0; i < kBatch / kDrain + 1; ++i) {
    w.r().begin_op(w.h(0));
    w.r().end_op(w.h(0));
  }
  EXPECT_EQ(w.r().stats().freed, kBatch);
  EXPECT_EQ(w.r().executor().backlog(), 0u);
}

TEST(SmrPooling, PoolRecyclesRetiredNodes) {
  World w("debra_pool", /*batch=*/8);
  w.retire_nodes(0, 64);
  for (int i = 0; i < 64; ++i) w.tick();

  auto* pool =
      dynamic_cast<smr::PoolingFreeExecutor*>(&w.r().executor());
  ASSERT_NE(pool, nullptr);
  const std::uint64_t allocs_before = w.allocator.allocs();
  const std::uint64_t pooled_before = pool->total_pooled_allocs();
  for (int i = 0; i < 16; ++i) {
    w.r().begin_op(w.h(0));
    void* p = w.r().alloc_node(w.h(0), 64);
    w.r().retire(w.h(0), p);
    w.r().end_op(w.h(0));
  }
  const std::uint64_t pooled = pool->total_pooled_allocs() - pooled_before;
  EXPECT_GT(pooled, 0u);
  EXPECT_LT(w.allocator.allocs() - allocs_before, 16u);
  // Every node came from exactly one source: the pool or the allocator.
  EXPECT_EQ(pooled + (w.allocator.allocs() - allocs_before), 16u);
  w.r().flush_all();
  EXPECT_EQ(w.allocator.live(), 0u);
}

TEST(SmrTokens, TokenVariantsAccountExactly) {
  for (const char* name :
       {"token_naive", "token_passfirst", "token", "token_af"}) {
    World w(name, /*batch=*/8);
    w.retire_nodes(0, 40);
    w.retire_nodes(1, 40);
    for (int i = 0; i < 32; ++i) w.tick();
    w.r().flush_all();
    const smr::SmrStats st = w.r().stats();
    EXPECT_EQ(st.retired, 80u) << name;
    EXPECT_EQ(st.freed, 80u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

TEST(SmrProtect, ProtectReturnsTheLoadedPointer) {
  for (const char* name : {"debra", "hp", "ibr", "token"}) {
    World w(name);
    void* node = w.r().alloc_node(w.h(0), 64);
    std::atomic<void*> src{node};
    w.r().begin_op(w.h(0));
    void* p = w.r().protect(
        w.h(0), 0,
        [](const void* s) {
          return static_cast<const std::atomic<void*>*>(s)->load(
              std::memory_order_acquire);
        },
        &src);
    w.r().end_op(w.h(0));
    EXPECT_EQ(p, node) << name;
    w.r().dealloc_unpublished(w.h(0), node);
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

TEST(SmrFactory, UnknownNameThrows) {
  World dummy("debra");  // borrow a valid ctx
  smr::SmrContext ctx;
  ctx.allocator = &dummy.allocator;
  smr::SmrConfig cfg;
  EXPECT_THROW(smr::make_reclaimer("bogus", ctx, cfg),
               std::invalid_argument);
  EXPECT_THROW(smr::make_reclaimer("", ctx, cfg), std::invalid_argument);
  smr::SmrContext no_alloc;
  EXPECT_THROW(smr::make_reclaimer("debra", no_alloc, cfg),
               std::invalid_argument);
}

TEST(SmrFactory, EveryBenchNameConstructs) {
  std::vector<std::string> names = {"none", "token_naive",
                                    "token_passfirst"};
  for (const std::string& base : smr::experiment2_reclaimers()) {
    names.push_back(base);
    names.push_back(base + "_af");
  }
  names.push_back("debra_pool");
  names.push_back("token_pool");
  for (const std::string& name : names) {
    World w(name);
    w.retire_nodes(0, 10);
    w.r().flush_all();
    EXPECT_EQ(w.r().stats().pending, 0u) << name;
    EXPECT_EQ(w.allocator.live(), 0u) << name;
  }
}

}  // namespace
