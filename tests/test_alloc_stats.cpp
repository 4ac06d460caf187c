// Allocator accounting across every factory name. The harness's %free /
// %flush / RBF numbers are only as good as these counters, so the
// invariants are asserted per name: alloc/free exactness, the
// remote-free attribution, and the >4096 B large-allocation bypass
// (large blocks skip the caches, so a cross-thread large free is not a
// remote free — there is no thread cache to miss).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/factory.hpp"

namespace {

using namespace emr;

class AllocStatsTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    alloc::AllocConfig cfg;
    cfg.max_threads = 4;
    a_ = alloc::make_allocator(GetParam(), cfg);
  }

  std::unique_ptr<alloc::Allocator> a_;
};

TEST_P(AllocStatsTest, AllocFreeCountersAreExact) {
  constexpr int kRounds = 257;  // deliberately not a power of two
  std::vector<void*> ptrs;
  for (int i = 0; i < kRounds; ++i) {
    void* p = a_->allocate(0, 240);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xAB, 240);  // the block must actually be writable
    ptrs.push_back(p);
  }
  for (void* p : ptrs) a_->deallocate(0, p);

  const alloc::AllocTotals t = a_->stats().totals;
  EXPECT_EQ(t.n_alloc, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(t.n_free, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(t.n_remote_free, 0u);  // same tid throughout
}

TEST_P(AllocStatsTest, RemoteFreeAttributionFollowsTheAllocatingThread) {
  constexpr int kRemote = 100;
  constexpr int kLocal = 50;
  std::vector<void*> ptrs;
  for (int i = 0; i < kRemote; ++i) ptrs.push_back(a_->allocate(0, 240));
  for (void* p : ptrs) a_->deallocate(1, p);  // freed by a foreign tid
  ptrs.clear();
  for (int i = 0; i < kLocal; ++i) ptrs.push_back(a_->allocate(2, 240));
  for (void* p : ptrs) a_->deallocate(2, p);  // home frees

  const alloc::AllocTotals t = a_->stats().totals;
  EXPECT_EQ(t.n_alloc, static_cast<std::uint64_t>(kRemote + kLocal));
  EXPECT_EQ(t.n_free, static_cast<std::uint64_t>(kRemote + kLocal));
  EXPECT_EQ(t.n_remote_free, static_cast<std::uint64_t>(kRemote));
}

TEST_P(AllocStatsTest, LargeAllocationsBypassRemoteAccounting) {
  // > 4096 B (the largest size class) goes straight to the OS path on
  // every allocator; freeing it from another thread must not count as a
  // remote free — there is no tcache involved to pay the RBF cost.
  constexpr int kLarge = 16;
  std::vector<void*> ptrs;
  for (int i = 0; i < kLarge; ++i) {
    void* p = a_->allocate(0, 8192);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xCD, 8192);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) a_->deallocate(3, p);  // cross-tid, but large

  const alloc::AllocTotals t = a_->stats().totals;
  EXPECT_EQ(t.n_alloc, static_cast<std::uint64_t>(kLarge));
  EXPECT_EQ(t.n_free, static_cast<std::uint64_t>(kLarge));
  EXPECT_EQ(t.n_remote_free, 0u);

  // The boundary itself: 4096 is still classed, 4097 is large.
  void* classed = a_->allocate(0, 4096);
  a_->deallocate(1, classed);
  void* large = a_->allocate(0, 4097);
  a_->deallocate(1, large);
  const alloc::AllocTotals t2 = a_->stats().totals;
  EXPECT_EQ(t2.n_remote_free, 1u);  // only the classed block counted
}

TEST_P(AllocStatsTest, MappedBytesTrackLiveMemory) {
  const std::uint64_t base_peak = a_->stats().peak_bytes_mapped;
  void* p = a_->allocate(0, 64 * 1024);  // large: mapped on demand
  ASSERT_NE(p, nullptr);
  const alloc::AllocStats mid = a_->stats();
  EXPECT_GE(mid.bytes_mapped, 64u * 1024u);
  EXPECT_GE(mid.peak_bytes_mapped, mid.bytes_mapped);
  a_->deallocate(0, p);
  const alloc::AllocStats after = a_->stats();
  // The large block is returned; current mapped drops back below the
  // peak, and the peak never decreases.
  EXPECT_LT(after.bytes_mapped, mid.bytes_mapped);
  EXPECT_GE(after.peak_bytes_mapped, base_peak);
  EXPECT_GE(after.peak_bytes_mapped, after.bytes_mapped);
}

INSTANTIATE_TEST_SUITE_P(
    AllNames, AllocStatsTest,
    ::testing::ValuesIn(alloc::allocator_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;  // je, tc, mi, system, je_model, ...
    });

}  // namespace
