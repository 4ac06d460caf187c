// google-benchmark micro suite for the allocator models: local
// allocate/free pairs, remote frees, tcache flush cost, and the mimalloc
// cross-thread push (Appendix B mechanics).
//
// `--smoke` bypasses google-benchmark entirely and runs a deterministic
// counter-only sweep over every factory name — fixed loop counts, no
// timing in the output — so CI can (a) gate allocator accounting on
// every name and (b) diff two runs byte-for-byte as the EMR_PIN=off
// determinism gate (ci/check.sh).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/factory.hpp"

namespace {

using emr::alloc::AllocConfig;
using emr::alloc::Allocator;
using emr::alloc::make_allocator;

AllocConfig cfg_for(int threads) {
  AllocConfig cfg;
  cfg.max_threads = threads;
  return cfg;
}

void BM_LocalAllocFree(benchmark::State& state, const char* name) {
  auto a = make_allocator(name, cfg_for(2));
  for (auto _ : state) {
    void* p = a->allocate(0, 240);
    benchmark::DoNotOptimize(p);
    a->deallocate(0, p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_LocalAllocFree, je, "je");
BENCHMARK_CAPTURE(BM_LocalAllocFree, tc, "tc");
BENCHMARK_CAPTURE(BM_LocalAllocFree, mi, "mi");
BENCHMARK_CAPTURE(BM_LocalAllocFree, system, "system");

// Remote pattern: thread 0 allocates, thread 1 frees (measured side).
void BM_RemoteFree(benchmark::State& state, const char* name) {
  auto a = make_allocator(name, cfg_for(2));
  std::vector<void*> stash;
  stash.reserve(4096);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 1024; ++i) stash.push_back(a->allocate(0, 240));
    state.ResumeTiming();
    for (void* p : stash) a->deallocate(1, p);
    stash.clear();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK_CAPTURE(BM_RemoteFree, je, "je");
BENCHMARK_CAPTURE(BM_RemoteFree, tc, "tc");
BENCHMARK_CAPTURE(BM_RemoteFree, mi, "mi");

// Batched remote free (the RBF pattern) vs spread-out remote free on the
// JE model: the batched variant repeatedly overflows the tcache.
void BM_BatchedRemoteFree(benchmark::State& state) {
  auto a = make_allocator("je", cfg_for(2));
  std::vector<void*> stash;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 4096; ++i) stash.push_back(a->allocate(0, 240));
    state.ResumeTiming();
    for (void* p : stash) a->deallocate(1, p);  // one huge batch
    stash.clear();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BatchedRemoteFree);

void BM_AmortizedRemoteFree(benchmark::State& state) {
  auto a = make_allocator("je", cfg_for(2));
  std::vector<void*> stash;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 4096; ++i) stash.push_back(a->allocate(0, 240));
    state.ResumeTiming();
    // Interleave frees with allocations: the tcache recycles locally.
    for (void* p : stash) {
      a->deallocate(1, p);
      void* q = a->allocate(1, 240);
      benchmark::DoNotOptimize(q);
      a->deallocate(1, q);
    }
    stash.clear();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AmortizedRemoteFree);

// ---------------------------------------------------------------------
// --smoke: deterministic counter-only sweep. No timing appears in the
// output, so two runs under EMR_PIN=off with model allocators must be
// byte-identical — ci/check.sh diffs them as the determinism gate. Each
// name must keep exact books.

int smoke_one(const std::string& name) {
  constexpr int kLocal = 512;    // local allocate/free pairs on tid 0
  constexpr int kRemote = 256;   // tid 0 allocates, tid 1 frees (classed)
  constexpr int kLarge = 32;     // >4096 B: bypasses caches, never remote
  constexpr std::size_t kSmall = 240;
  constexpr std::size_t kBig = 8192;

  auto a = make_allocator(name, cfg_for(2));
  std::vector<void*> stash;
  stash.reserve(kRemote);

  for (int i = 0; i < kLocal; ++i) {
    void* p = a->allocate(0, kSmall);
    if (p == nullptr) return 1;
    a->deallocate(0, p);
  }
  for (int i = 0; i < kRemote; ++i) stash.push_back(a->allocate(0, kSmall));
  for (void* p : stash) a->deallocate(1, p);
  stash.clear();
  for (int i = 0; i < kLarge; ++i) stash.push_back(a->allocate(0, kBig));
  for (void* p : stash) a->deallocate(1, p);  // cross-tid but large: bypass
  stash.clear();

  const emr::alloc::AllocTotals t = a->stats().totals;
  const std::uint64_t expect_n = kLocal + kRemote + kLarge;
  bool ok = t.n_alloc == expect_n && t.n_free == expect_n &&
            t.n_remote_free == kRemote;
  std::printf("%-9s alloc=%llu free=%llu remote=%llu %s\n", name.c_str(),
              static_cast<unsigned long long>(t.n_alloc),
              static_cast<unsigned long long>(t.n_free),
              static_cast<unsigned long long>(t.n_remote_free),
              ok ? "ok" : "MISMATCH");
  if (!ok) {
    std::fprintf(stderr,
                 "bench_micro_alloc: '%s' accounting mismatch: expected "
                 "alloc=free=%llu remote=%d\n",
                 name.c_str(), static_cast<unsigned long long>(expect_n),
                 kRemote);
    return 1;
  }
  return 0;
}

int run_smoke() {
  int rc = 0;
  for (const std::string& name : emr::alloc::allocator_names()) {
    rc |= smoke_one(name);
  }
  std::printf("smoke: %zu allocator(s) checked\n",
              emr::alloc::allocator_names().size());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
