// google-benchmark micro suite for reclaimer primitives: begin/end op
// overhead per algorithm, the retire-to-free pipeline cost, and guarded
// ops on three threads that share one reclaimer.
//
// `bench_micro_smr --smoke` runs a correctness smoke instead: every
// factory name (all bases x batch/_af/_pool schedules) is constructed
// and driven through an alloc/protect/retire/flush cycle, accounting is
// checked, and the run fails if any pointer-protecting name reports the
// "ebr" implementation family — i.e. if it quietly fell back to epoch
// aliasing. ci/check.sh runs this after the unit suites.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc/factory.hpp"
#include "smr/factory.hpp"

namespace {

using namespace emr;

struct MicroWorld {
  std::unique_ptr<alloc::Allocator> allocator;
  smr::SmrContext ctx;
  smr::SmrConfig cfg;
  smr::ReclaimerBundle bundle;
  std::vector<smr::ThreadHandle> handles;

  explicit MicroWorld(const std::string& name, int threads = 2,
                      std::size_t batch = 256) {
    cfg.num_threads = threads;
    cfg.batch_size = batch;
    alloc::AllocConfig acfg;
    acfg.max_threads = static_cast<int>(cfg.slot_capacity());
    allocator = alloc::make_allocator("je", acfg);
    ctx.allocator = allocator.get();
    bundle = smr::make_reclaimer(name, ctx, cfg);
    // The single-threaded bench loops multiplex the lanes' handles.
    for (int t = 0; t < cfg.num_threads; ++t) {
      handles.push_back(bundle.reclaimer->register_thread());
    }
  }

  smr::ThreadHandle& h(int t) { return handles[static_cast<std::size_t>(t)]; }
};

void* load_ptr(const void* s) {
  return static_cast<const std::atomic<void*>*>(s)->load(
      std::memory_order_acquire);
}

void BM_BeginEndOp(benchmark::State& state, const char* name) {
  MicroWorld w(name);
  smr::Reclaimer& r = *w.bundle.reclaimer;
  for (auto _ : state) {
    r.begin_op(w.h(0));
    r.end_op(w.h(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_BeginEndOp, none, "none");
BENCHMARK_CAPTURE(BM_BeginEndOp, debra, "debra");
BENCHMARK_CAPTURE(BM_BeginEndOp, qsbr, "qsbr");
BENCHMARK_CAPTURE(BM_BeginEndOp, rcu, "rcu");
BENCHMARK_CAPTURE(BM_BeginEndOp, token, "token");
BENCHMARK_CAPTURE(BM_BeginEndOp, hp, "hp");
BENCHMARK_CAPTURE(BM_BeginEndOp, he, "he");
BENCHMARK_CAPTURE(BM_BeginEndOp, ibr, "ibr");
BENCHMARK_CAPTURE(BM_BeginEndOp, wfe, "wfe");
BENCHMARK_CAPTURE(BM_BeginEndOp, nbr, "nbr");
BENCHMARK_CAPTURE(BM_BeginEndOp, nbrplus, "nbrplus");

void BM_ProtectLoad(benchmark::State& state, const char* name) {
  MicroWorld w(name);
  smr::Reclaimer& r = *w.bundle.reclaimer;
  void* node = r.alloc_node(w.h(0), 64);
  std::atomic<void*> src{node};
  r.begin_op(w.h(0));
  for (auto _ : state) {
    void* p = r.protect(w.h(0), 0, load_ptr, &src);
    benchmark::DoNotOptimize(p);
  }
  r.end_op(w.h(0));
  r.dealloc_unpublished(w.h(0), node);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ProtectLoad, debra, "debra");
BENCHMARK_CAPTURE(BM_ProtectLoad, hp, "hp");
BENCHMARK_CAPTURE(BM_ProtectLoad, he, "he");
BENCHMARK_CAPTURE(BM_ProtectLoad, ibr, "ibr");
BENCHMARK_CAPTURE(BM_ProtectLoad, wfe, "wfe");
BENCHMARK_CAPTURE(BM_ProtectLoad, nbr, "nbr");

void BM_RetirePipeline(benchmark::State& state, const char* name) {
  MicroWorld w(name);
  smr::Reclaimer& r = *w.bundle.reclaimer;
  for (auto _ : state) {
    r.begin_op(w.h(0));
    r.retire(w.h(0), r.alloc_node(w.h(0), 240));
    r.end_op(w.h(0));
    r.begin_op(w.h(1));  // second lane keeps epochs moving
    r.end_op(w.h(1));
  }
  r.flush_all();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_RetirePipeline, debra, "debra");
BENCHMARK_CAPTURE(BM_RetirePipeline, debra_af, "debra_af");
BENCHMARK_CAPTURE(BM_RetirePipeline, token, "token");
BENCHMARK_CAPTURE(BM_RetirePipeline, token_af, "token_af");
BENCHMARK_CAPTURE(BM_RetirePipeline, qsbr, "qsbr");
BENCHMARK_CAPTURE(BM_RetirePipeline, ibr, "ibr");
BENCHMARK_CAPTURE(BM_RetirePipeline, hp, "hp");
BENCHMARK_CAPTURE(BM_RetirePipeline, nbr, "nbr");

/// One guarded op that allocates and retires a 240 B node (an abtree
/// leaf) on every `retire_every`-th call.
void guarded_op(smr::Reclaimer& r, smr::ThreadHandle& h, std::uint64_t i,
                std::uint64_t retire_every) {
  smr::Guard g(h);
  if (i % retire_every == 0) g.retire(r.alloc_node(h, 240));
}

/// Three threads run guarded ops on one bundle at the paper's batch of
/// 2048, retiring every `retire_every` ops: 22 is abtree_readmostly's
/// update rate, 2 abtree_batch's. The timed loop is one of the three;
/// its two peers (spawned here, since the bundled stub runner has no
/// ->Threads) run the same loop until it ends. Whatever an op end reads
/// of the peers' cache lines shows up in the timed ns per op.
void BM_ContendedGuards(benchmark::State& state, const char* name,
                        std::uint64_t retire_every) {
  constexpr int kThreads = 3;
  MicroWorld w(name, kThreads, /*batch=*/2048);
  smr::Reclaimer& r = *w.bundle.reclaimer;
  std::atomic<bool> stop{false};
  std::vector<std::thread> peers;
  for (int t = 1; t < kThreads; ++t) {
    peers.emplace_back([&, t] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        guarded_op(r, w.h(t), i, retire_every);
      }
    });
  }
  std::uint64_t i = 0;
  for (auto _ : state) guarded_op(r, w.h(0), i++, retire_every);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& p : peers) p.join();
  r.flush_all();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ContendedGuards, debra_retire_every22, "debra", 22);
BENCHMARK_CAPTURE(BM_ContendedGuards, debra_retire_every2, "debra", 2);
BENCHMARK_CAPTURE(BM_ContendedGuards, qsbr_retire_every22, "qsbr", 22);
BENCHMARK_CAPTURE(BM_ContendedGuards, qsbr_retire_every2, "qsbr", 2);
BENCHMARK_CAPTURE(BM_ContendedGuards, rcu_retire_every22, "rcu", 22);
BENCHMARK_CAPTURE(BM_ContendedGuards, rcu_retire_every2, "rcu", 2);

// --------------------------------------------------------------- smoke

bool is_pointer_scheme(const std::string& base) {
  return base == "hp" || base == "he" || base == "ibr" || base == "wfe" ||
         base == "nbr" || base == "nbrplus";
}

/// Drives one scheme through 512 alloc/protect/retire ops on two
/// registered handles — re-registering the second lane's handle midway
/// so every scheme's departure hand-off runs — and checks the
/// accounting closes. Returns false on any violation.
bool smoke_one(const std::string& name) {
  MicroWorld w(name);
  smr::Reclaimer& r = *w.bundle.reclaimer;
  constexpr std::uint64_t kOps = 512;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    r.begin_op(w.h(0));
    void* p = r.alloc_node(w.h(0), 64);
    std::atomic<void*> src{p};
    void* q = r.protect(w.h(0), static_cast<int>(i % 8), load_ptr, &src);
    r.retire(w.h(0), q);
    r.end_op(w.h(0));
    r.begin_op(w.h(1));
    r.end_op(w.h(1));
    if (i == kOps / 2) {
      // Churn lane 1: release mid-run and register a replacement.
      w.handles[1] = r.register_thread();
    }
  }
  r.flush_all();
  const smr::SmrStats st = r.stats();

  const bool aliased = is_pointer_scheme(smr::parse_reclaimer(name).scheme) &&
                       std::strcmp(r.family(), "ebr") == 0;
  const bool accounted =
      st.retired == kOps && st.freed == kOps && st.pending == 0;

  std::printf("%-20s family=%-6s retired=%-5llu freed=%-5llu %s%s\n",
              name.c_str(), r.family(),
              static_cast<unsigned long long>(st.retired),
              static_cast<unsigned long long>(st.freed),
              accounted ? "ok" : "ACCOUNTING-LEAK",
              aliased ? " EBR-ALIAS" : "");
  return accounted && !aliased;
}

int run_smoke() {
  bool ok = true;
  for (const std::string& name : smr::all_factory_names()) {
    ok &= smoke_one(name);
  }
  std::printf("bench_micro_smr --smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
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
