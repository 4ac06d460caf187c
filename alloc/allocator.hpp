// Allocator model interface. The benches compare jemalloc-, tcmalloc- and
// mimalloc-shaped allocators: real memory comes from operator new, but the
// thread-cache / central-bin / remote-free mechanics (the machinery behind
// the paper's remote-batch-free pathology, section 3.2) are modelled here
// so the effect is measurable at laptop scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace emr::alloc {

struct AllocConfig {
  int max_threads = 1;
  /// Thread-cache capacity per size class, in blocks (jemalloc's
  /// tcache_max semantics, scaled down).
  std::size_t tcache_cap = 128;
  /// Fraction of the cache flushed to the central bin on overflow.
  double flush_fraction = 0.5;
  /// Modelled cost of returning a block to a remote thread's arena
  /// (stands in for the paper's cross-socket cache-line transfer).
  std::uint64_t remote_free_penalty_ns = 0;
  /// Read by nothing; kept only because emrbench/emr_bench.cpp assigns it.
  bool remote_penalty_explicit = false;
  /// Footnote-3 ablation: overflow blocks drain to the central bin a few
  /// at a time on later frees instead of in one locked burst.
  bool deferred_flush = false;
};

/// Monotonic operation counters, aggregated over all threads.
struct AllocTotals {
  std::uint64_t n_alloc = 0;
  std::uint64_t n_free = 0;
  std::uint64_t n_remote_free = 0;  // freed by a thread that didn't allocate
  std::uint64_t n_flush = 0;        // tcache overflow flush episodes
  std::uint64_t ns_in_free = 0;     // wall ns inside deallocate()
  std::uint64_t ns_in_flush = 0;    // subset of ns_in_free: flushing
  std::uint64_t ns_in_lock = 0;     // waiting on central-bin locks
};

struct AllocStats {
  AllocTotals totals;
  std::uint64_t bytes_mapped = 0;       // total bytes obtained from the OS
  std::uint64_t peak_bytes_mapped = 0;  // == bytes_mapped (monotone model)
};

/// The counter deltas between two snapshots, `after - before`. The peak
/// is a high-water mark, not a counter, so the later snapshot's stands.
inline AllocStats operator-(const AllocStats& after,
                            const AllocStats& before) {
  AllocStats d;
  d.totals.n_alloc = after.totals.n_alloc - before.totals.n_alloc;
  d.totals.n_free = after.totals.n_free - before.totals.n_free;
  d.totals.n_remote_free =
      after.totals.n_remote_free - before.totals.n_remote_free;
  d.totals.n_flush = after.totals.n_flush - before.totals.n_flush;
  d.totals.ns_in_free = after.totals.ns_in_free - before.totals.ns_in_free;
  d.totals.ns_in_flush = after.totals.ns_in_flush - before.totals.ns_in_flush;
  d.totals.ns_in_lock = after.totals.ns_in_lock - before.totals.ns_in_lock;
  d.bytes_mapped = after.bytes_mapped - before.bytes_mapped;
  d.peak_bytes_mapped = after.peak_bytes_mapped;
  return d;
}

class Allocator {
 public:
  virtual ~Allocator() = default;

  virtual void* allocate(int tid, std::size_t size) = 0;
  virtual void deallocate(int tid, void* p) = 0;

  /// The lane that allocated `p` (the block's *home*), or -1 when the
  /// backend cannot attribute it (no header, large-allocation bypass).
  /// The home-flush routing layer (smr::FreeExecutor) uses this to
  /// decide whether a free is about to cross lanes.
  virtual int home_lane(void* p) const {
    (void)p;
    return -1;
  }

  /// Frees `p` on `tid` with the caller's promise that the cross-lane
  /// hand-off cost was already paid in bulk (the block arrived through
  /// a batched owner-stash, not an ad-hoc foreign free). Backends keep
  /// n_remote_free attribution exact — a block allocated elsewhere
  /// still counts remote — but skip the per-block transfer penalty by
  /// re-homing the block into `tid`'s cache. The default is a plain
  /// deallocate (real backends have no modelled penalty to skip).
  virtual void free_local_hint(int tid, void* p) { deallocate(tid, p); }

  /// Drains thread caches / remote stacks back to the central state.
  /// Called at trial teardown; not part of the measured window.
  virtual void flush_thread_caches() {}

  virtual AllocStats stats() const = 0;
  virtual const char* name() const = 0;
};

}  // namespace emr::alloc
