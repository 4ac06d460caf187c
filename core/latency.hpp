// Per-op latency recording: one fixed 64-bucket log2 histogram per
// registration lane, built for the harness hot path. Recording one
// sample is two relaxed atomic RMWs on the caller's own cache line
// (bucket counter + running max) — no locks, no allocation, no
// cross-lane traffic — so the recorder can stay armed around every
// operation of a trial without perturbing the tail it measures. Lanes
// merge at read time (trial end or the schedule sampler's beat) into a
// plain LatencyHistogram that percentile queries interpolate over.
//
// The paper's harm is a *tail* phenomenon: a whole-bag free stalls one
// unlucky op while throughput stays flat, so mops alone cannot show it.
// This recorder is what makes p99.9 a first-class column
// (docs/LATENCY.md) and the feedback signal for the latency-target free
// schedule.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

namespace emr {

/// Bucket b holds samples with bit_width(ns) == b, i.e. bucket 0 is
/// exactly {0 ns}, bucket b >= 1 covers [2^(b-1), 2^b). uint64
/// nanoseconds never need more than 64 buckets, so the top bucket is
/// only reachable by samples >= 2^62 ns (~146 years) — the histogram
/// cannot overflow by range.
inline constexpr int kLatencyBuckets = 64;

inline int latency_bucket(std::uint64_t ns) {
  const int w = std::bit_width(ns);  // 0 for ns == 0, else 1..64
  return w < kLatencyBuckets ? w : kLatencyBuckets - 1;
}

/// Smallest ns value that lands in bucket `b` (inverse of
/// latency_bucket at the lower bucket edge).
inline std::uint64_t latency_bucket_floor(int b) {
  return b <= 0 ? 0 : std::uint64_t{1} << (b - 1);
}

/// A merged (or single-lane) histogram snapshot: plain counters, safe to
/// copy, add, and query without touching the recorder again.
struct LatencyHistogram {
  std::array<std::uint64_t, kLatencyBuckets> buckets{};
  std::uint64_t count = 0;   // total recorded samples
  std::uint64_t max_ns = 0;  // exact maximum sample

  void add(const LatencyHistogram& o) {
    for (int b = 0; b < kLatencyBuckets; ++b) buckets[b] += o.buckets[b];
    count += o.count;
    max_ns = max_ns > o.max_ns ? max_ns : o.max_ns;
  }
};

/// Quantile in nanoseconds for q in [0, 1] (e.g. 0.999 for p99.9):
/// walks the cumulative counts to the target bucket and interpolates
/// linearly inside it, so repeated identical inputs still move the
/// estimate monotonically with q. The result is clamped to the exact
/// recorded max; an empty histogram yields 0. Resolution is bounded by
/// the log2 bucket width: the true quantile lies within a factor of 2
/// (see docs/LATENCY.md for the error model).
double latency_percentile(const LatencyHistogram& h, double q);

/// The per-lane recorder a Trial owns. reset() (off the hot path)
/// allocates one cache-line-aligned Lane per registration slot;
/// record() is called by the lane's owning thread once per op, and
/// merged() may run concurrently from the schedule sampler — counters
/// are relaxed atomics, so a mid-trial merge sees a slightly stale but
/// never torn histogram.
///
/// A lane can be split into `channels` independent histograms (the
/// harness keys them by op kind: insert/erase/lookup tails separate).
/// Every channel of a lane is still that lane's private cache lines;
/// merged() spans all channels, merged_channel() isolates one.
class LatencyRecorder {
 public:
  /// Re-arms (or disarms) the recorder with `lanes` fresh lanes of one
  /// channel each. Single-threaded: call before workers start.
  void reset(int lanes, bool enabled) { reset(lanes, 1, enabled); }

  /// Multi-channel re-arm: lanes x channels fresh histograms.
  void reset(int lanes, int channels, bool enabled);

  bool enabled() const { return enabled_; }
  int lane_count() const { return lanes_ ? n_ : 0; }
  int channel_count() const { return lanes_ ? channels_ : 0; }

  /// One sample on `lane`'s channel 0.
  void record(int lane, std::uint64_t ns) { record(lane, 0, ns); }

  /// One sample on `lane`'s own cache line(s). Out-of-range lanes and
  /// channels fold onto 0 rather than dropping the sample.
  void record(int lane, int channel, std::uint64_t ns) {
    if (!enabled_) return;
    if (lane < 0 || lane >= n_) lane = 0;
    if (channel < 0 || channel >= channels_) channel = 0;
    Lane& l = lanes_[static_cast<std::size_t>(lane * channels_ + channel)];
    l.counts[static_cast<std::size_t>(latency_bucket(ns))].fetch_add(
        1, std::memory_order_relaxed);
    std::uint64_t seen = l.max_ns.load(std::memory_order_relaxed);
    while (ns > seen &&
           !l.max_ns.compare_exchange_weak(seen, ns,
                                           std::memory_order_relaxed)) {
    }
  }

  /// Sums every lane and channel into one snapshot. Callable from any
  /// thread.
  LatencyHistogram merged() const;

  /// One channel's snapshot across all lanes (per-op-kind percentiles).
  LatencyHistogram merged_channel(int channel) const;

  /// One lane's snapshot across its channels (tests and per-lane
  /// diagnostics).
  LatencyHistogram lane_histogram(int lane) const;

 private:
  struct alignas(64) Lane {
    std::array<std::atomic<std::uint64_t>, kLatencyBuckets> counts{};
    std::atomic<std::uint64_t> max_ns{0};
  };

  LatencyHistogram cell_histogram(int cell) const;

  std::unique_ptr<Lane[]> lanes_;  // n_ x channels_, lane-major
  int n_ = 0;
  int channels_ = 1;
  bool enabled_ = false;
};

}  // namespace emr
