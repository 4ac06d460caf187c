// Log-linear histogram for emr_bench. Values below 128 get a
// bucket each; above that every power of two is split into 128 equal
// buckets, so no bucket is wider than 1/128 (0.8%) of the values it
// holds. core/latency's log2 buckets are up to 2x wide, too coarse to
// compare a tail between two commits. Not thread-safe: each client
// thread owns its histograms and the main thread merges them after the join.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace emrbench {

class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++count_;
    sum_ += static_cast<double>(v);
    max_ = std::max(max_, v);
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]: walks the cumulative counts to the
  /// bucket holding rank q * count and interpolates linearly inside it,
  /// clamped to the exact maximum. 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c == 0.0) continue;
      if (cum + c >= target) {
        const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
        const double v = static_cast<double>(lower(i)) +
                         frac * static_cast<double>(width(i));
        return std::min(v, static_cast<double>(max_));
      }
      cum += c;
    }
    return static_cast<double>(max_);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return static_cast<std::size_t>(kSub * static_cast<std::uint64_t>(shift + 1) +
                                    ((v >> shift) - kSub));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return (kSub + i % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t max_ = 0;
};

}  // namespace emrbench
