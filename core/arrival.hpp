// Seeded open-loop arrival schedules for the service-mode harness
// (docs/SERVICE_MODE.md). A schedule is generated once,
// up front, from (process, rate, skew, phases, seed) — never from the
// measured run — so the offered load is a pure function of the config:
// the same seed yields a byte-identical schedule on every run and at
// every worker count, and queueing delay (service start minus scheduled
// arrival) is measurable against it.
//
// Processes are inhomogeneous Poisson streams drawn by Lewis thinning:
// candidate events arrive at the peak rate r_max and survive with
// probability r(t)/r_max, where r(t) composes the base rate, the
// per-phase multiplier (equal slices of the window) and — for the
// `burst` process — a mean-preserving on/off square wave. Keys are
// Zipfian (Gray's one-uniform method, s = 0 degenerating to uniform)
// and each event carries an op kind drawn from the configured mix.
#pragma once

#include <cstdint>
#include <vector>

namespace emr {

/// One scheduled operation: fire at t_ns after the measurement window
/// opens.
struct Arrival {
  std::uint64_t t_ns = 0;
  std::uint64_t key = 0;
  std::uint8_t kind = 0;  // harness::Op::Kind values (insert/erase/lookup)
};

inline bool operator==(const Arrival& a, const Arrival& b) {
  return a.t_ns == b.t_ns && a.key == b.key && a.kind == b.kind;
}

struct ArrivalConfig {
  enum class Process { kPoisson, kBurst };

  Process process = Process::kPoisson;
  double rate_ops = 100'000;  ///< mean offered load, ops/s over the window
  std::uint64_t duration_ns = 0;  ///< window length; schedule ends here
  std::uint64_t seed = 1;

  // Op mix and key population (the closed-loop OpStream's knobs).
  double insert_frac = 0.5;
  double erase_frac = 0.5;
  std::uint64_t keyrange = 1 << 14;
  double zipf_s = 0.0;  ///< key skew; 0 = uniform

  /// Rate multipliers applied over equal slices of the window, e.g.
  /// {2, 0.05} = a busy first half then a near-idle tail. Must be
  /// non-empty with every entry finite and > 0.
  std::vector<double> phases = {1.0};

  // Burst-process shape: for `burst_duty` of every period the rate is
  // multiplied by `burst_factor`; the rest of the period is scaled down
  // so the period's mean rate is preserved (clamped at 0 when
  // duty * factor >= 1).
  double burst_factor = 3.0;
  double burst_duty = 0.25;
  std::uint64_t burst_period_ns = 20'000'000;
};

/// Hard cap on generated events (rate x duration): past this the
/// schedule itself becomes the memory story. generate_arrivals and
/// harness::validate_config both enforce it.
inline constexpr std::uint64_t kMaxArrivals = std::uint64_t{1} << 24;

/// Generates the full schedule. Deterministic in `cfg` alone (never
/// reads the clock or thread count). Throws std::invalid_argument on
/// out-of-range config, naming the field and its valid range.
std::vector<Arrival> generate_arrivals(const ArrivalConfig& cfg);

/// FNV-1a over every event's fields — the determinism gates' one-number
/// schedule identity.
std::uint64_t arrival_schedule_hash(const std::vector<Arrival>& schedule);

/// Zipfian sampler over [0, n) by Gray's method (the YCSB generator):
/// zeta(n, s) is precomputed once (O(n)), then each sample maps one
/// uniform draw through the closed-form inverse — so consuming exactly
/// one uniform per key keeps streams seed-stable as knobs change.
/// s == 0 is an explicit uniform fast path; s == 1 is nudged off the
/// 1/(1-s) pole.
class Zipf {
 public:
  Zipf(std::uint64_t n, double s);

  bool uniform() const { return uniform_; }

  /// Maps u in [0, 1) to a rank in [0, n); rank 0 is the hottest.
  std::uint64_t sample(double u) const;

 private:
  std::uint64_t n_ = 1;
  bool uniform_ = true;
  double s_ = 0.0;
  double zeta_n_ = 1.0;
  double zeta2_ = 1.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

}  // namespace emr
