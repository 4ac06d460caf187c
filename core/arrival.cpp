#include "core/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"

namespace emr {

namespace {

void fail(const std::string& what) { throw std::invalid_argument(what); }

void validate(const ArrivalConfig& cfg) {
  if (!std::isfinite(cfg.rate_ops) || cfg.rate_ops <= 0) {
    fail("ArrivalConfig.rate_ops must be a finite rate > 0 ops/s, got " +
         std::to_string(cfg.rate_ops));
  }
  if (cfg.duration_ns == 0) {
    fail("ArrivalConfig.duration_ns must be >= 1");
  }
  if (cfg.keyrange == 0) fail("ArrivalConfig.keyrange must be >= 1");
  if (!std::isfinite(cfg.zipf_s) || cfg.zipf_s < 0) {
    fail("ArrivalConfig.zipf_s must be a finite skew >= 0, got " +
         std::to_string(cfg.zipf_s));
  }
  if (cfg.insert_frac < 0 || cfg.erase_frac < 0 ||
      cfg.insert_frac + cfg.erase_frac > 1.0 + 1e-9) {
    fail("ArrivalConfig op mix needs insert_frac, erase_frac >= 0 with "
         "insert_frac + erase_frac <= 1");
  }
  if (cfg.phases.empty()) {
    fail("ArrivalConfig.phases needs at least one multiplier (e.g. "
         "{1.0}); an empty phase list offers no load");
  }
  for (double m : cfg.phases) {
    if (!std::isfinite(m) || m <= 0) {
      fail("ArrivalConfig.phases multipliers must be finite and > 0, "
           "got " +
           std::to_string(m));
    }
  }
  if (cfg.process == ArrivalConfig::Process::kBurst) {
    if (!std::isfinite(cfg.burst_factor) || cfg.burst_factor < 1) {
      fail("ArrivalConfig.burst_factor must be finite and >= 1");
    }
    if (!(cfg.burst_duty > 0) || !(cfg.burst_duty < 1)) {
      fail("ArrivalConfig.burst_duty must lie in (0, 1)");
    }
    if (cfg.burst_period_ns == 0) {
      fail("ArrivalConfig.burst_period_ns must be >= 1");
    }
  }
  const double expected =
      cfg.rate_ops * static_cast<double>(cfg.duration_ns) / 1e9;
  if (expected > static_cast<double>(kMaxArrivals)) {
    fail("ArrivalConfig offers ~" + std::to_string(expected) +
         " events (rate_ops x duration); the schedule cap is " +
         std::to_string(kMaxArrivals) +
         " — lower the rate or shorten the window");
  }
}

}  // namespace

Zipf::Zipf(std::uint64_t n, double s) : n_(n == 0 ? 1 : n) {
  if (s <= 0 || n_ < 2) return;  // uniform fast path
  // 1/(1-s) is singular at s == 1 (the harmonic case); nudging the
  // exponent keeps the closed-form inverse finite while changing ranks
  // by less than the sampler's own granularity.
  if (std::abs(s - 1.0) < 1e-9) s = 1.0 + 1e-9;
  uniform_ = false;
  s_ = s;
  zeta_n_ = 0.0;
  for (std::uint64_t i = 1; i <= n_; ++i) {
    zeta_n_ += std::pow(static_cast<double>(i), -s);
  }
  zeta2_ = 1.0 + std::pow(2.0, -s);
  alpha_ = 1.0 / (1.0 - s);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - s)) /
         (1.0 - zeta2_ / zeta_n_);
}

std::uint64_t Zipf::sample(double u) const {
  if (u < 0) u = 0;
  if (u >= 1) u = std::nextafter(1.0, 0.0);
  if (uniform_) {
    const auto r =
        static_cast<std::uint64_t>(u * static_cast<double>(n_));
    return r < n_ ? r : n_ - 1;
  }
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < zeta2_) return 1;
  const auto r = static_cast<std::uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r < n_ ? r : n_ - 1;
}

std::vector<Arrival> generate_arrivals(const ArrivalConfig& cfg) {
  validate(cfg);

  double max_phase = 0;
  for (double m : cfg.phases) max_phase = std::max(max_phase, m);
  const double slice_ns = static_cast<double>(cfg.duration_ns) /
                          static_cast<double>(cfg.phases.size());

  const bool burst = cfg.process == ArrivalConfig::Process::kBurst;
  // The off-fraction multiplier that keeps a burst period's mean at 1:
  // duty * factor + (1 - duty) * off == 1, clamped at 0 once the bursts
  // alone carry more than the mean.
  const double burst_off =
      burst ? std::max(0.0, (1.0 - cfg.burst_duty * cfg.burst_factor) /
                                (1.0 - cfg.burst_duty))
            : 1.0;
  const double burst_peak = burst ? cfg.burst_factor : 1.0;

  // Peak instantaneous rate, events per ns, for the thinning envelope.
  const double r_max_ns = cfg.rate_ops * max_phase * burst_peak / 1e9;

  auto rate_mult_at = [&](double t_ns) {
    auto p = static_cast<std::size_t>(t_ns / slice_ns);
    if (p >= cfg.phases.size()) p = cfg.phases.size() - 1;
    double m = cfg.phases[p];
    if (burst) {
      const double pos =
          std::fmod(t_ns, static_cast<double>(cfg.burst_period_ns));
      const bool on =
          pos < cfg.burst_duty * static_cast<double>(cfg.burst_period_ns);
      m *= on ? cfg.burst_factor : burst_off;
    }
    return m;
  };

  const Zipf zipf(cfg.keyrange, cfg.zipf_s);
  Rng rng(cfg.seed ^ 0xA5EB7C11DE01F5E3ULL);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(
      std::min(cfg.rate_ops * static_cast<double>(cfg.duration_ns) / 1e9 +
                   1024.0,
               static_cast<double>(kMaxArrivals))));

  // Lewis thinning: exponential candidate gaps at the peak rate, each
  // candidate kept with probability r(t)/r_max. The rng draw order per
  // candidate ([gap, accept] then [kind, key] on acceptance)
  // is part of the schedule's identity — reordering it is a
  // determinism-breaking change (tests hash the schedule).
  double t_ns = 0;
  for (;;) {
    const double u = rng.next_double();
    t_ns += -std::log1p(-u) / r_max_ns;
    if (t_ns >= static_cast<double>(cfg.duration_ns)) break;
    const double keep = rate_mult_at(t_ns) / (max_phase * burst_peak);
    if (rng.next_double() >= keep) continue;

    Arrival a;
    a.t_ns = static_cast<std::uint64_t>(t_ns);
    const double r = rng.next_double();
    a.kind = r < cfg.insert_frac
                 ? 0
                 : (r < cfg.insert_frac + cfg.erase_frac ? 1 : 2);
    a.key = zipf.sample(rng.next_double());
    out.push_back(a);
    if (out.size() >= kMaxArrivals) {
      fail("generate_arrivals exceeded the " + std::to_string(kMaxArrivals) +
           "-event schedule cap mid-stream — lower EMR_RATE_OPS or EMR_MS");
    }
  }
  return out;
}

std::uint64_t arrival_schedule_hash(const std::vector<Arrival>& schedule) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const Arrival& a : schedule) {
    mix(a.t_ns);
    mix(a.key);
    mix(a.kind);
  }
  return h;
}

}  // namespace emr
