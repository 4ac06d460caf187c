// Measured remote-free cost (docs/ALLOCATORS.md): instead of hand-tuning
// EMR_REMOTE_PENALTY_NS, measure what a cross-core cache-line transfer
// actually costs on this machine and feed that into the allocator model.
//
// Protocol (docs/ALLOCATORS.md): two threads pin themselves to the first
// and last CPUs of the process's affinity mask — the farthest-apart pair
// the mask offers, crossing sockets when the mask does — and ping-pong a
// single cache line: A flips an alignas(64) flag and spins until B flips
// it back, kRounds times. Every flip forces the line to migrate between
// the two cores' caches, so wall_time / (2 * rounds) is the one-way
// transfer latency — exactly the cost a remote free pays per block when
// it touches a block whose home cache is elsewhere.
//
// remote_cost() runs the measurement once per process (first caller
// pays ~a few ms; the result is cached). On a machine where the mask
// holds fewer than two CPUs the measurement is impossible and the result
// reports measured == false — callers keep their configured defaults,
// which is what keeps single-CPU CI deterministic.
//
// The knob still wins: the harness only substitutes the measured value
// when EMR_REMOTE_PENALTY_NS (or a bench sweep) did not set the penalty
// explicitly, and EMR_CALIBRATE=off disables the substitution entirely.
#pragma once

#include <cstdint>

namespace emr::calibration {

struct RemoteCost {
  /// False when the measurement could not run (< 2 allowed CPUs): the
  /// other fields are zero/-1 and callers keep configured defaults.
  bool measured = false;
  /// One-way cache-line transfer latency between the probe CPUs.
  std::uint64_t one_way_ns = 0;
  /// The pinned probe pair (first/last CPU of the affinity mask).
  int cpu_a = -1;
  int cpu_b = -1;
};

/// The process-wide measurement, run once on first call (thread-safe).
/// Calibrates the clock (core/timing.hpp) first so the probe reads the
/// cheap timestamp source.
const RemoteCost& remote_cost();

/// Test/diagnostic seam: run a fresh ping-pong between two given CPUs
/// for `rounds` round-trips, bypassing the cache. measured == false if
/// either pin fails.
RemoteCost measure_remote_cost(int cpu_a, int cpu_b, int rounds);

}  // namespace emr::calibration
