// Background reclaimer daemon (docs/SERVICE_MODE.md):
// a dedicated thread that drains FreeExecutor backlogs through the
// bundle's FreeSchedule quota path, off the operation hot path. The
// motivating regime is open-loop traffic: op-driven reclamation only
// runs while ops run, so a burst's leftover backlog survives every
// quiet period untouched — exactly when a daemon can reclaim for free.
//
// Levels:
//   off        - no daemon; the bundle behaves exactly as before (the
//                per-lane daemon locks are never armed, so the op path
//                is instruction-identical).
//   optimistic - reclaim when the system is quiet (op rate below a
//                trickle since the last tick) or under backlog pressure
//                (total backlog past twice the schedule's seal
//                threshold); otherwise stay out of the workers' way.
//   aggressive - reclaim every tick, quiet or not.
//
// The daemon registers its own ThreadHandle: its frees run on its own
// allocator lane (the modelled thread caches are single-owner), which
// also makes the remote-free cost of background reclamation physically
// honest — the daemon pays the cross-lane penalty the owner would have
// dodged. Budget one extra registration slot for it
// (SmrConfig::extra_slots).
//
// Concurrency contract: FreeExecutor::set_daemon_hooked(true) must be
// called while no thread operates on the bundle, *before* start().
// After that, start()/stop() may race handle register/deregister churn
// freely — daemon_drain synchronizes with lane owners through the
// per-lane locks the hook armed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "smr/reclaimer.hpp"

namespace emr::smr {

enum class DaemonLevel { kOff, kOptimistic, kAggressive };

/// "off" | "optimistic" | "aggressive" (EMR_RECLAIMER_DAEMON). Throws
/// std::invalid_argument naming the valid levels.
DaemonLevel daemon_level_from_name(const std::string& name);
const char* daemon_level_name(DaemonLevel level);

class ReclaimerDaemon {
 public:
  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t quiet_ticks = 0;     // ticks that saw a quiet system
    std::uint64_t pressure_ticks = 0;  // ticks that saw backlog pressure
    std::uint64_t drained = 0;         // nodes freed by the daemon
  };

  /// Does not start the thread; `level` kOff makes start() a no-op.
  ReclaimerDaemon(Reclaimer& r, DaemonLevel level, int period_ms);
  ~ReclaimerDaemon();

  ReclaimerDaemon(const ReclaimerDaemon&) = delete;
  ReclaimerDaemon& operator=(const ReclaimerDaemon&) = delete;

  /// Registers the daemon's handle and spawns the tick loop. Throws
  /// std::logic_error if the executor was not armed with
  /// set_daemon_hooked(true) first, and propagates register_thread()'s
  /// exhaustion error (budget an extra slot). Idempotent while running.
  void start();

  /// Stops the loop, joins the thread and releases the handle.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Pin the daemon thread to this CPU when it starts (EMR_PIN: the
  /// harness hands the daemon the slot after the workers' in the pin
  /// layout). -1 (default) leaves the thread to the scheduler. Call
  /// before start().
  void set_pin_cpu(int cpu) { pin_cpu_ = cpu; }

  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  DaemonLevel level() const { return level_; }
  Stats stats() const;

 private:
  void loop();
  void tick();

  Reclaimer& r_;
  DaemonLevel level_;
  int period_ms_;
  int pin_cpu_ = -1;
  std::thread thread_;
  ThreadHandle handle_;
  std::uint64_t last_ops_ = 0;  // loop-thread private
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> quiet_ticks_{0};
  std::atomic<std::uint64_t> pressure_ticks_{0};
  std::atomic<std::uint64_t> drained_{0};
};

}  // namespace emr::smr
