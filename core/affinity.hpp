// CPU affinity pinning for the harness (EMR_PIN): workers and the
// reclaimer daemon pin themselves before measurement so a trial's
// threads stop migrating mid-window (the ryuxin ps benches pin every
// thread via thd_set_affinity; unpinned, the scheduler can shuffle
// workers across sockets and smear the remote-free story).
//
// Layouts over the CPUs this process is allowed to run on
// (sched_getaffinity order):
//
//   off     - no pinning; the scheduler places threads freely.
//   compact - worker i -> allowed[i mod n]: fill cores in order, packing
//             neighbours together (minimizes cross-core traffic).
//   scatter - worker i walks the allowed list interleaved half-by-half
//             (0, n/2, 1, n/2+1, ...): spreads workers as far apart as
//             the mask permits (maximizes the remote effect; on a
//             multi-socket box this alternates sockets).
//
// Non-Linux builds compile to no-ops: allowed_cpus() is empty, pin_map()
// is empty, and pin_current_thread() reports failure — callers treat an
// empty map as "pinning unavailable" and run unpinned.
#pragma once

#include <string>
#include <vector>

namespace emr::affinity {

enum class PinMode { kOff, kCompact, kScatter };

/// "off" | "compact" | "scatter" (EMR_PIN). Throws std::invalid_argument
/// naming the valid choices.
PinMode pin_mode_from_name(const std::string& name);
const char* pin_mode_name(PinMode mode);

/// The CPUs this process may run on, in mask order (sched_getaffinity).
/// Empty when the platform exposes no affinity API.
std::vector<int> allowed_cpus();

/// CPU assignment for `count` threads under `mode`: entry i is thread
/// i's CPU. Empty for kOff or when no CPUs are visible (run unpinned).
/// With more threads than CPUs the layout wraps round-robin.
std::vector<int> pin_map(PinMode mode, int count);

/// Pins the calling thread to `cpu` via pthread_setaffinity_np.
/// Returns false (thread left as-is) on failure or off-Linux.
bool pin_current_thread(int cpu);

}  // namespace emr::affinity
