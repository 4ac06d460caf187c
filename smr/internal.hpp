// Construction hooks and small helpers shared between smr/factory.cpp
// and the reclaimer translation units. Not part of the public surface.
#pragma once

#include <algorithm>
#include <memory>

#include "core/timing.hpp"
#include "smr/free_executor.hpp"
#include "smr/reclaimer.hpp"

namespace emr::smr::internal {

/// Records one scheme progress beat — an epoch advance, era tick, token
/// rotation, or HP scan — into the trial instruments. Every scheme
/// funnels through here so the cross-scheme timelines and garbage
/// censuses stay comparable. The pending count sums every lane, so it
/// is computed only when a census is listening: era schemes tick with
/// their allocation rate, though EBR advances only while a sealed bag
/// waits (about 2 K times a second in emrbench's `abtree_batch` on
/// 4 vCPUs).
inline void record_progress_beat(const Reclaimer& r, const SmrContext& ctx,
                                 int tid, std::uint64_t beat) {
  if (ctx.timeline != nullptr && ctx.timeline->enabled()) {
    const std::uint64_t now = now_ns();
    ctx.timeline->record(tid, EventKind::kEpochAdvance, now, now);
  }
  if (ctx.garbage != nullptr && ctx.garbage->enabled()) {
    ctx.garbage->record(beat, r.stats().pending);
  }
}

/// Next retire-list size that should trigger a scan, given what the
/// last scan kept: at least the base threshold, and at least a quarter
/// threshold beyond the kept survivors so a fully-pinned list cannot
/// degenerate into a scan per retire.
inline std::size_t next_scan_at(std::size_t threshold, std::size_t kept) {
  return std::max(threshold,
                  kept + std::max<std::size_t>(threshold / 4, 1));
}

struct EbrOptions {
  const char* name = "ebr";
  bool leak = false;       // "none": retired nodes are never reclaimed
  bool quiescent = false;  // qsbr/rcu: relaxed begin/end, no fences
};

enum class TokenPolicy {
  kNaive,      // holder frees every thread's safe bags, then passes
  kPassFirst,  // pass first, then hand every own safe bag to the executor
  kPeriodic,   // pass first, free at most one own bag per receipt
};

struct TokenOptions {
  const char* name = "token";
  TokenPolicy policy = TokenPolicy::kPeriodic;
};

/// wfe's protect() gives up re-validating after this many attempts that
/// saw the era move, and publishes an open reservation [era, +inf)
/// instead: the bounded stand-in for the paper's wait-free helper
/// protocol.
inline constexpr int kWfeValidateBound = 4;

/// The era-clock schemes share one implementation skeleton (global era,
/// birth/retire stamping, reservation scan) and differ in what a thread
/// publishes on the read side.
enum class EraVariant {
  kHazardEras,   // he: one published era per protection slot
  kInterval,     // ibr: a single [lower, upper] reservation interval
  kWaitFreeEras, // wfe: he with a bounded validate loop + open fallback
};

std::unique_ptr<Reclaimer> make_ebr(const EbrOptions& opt,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor* executor);

std::unique_ptr<Reclaimer> make_token(const TokenOptions& opt,
                                      const SmrContext& ctx,
                                      const SmrConfig& cfg,
                                      FreeExecutor* executor);

std::unique_ptr<Reclaimer> make_hp(const SmrContext& ctx,
                                   const SmrConfig& cfg,
                                   FreeExecutor* executor);

std::unique_ptr<Reclaimer> make_era(EraVariant variant,
                                    const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor* executor);

std::unique_ptr<Reclaimer> make_nbr(bool plus, const SmrContext& ctx,
                                    const SmrConfig& cfg,
                                    FreeExecutor* executor);

}  // namespace emr::smr::internal
