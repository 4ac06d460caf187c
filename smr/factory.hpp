// Reclaimer factory. Names:
//
//   none | qsbr | rcu | debra | hp | he | ibr | wfe | nbr | nbrplus
//   token_naive | token_passfirst | token
//
// A name spells a ReclaimerSpec as `<scheme>[_af|_pool|_adaptive][_hf]`.
// No form suffix is batch free; `_af` is asynchronous per-op free (the
// paper's fix), `_pool` object pooling, and `_adaptive` amortized free
// under the population-aware AdaptiveFreeSchedule (docs/FREE_SCHEDULES.md).
// `_hf` arms home-flush routing. `token_naive` and `token_passfirst` take
// no suffix. parse_reclaimer and reclaimer_name hold this grammar.
#pragma once

#include <string>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::smr {

/// How a bundle frees the nodes its scheme hands over: the executor,
/// and for `kAdaptive` the AdaptiveFreeSchedule instead of the fixed
/// one.
enum class FreeForm { kBatch, kAf, kPool, kAdaptive };

/// One reclaimer configuration: a base scheme from reclaimer_names(),
/// its free form, and whether home-flush routing is armed.
struct ReclaimerSpec {
  std::string scheme;
  FreeForm form = FreeForm::kBatch;
  bool home_flush = false;
};

/// The spec a factory name spells. Throws std::invalid_argument for a
/// name outside all_factory_names().
ReclaimerSpec parse_reclaimer(const std::string& name);

/// The factory name of `spec`; the inverse of parse_reclaimer.
std::string reclaimer_name(const ReclaimerSpec& spec);

/// Builds the named reclaimer with its free executor. Throws
/// std::invalid_argument for an unknown name.
ReclaimerBundle make_reclaimer(const std::string& name, const SmrContext& ctx,
                               const SmrConfig& cfg);

/// The ten base algorithms of the paper's Experiment 2 (Fig. 11b): each
/// is benchmarked ORIG vs `_af`.
const std::vector<std::string>& experiment2_reclaimers();

/// Every base name make_reclaimer accepts (without suffixes).
const std::vector<std::string>& reclaimer_names();

/// Every constructible name: each suffixable base in its batch, `_af`,
/// `_pool` and `_adaptive` forms, each of those with and without the
/// `_hf` home-flush suffix, plus the two fixed token variants, which
/// take no suffix.
/// The single source of truth for sweeps that claim to cover "all
/// names" — the smoke check and the parameterized scheme tests both
/// iterate this.
const std::vector<std::string>& all_factory_names();

}  // namespace emr::smr
