// Reclaimer factory. Names:
//
//   none | qsbr | rcu | debra | hp | he | ibr | wfe | nbr | nbrplus
//   token_naive | token_passfirst | token
//
// Any base name takes an `_af` suffix (asynchronous per-op free, the
// paper's fix), a `_pool` suffix (object pooling), or an `_adaptive`
// suffix (amortized free under the population-aware
// AdaptiveFreeSchedule controller — see docs/FREE_SCHEDULES.md), and
// any of those forms an `_hf` home-flush suffix. `token_af` /
// `token_pool` / `token_adaptive` apply to the periodic token variant.
// Every bundle carries the FreeSchedule policy that answers its
// batching questions; SmrConfig::schedule (EMR_SCHEDULE) can force
// `fixed` or `adaptive` for any name.
#pragma once

#include <string>
#include <vector>

#include "smr/reclaimer.hpp"

namespace emr::smr {

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

/// Strips a `_af`/`_pool`/`_adaptive` suffix according to
/// the same grammar make_reclaimer uses ("token_passfirst" stays
/// whole).
std::string reclaimer_base_name(const std::string& name);

}  // namespace emr::smr
