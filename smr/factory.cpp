#include "smr/factory.hpp"

#include <stdexcept>

#include "smr/free_schedule.hpp"
#include "smr/internal.hpp"

namespace emr::smr {

namespace {

using internal::EbrOptions;
using internal::EraVariant;
using internal::TokenOptions;
using internal::TokenPolicy;

std::unique_ptr<FreeExecutor> make_executor(FreeForm form,
                                            const SmrContext& ctx,
                                            const SmrConfig& cfg,
                                            FreeSchedule* schedule) {
  switch (form) {
    case FreeForm::kBatch:
      return std::make_unique<BatchFreeExecutor>(ctx, cfg, schedule);
    case FreeForm::kAf:
    case FreeForm::kAdaptive:
      // The adaptive form amortizes like _af, but the drain quantum and
      // seal/scan thresholds come from the population-aware controller.
      return std::make_unique<FreeExecutor>(ctx, cfg, schedule);
    case FreeForm::kPool:
      return std::make_unique<PoolingFreeExecutor>(ctx, cfg, schedule);
  }
  return nullptr;
}

/// The multi-word token variants are whole names, not suffixed forms of
/// "token".
bool takes_suffix(const std::string& scheme) {
  return scheme != "token_naive" && scheme != "token_passfirst";
}

/// Every constructible spec, in all_factory_names() order.
const std::vector<ReclaimerSpec>& all_specs() {
  static const std::vector<ReclaimerSpec> kSpecs = [] {
    std::vector<ReclaimerSpec> specs;
    for (const std::string& scheme : reclaimer_names()) {
      if (!takes_suffix(scheme)) {
        specs.push_back({scheme});
        continue;
      }
      // Every form, then the home-flush twin of every form.
      for (const bool hf : {false, true}) {
        for (const FreeForm form : {FreeForm::kBatch, FreeForm::kAf,
                                    FreeForm::kPool, FreeForm::kAdaptive}) {
          specs.push_back({scheme, form, hf});
        }
      }
    }
    return specs;
  }();
  return kSpecs;
}

}  // namespace

std::string reclaimer_name(const ReclaimerSpec& spec) {
  static const char* const kFormSuffix[] = {"", "_af", "_pool", "_adaptive"};
  return spec.scheme + kFormSuffix[static_cast<int>(spec.form)] +
         (spec.home_flush ? "_hf" : "");
}

ReclaimerSpec parse_reclaimer(const std::string& name) {
  // The inverse by search: a name parses exactly when it is the
  // spelling of a constructible spec, so the two can never disagree.
  for (const ReclaimerSpec& spec : all_specs()) {
    if (reclaimer_name(spec) == name) return spec;
  }
  throw std::invalid_argument("unknown reclaimer: " + name);
}

ReclaimerBundle make_reclaimer(const std::string& name, const SmrContext& ctx,
                               const SmrConfig& cfg) {
  if (ctx.allocator == nullptr) {
    throw std::invalid_argument("make_reclaimer: SmrContext.allocator unset");
  }
  const ReclaimerSpec spec = parse_reclaimer(name);
  const std::string& base = spec.scheme;

  ReclaimerBundle bundle;
  bundle.schedule = make_free_schedule(spec.form == FreeForm::kAdaptive
                                           ? ScheduleKind::kAdaptive
                                           : ScheduleKind::kFixed,
                                       cfg);
  bundle.executor = make_executor(spec.form, ctx, cfg, bundle.schedule.get());
  bundle.executor->set_home_flush(spec.home_flush);

  // Token family.
  TokenOptions topt;
  bool is_token = true;
  if (base == "token_naive") {
    topt = {"token_naive", TokenPolicy::kNaive};
  } else if (base == "token_passfirst") {
    topt = {"token_passfirst", TokenPolicy::kPassFirst};
  } else if (base == "token") {
    if (spec.form == FreeForm::kBatch) {
      topt = {"token", TokenPolicy::kPeriodic};
    } else {
      topt = {spec.form == FreeForm::kAf     ? "token_af"
              : spec.form == FreeForm::kPool ? "token_pool"
                                             : "token_adaptive",
              TokenPolicy::kPassFirst};
    }
  } else {
    is_token = false;
  }
  if (is_token) {
    bundle.reclaimer =
        internal::make_token(topt, ctx, cfg, bundle.executor.get());
    return bundle;
  }

  // Pointer-protecting families, each in its own translation unit.
  if (base == "hp") {
    bundle.reclaimer = internal::make_hp(ctx, cfg, bundle.executor.get());
    return bundle;
  }
  if (base == "he" || base == "ibr" || base == "wfe") {
    const EraVariant variant = base == "he"    ? EraVariant::kHazardEras
                               : base == "ibr" ? EraVariant::kInterval
                                               : EraVariant::kWaitFreeEras;
    bundle.reclaimer =
        internal::make_era(variant, ctx, cfg, bundle.executor.get());
    return bundle;
  }
  if (base == "nbr" || base == "nbrplus") {
    bundle.reclaimer = internal::make_nbr(/*plus=*/base == "nbrplus", ctx,
                                          cfg, bundle.executor.get());
    return bundle;
  }

  // Epoch family.
  EbrOptions opt;
  if (base == "none") {
    opt = {"none", /*leak=*/true, /*quiescent=*/true};
  } else if (base == "qsbr") {
    opt = {"qsbr", false, /*quiescent=*/true};
  } else if (base == "rcu") {
    opt = {"rcu", false, /*quiescent=*/true};
  } else if (base == "debra") {
    opt = {"debra", false, false};
  } else {
    throw std::invalid_argument("unknown reclaimer: " + name);
  }
  bundle.reclaimer = internal::make_ebr(opt, ctx, cfg, bundle.executor.get());
  return bundle;
}

const std::vector<std::string>& experiment2_reclaimers() {
  static const std::vector<std::string> kNames = {
      "debra", "token", "qsbr", "rcu", "ibr",
      "nbr",   "nbrplus", "he", "hp",  "wfe"};
  return kNames;
}

const std::vector<std::string>& reclaimer_names() {
  static const std::vector<std::string> kNames = {
      "none", "qsbr", "rcu", "debra", "hp",  "he",
      "ibr",  "wfe",  "nbr", "nbrplus", "token_naive",
      "token_passfirst", "token"};
  return kNames;
}

const std::vector<std::string>& all_factory_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const ReclaimerSpec& spec : all_specs()) {
      names.push_back(reclaimer_name(spec));
    }
    return names;
  }();
  return kNames;
}

}  // namespace emr::smr
