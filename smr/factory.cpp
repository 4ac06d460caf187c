#include "smr/factory.hpp"

#include <stdexcept>

#include "smr/free_schedule.hpp"
#include "smr/internal.hpp"
#include "smr/pooling_executor.hpp"

namespace emr::smr {

namespace {

using internal::EbrOptions;
using internal::EraVariant;
using internal::TokenOptions;
using internal::TokenPolicy;

enum class ExecKind { kBatch, kAmortized, kPooling };

std::unique_ptr<FreeExecutor> make_executor(ExecKind kind,
                                            const SmrContext& ctx,
                                            const SmrConfig& cfg,
                                            FreeSchedule* schedule) {
  switch (kind) {
    case ExecKind::kBatch:
      return std::make_unique<BatchFreeExecutor>(ctx, cfg, schedule);
    case ExecKind::kAmortized:
      return std::make_unique<AmortizedFreeExecutor>(ctx, cfg, schedule);
    case ExecKind::kPooling:
      return std::make_unique<PoolingFreeExecutor>(ctx, cfg, schedule);
  }
  return nullptr;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() > suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The multi-word token variants are whole names, not suffixed forms of
/// "token".
bool takes_suffix(const std::string& name) {
  return name != "token_naive" && name != "token_passfirst";
}

}  // namespace

std::string reclaimer_base_name(const std::string& name) {
  // "_hf" (home-flush) is the outermost suffix: it composes with every
  // suffixable form (hp_hf, hp_af_hf, token_adaptive_hf), so strip it
  // before the schedule suffix.
  std::string rest = name;
  if (ends_with(rest, "_hf")) rest = rest.substr(0, rest.size() - 3);
  if (takes_suffix(rest)) {
    if (ends_with(rest, "_af")) return rest.substr(0, rest.size() - 3);
    if (ends_with(rest, "_pool")) return rest.substr(0, rest.size() - 5);
    if (ends_with(rest, "_adaptive")) {
      return rest.substr(0, rest.size() - 9);
    }
  }
  return rest;
}

ReclaimerBundle make_reclaimer(const std::string& name, const SmrContext& ctx,
                               const SmrConfig& cfg) {
  if (ctx.allocator == nullptr) {
    throw std::invalid_argument("make_reclaimer: SmrContext.allocator unset");
  }

  // Split off the trailing home-flush marker first ("hp_af_hf" ->
  // "hp_af" + routing on), then the free-schedule suffix.
  // SmrConfig::home_flush ("on"/"off", EMR_HOME_FLUSH) overrides the
  // name-derived setting either way, so one binary can A/B the routing
  // layer without renaming its reclaimer column.
  const bool named_hf = ends_with(name, "_hf");
  bool hf = named_hf;
  const std::string stem =
      named_hf ? name.substr(0, name.size() - 3) : name;
  if (!cfg.home_flush.empty()) {
    if (cfg.home_flush == "on") {
      hf = true;
    } else if (cfg.home_flush == "off") {
      hf = false;
    } else {
      throw std::invalid_argument(
          "invalid SmrConfig::home_flush: '" + cfg.home_flush +
          "' (EMR_HOME_FLUSH must be \"on\" or \"off\")");
    }
  }

  // Suffixed forms of the fixed token variants ("token_naive_af",
  // "token_naive_hf") are not in the name grammar — reject them rather
  // than constructing an untested combination.
  const std::string base = reclaimer_base_name(stem);
  const std::string suffix = stem.substr(base.size());
  if (!takes_suffix(base) && base != name) {
    throw std::invalid_argument("unknown reclaimer: " + name);
  }
  ExecKind exec = ExecKind::kBatch;
  ScheduleKind sched = ScheduleKind::kFixed;
  if (suffix == "_af") {
    exec = ExecKind::kAmortized;
  } else if (suffix == "_pool") {
    exec = ExecKind::kPooling;
  } else if (suffix == "_adaptive") {
    // The adaptive variants amortize like _af, but the drain quantum and
    // seal/scan thresholds come from the population-aware controller.
    exec = ExecKind::kAmortized;
    sched = ScheduleKind::kAdaptive;
  }

  ReclaimerBundle bundle;
  // SmrConfig::schedule ("fixed" | "adaptive", EMR_SCHEDULE) overrides
  // the suffix-derived kind inside make_free_schedule.
  bundle.schedule = make_free_schedule(sched, cfg);
  bundle.executor = make_executor(exec, ctx, cfg, bundle.schedule.get());
  bundle.executor->set_home_flush(hf);

  // Token family.
  TokenOptions topt;
  bool is_token = true;
  if (base == "token_naive") {
    topt = {"token_naive", TokenPolicy::kNaive};
  } else if (base == "token_passfirst") {
    topt = {"token_passfirst", TokenPolicy::kPassFirst};
  } else if (base == "token") {
    if (suffix.empty()) {
      topt = {"token", TokenPolicy::kPeriodic};
    } else {
      topt = {suffix == "_af"     ? "token_af"
              : suffix == "_pool" ? "token_pool"
                                  : "token_adaptive",
              TokenPolicy::kHandOff};
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
    for (const std::string& base : reclaimer_names()) {
      if (!takes_suffix(base)) {
        names.push_back(base);
        continue;
      }
      // Every form, then the home-flush twin of every form.
      for (const char* routing : {"", "_hf"}) {
        for (const char* form : {"", "_af", "_pool", "_adaptive"}) {
          names.push_back(base + form + routing);
        }
      }
    }
    return names;
  }();
  return kNames;
}

}  // namespace emr::smr
