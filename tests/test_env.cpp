// EMR_* environment parsing and override precedence: unset variables
// must never clobber caller-set defaults (the regression the seed's
// bench_common.hpp shipped with).
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/env.hpp"
#include "harness/workload.hpp"

namespace {

using namespace emr;

/// Scoped setenv/unsetenv so tests cannot leak state into each other.
class EnvGuard {
 public:
  ~EnvGuard() {
    for (const std::string& name : touched_) ::unsetenv(name.c_str());
  }
  void set(const char* name, const char* value) {
    touched_.push_back(name);
    ::setenv(name, value, 1);
  }
  void unset(const char* name) {
    touched_.push_back(name);
    ::unsetenv(name);
  }

 private:
  std::vector<std::string> touched_;
};

TEST(Env, I64ParsesAndFallsBack) {
  EnvGuard env;
  env.unset("EMR_TEST_I64");
  EXPECT_EQ(env_i64("EMR_TEST_I64", 7), 7);
  EXPECT_FALSE(env_has("EMR_TEST_I64"));

  env.set("EMR_TEST_I64", "123");
  EXPECT_EQ(env_i64("EMR_TEST_I64", 7), 123);
  EXPECT_TRUE(env_has("EMR_TEST_I64"));

  env.set("EMR_TEST_I64", "-5");
  EXPECT_EQ(env_i64("EMR_TEST_I64", 7), -5);

  env.set("EMR_TEST_I64", "notanumber");
  EXPECT_EQ(env_i64("EMR_TEST_I64", 7), 7);
}

TEST(Env, ThreadListParsing) {
  EnvGuard env;
  env.set("EMR_THREADS", "1 2 4");
  EXPECT_EQ(emr::harness::thread_sweep_from_env({8}),
            (std::vector<int>{1, 2, 4}));

  env.set("EMR_THREADS", "6,12,24");
  EXPECT_EQ(emr::harness::thread_sweep_from_env({8}),
            (std::vector<int>{6, 12, 24}));

  env.unset("EMR_THREADS");
  EXPECT_EQ(emr::harness::thread_sweep_from_env({8, 16}),
            (std::vector<int>{8, 16}));

  env.set("EMR_THREADS", "garbage");
  EXPECT_EQ(emr::harness::thread_sweep_from_env({3}),
            (std::vector<int>{3}));
}

TEST(Env, ThreadListRejectsMalformedTokensWholesale) {
  // Regression: a typo'd EMR_THREADS used to silently drop the bad
  // tokens and run a shrunken sweep. Any malformed token now rejects
  // the whole variable (warning to stderr) and the default sweep runs.
  EnvGuard env;

  env.set("EMR_THREADS", "4 garbage 8");  // good tokens must not survive
  EXPECT_EQ(emr::harness::thread_sweep_from_env({1, 2}),
            (std::vector<int>{1, 2}));

  env.set("EMR_THREADS", "4x");  // trailing junk on a number
  EXPECT_EQ(emr::harness::thread_sweep_from_env({5}),
            (std::vector<int>{5}));

  env.set("EMR_THREADS", "0");  // zero threads is not a sweep column
  EXPECT_EQ(emr::harness::thread_sweep_from_env({5}),
            (std::vector<int>{5}));

  env.set("EMR_THREADS", "-3,8");
  EXPECT_EQ(emr::harness::thread_sweep_from_env({5}),
            (std::vector<int>{5}));

  env.set("EMR_THREADS", "");  // present but empty: treated as unset
  EXPECT_EQ(emr::harness::thread_sweep_from_env({7}),
            (std::vector<int>{7}));

  // Both separators still parse, mixed and with stray whitespace.
  env.set("EMR_THREADS", " 2,  4 8,");
  EXPECT_EQ(emr::harness::thread_sweep_from_env({5}),
            (std::vector<int>{2, 4, 8}));
}

TEST(Env, ChurnSweepRejectsMalformedTokensWholesale) {
  // A typo must not shrink the sweep: "50 2O 10" is one bad token, not
  // the churn intervals {50, 2, 10}.
  EnvGuard env;
  env.unset("EMR_CHURN_SWEEP");
  EXPECT_EQ(harness::churn_sweep_from_env({50, 20, 10}),
            (std::vector<int>{0, 50, 20, 10}));

  env.set("EMR_CHURN_SWEEP", "40,5");
  EXPECT_EQ(harness::churn_sweep_from_env({20}),
            (std::vector<int>{0, 40, 5}));

  env.set("EMR_CHURN_SWEEP", "50 2O 10");
  testing::internal::CaptureStderr();
  const std::vector<int> sweep = harness::churn_sweep_from_env({50, 20, 10});
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_EQ(sweep, (std::vector<int>{0, 50, 20, 10}));
  EXPECT_NE(warning.find("'2O'"), std::string::npos) << warning;
}

TEST(Env, IntListStrictReportsTheBadToken) {
  EnvGuard env;
  std::vector<int> out;
  std::string bad;

  env.unset("EMR_TEST_LIST");
  EXPECT_TRUE(emr::env_int_list_strict("EMR_TEST_LIST", &out, &bad));
  EXPECT_TRUE(out.empty());

  env.set("EMR_TEST_LIST", "6,12,24");
  EXPECT_TRUE(emr::env_int_list_strict("EMR_TEST_LIST", &out, &bad));
  EXPECT_EQ(out, (std::vector<int>{6, 12, 24}));

  env.set("EMR_TEST_LIST", "6 nope 24");
  EXPECT_FALSE(emr::env_int_list_strict("EMR_TEST_LIST", &out, &bad));
  EXPECT_EQ(bad, "nope");

  env.set("EMR_TEST_LIST", "6 -12 24");
  EXPECT_FALSE(emr::env_int_list_strict("EMR_TEST_LIST", &out, &bad));
  EXPECT_EQ(bad, "-12");

  env.set("EMR_TEST_LIST", "6 12x 24");
  EXPECT_FALSE(emr::env_int_list_strict("EMR_TEST_LIST", &out, &bad));
  EXPECT_EQ(bad, "12x");
}

TEST(Env, OverridePrecedenceBatchAndPenalty) {
  EnvGuard env;
  env.unset("EMR_BATCH");
  env.unset("EMR_REMOTE_PENALTY_NS");

  harness::TrialConfig cfg;
  cfg.smr.batch_size = 2048;
  cfg.alloc.remote_free_penalty_ns = 150;
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.smr.batch_size, 2048u);
  EXPECT_EQ(cfg.alloc.remote_free_penalty_ns, 150u);

  env.set("EMR_BATCH", "32768");
  env.set("EMR_REMOTE_PENALTY_NS", "0");  // explicit zero must win too
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.smr.batch_size, 32768u);
  EXPECT_EQ(cfg.alloc.remote_free_penalty_ns, 0u);
}

TEST(Env, DefaultsWinWhenUnset) {
  // Regression for the seed bug: config_from_env()'s values used to
  // overwrite caller defaults even with no EMR_* variable present.
  EnvGuard env;
  env.unset("EMR_DS");
  env.unset("EMR_RECLAIMER");
  env.unset("EMR_ALLOC");

  harness::TrialConfig cfg;
  cfg.ds = "occtree";
  cfg.reclaimer = "token_af";
  cfg.allocator = "mi";
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.ds, "occtree");
  EXPECT_EQ(cfg.reclaimer, "token_af");
  EXPECT_EQ(cfg.allocator, "mi");

  env.set("EMR_RECLAIMER", "hp");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.reclaimer, "hp");
  EXPECT_EQ(cfg.ds, "occtree");  // untouched fields stay put
}

TEST(Env, ConfigFromEnvUsesEnv) {
  EnvGuard env;
  env.set("EMR_MS", "77");
  env.set("EMR_TRIALS", "3");
  env.set("EMR_KEYRANGE", "100000");
  env.set("EMR_SEED", "9");
  const harness::TrialConfig cfg = harness::config_from_env();
  EXPECT_EQ(cfg.measure_ms, 77);
  EXPECT_EQ(cfg.trials, 3);
  EXPECT_EQ(cfg.keyrange, 100000u);
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(Env, ScheduleKnobsOverrideAndValidate) {
  EnvGuard env;
  env.unset("EMR_DRAIN_MIN");
  env.unset("EMR_DRAIN_MAX");
  env.unset("EMR_POOL_CAP");
  env.unset("EMR_EXTRA_SLOTS");

  harness::TrialConfig cfg;
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.smr.drain_min, 1u);  // silent env leaves defaults alone
  EXPECT_EQ(cfg.smr.drain_max, 64u);
  EXPECT_EQ(cfg.smr.pool_cap, 0u);
  EXPECT_EQ(cfg.smr.extra_slots, 2u);

  env.set("EMR_DRAIN_MIN", "2");
  env.set("EMR_DRAIN_MAX", "128");
  env.set("EMR_POOL_CAP", "4096");
  env.set("EMR_EXTRA_SLOTS", "5");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.smr.drain_min, 2u);
  EXPECT_EQ(cfg.smr.drain_max, 128u);
  EXPECT_EQ(cfg.smr.pool_cap, 4096u);
  EXPECT_EQ(cfg.smr.extra_slots, 5u);

  // Nonsensical values fail fast instead of being silently repaired.
  env.set("EMR_POOL_CAP", "0");
  EXPECT_THROW(harness::apply_env_overrides(cfg), std::invalid_argument);
  env.set("EMR_POOL_CAP", "-3");
  EXPECT_THROW(harness::apply_env_overrides(cfg), std::invalid_argument);
  env.set("EMR_POOL_CAP", "512");
  env.set("EMR_EXTRA_SLOTS", "0");
  EXPECT_THROW(harness::apply_env_overrides(cfg), std::invalid_argument);
  env.set("EMR_EXTRA_SLOTS", "2");
  env.set("EMR_DRAIN_MIN", "0");
  EXPECT_THROW(harness::apply_env_overrides(cfg), std::invalid_argument);
  env.set("EMR_DRAIN_MIN", "2");
  env.set("EMR_DRAIN_MAX", "-1");
  EXPECT_THROW(harness::apply_env_overrides(cfg), std::invalid_argument);
}

TEST(Env, ServiceKnobsOverrideOnlyWhenPresent) {
  EnvGuard env;
  env.unset("EMR_ARRIVAL");
  env.unset("EMR_RATE_OPS");
  env.unset("EMR_ZIPF_S");
  env.unset("EMR_PHASES");
  env.unset("EMR_RECLAIMER_DAEMON");
  env.unset("EMR_DAEMON_MS");

  harness::TrialConfig cfg;
  cfg.rate_ops = 12'345;
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.arrival, "closed");  // silent env leaves defaults alone
  EXPECT_DOUBLE_EQ(cfg.rate_ops, 12'345);
  EXPECT_DOUBLE_EQ(cfg.zipf_s, 0.0);
  EXPECT_EQ(cfg.phases, (std::vector<double>{1.0}));
  EXPECT_EQ(cfg.reclaimer_daemon, "off");
  EXPECT_EQ(cfg.daemon_period_ms, 1);

  env.set("EMR_ARRIVAL", "poisson");
  env.set("EMR_RATE_OPS", "250000");
  env.set("EMR_ZIPF_S", "0.99");
  env.set("EMR_PHASES", "2,0.05");
  env.set("EMR_RECLAIMER_DAEMON", "aggressive");
  env.set("EMR_DAEMON_MS", "5");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.arrival, "poisson");
  EXPECT_DOUBLE_EQ(cfg.rate_ops, 250000.0);
  EXPECT_DOUBLE_EQ(cfg.zipf_s, 0.99);
  EXPECT_EQ(cfg.phases, (std::vector<double>{2.0, 0.05}));
  EXPECT_EQ(cfg.reclaimer_daemon, "aggressive");
  EXPECT_EQ(cfg.daemon_period_ms, 5);
  harness::validate_config(cfg);  // the combination is coherent
}

TEST(Env, ServiceListKnobsRejectBadTokensNamingThem) {
  EnvGuard env;
  harness::TrialConfig cfg;

  env.set("EMR_PHASES", "2 nope 0.05");
  try {
    harness::apply_env_overrides(cfg);
    FAIL() << "bad EMR_PHASES token must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("EMR_PHASES"), std::string::npos) << what;
    EXPECT_NE(what.find("nope"), std::string::npos) << what;
  }
}

TEST(Env, ServiceKnobValidationNamesTheRange) {
  // validate_config owns the range checks the overrides deliberately
  // leave unclamped; every rejection names the field and its valid
  // range instead of silently repairing the value.
  auto expect_naming = [](harness::TrialConfig cfg, const char* needle) {
    try {
      harness::validate_config(cfg);
      FAIL() << "expected std::invalid_argument naming " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  harness::TrialConfig cfg;
  cfg.arrival = "open";
  expect_naming(cfg, "closed poisson burst");

  cfg = harness::TrialConfig();
  cfg.rate_ops = -1;
  expect_naming(cfg, "rate_ops");
  cfg.rate_ops = 0;
  expect_naming(cfg, "> 0 ops/sec");

  cfg = harness::TrialConfig();
  cfg.zipf_s = -0.5;
  expect_naming(cfg, "zipf_s");

  cfg = harness::TrialConfig();
  cfg.phases = {};
  expect_naming(cfg, "phases");
  cfg.phases = {1.0, -2.0};
  expect_naming(cfg, "phase multiplier");

  cfg = harness::TrialConfig();
  cfg.reclaimer_daemon = "turbo";
  expect_naming(cfg, "off optimistic aggressive");

  cfg = harness::TrialConfig();
  cfg.daemon_period_ms = 0;
  expect_naming(cfg, "daemon_period_ms");

  // Open-loop schedules past the generation cap are rejected up front,
  // before a multi-gigabyte schedule is materialized.
  cfg = harness::TrialConfig();
  cfg.arrival = "poisson";
  cfg.rate_ops = 1e12;
  expect_naming(cfg, "lower rate_ops or measure_ms");

  // The same config in closed-loop mode is fine: the cap only guards
  // schedule generation.
  cfg.arrival = "closed";
  harness::validate_config(cfg);
}

TEST(Env, PipelineKnobsOverrideOnlyWhenPresent) {
  EnvGuard env;
  env.unset("EMR_WORKLOAD");
  env.unset("EMR_PRODUCERS");
  env.unset("EMR_QUEUE_CAP");

  harness::TrialConfig cfg;
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.workload, "set");  // silent env leaves defaults alone
  EXPECT_EQ(cfg.producers, 0);
  EXPECT_EQ(cfg.queue_cap, 0u);

  env.set("EMR_WORKLOAD", "pipeline");
  env.set("EMR_PRODUCERS", "2");
  env.set("EMR_QUEUE_CAP", "8192");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.workload, "pipeline");
  EXPECT_EQ(cfg.producers, 2);
  EXPECT_EQ(cfg.queue_cap, 8192u);
  cfg.ds = "msqueue";
  harness::validate_config(cfg);  // the combination is coherent

  // A negative capacity is nonsense at the env layer already (0 means
  // unbounded, there is no smaller queue).
  env.set("EMR_QUEUE_CAP", "-1");
  EXPECT_THROW(harness::apply_env_overrides(cfg), std::invalid_argument);
}

TEST(Env, PipelineKnobValidationNamesTheRange) {
  auto expect_naming = [](harness::TrialConfig cfg, const char* needle) {
    try {
      harness::validate_config(cfg);
      FAIL() << "expected std::invalid_argument naming " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Unknown workload names fail fast, naming the valid choices.
  harness::TrialConfig cfg;
  cfg.workload = "queue";
  expect_naming(cfg, "set pipeline");

  // Pipeline knobs are meaningless on the set workload: reject rather
  // than silently ignore them.
  cfg = harness::TrialConfig();
  cfg.producers = 2;
  expect_naming(cfg, "pipeline");
  cfg = harness::TrialConfig();
  cfg.queue_cap = 1024;
  expect_naming(cfg, "pipeline");

  // The pipeline workload drives a queue, not a set.
  cfg = harness::TrialConfig();
  cfg.workload = "pipeline";
  cfg.ds = "abtree";
  expect_naming(cfg, "msqueue lockedqueue");

  // A role split needs at least one consumer; producers == nthreads
  // would leave the queue growing unboundedly with nobody dequeueing.
  cfg = harness::TrialConfig();
  cfg.workload = "pipeline";
  cfg.ds = "msqueue";
  cfg.nthreads = 4;
  cfg.producers = 4;
  expect_naming(cfg, "producers < nthreads");
  cfg.producers = -1;
  expect_naming(cfg, "producers");
  cfg.producers = 3;
  harness::validate_config(cfg);  // 3+1 split is fine

  // Pipeline mode is closed-loop only: the open-loop arrival schedule
  // draws set ops.
  cfg = harness::TrialConfig();
  cfg.workload = "pipeline";
  cfg.ds = "msqueue";
  cfg.arrival = "poisson";
  cfg.rate_ops = 1000;
  expect_naming(cfg, "closed-loop");
}

TEST(Env, PinKnobOverridesAndValidates) {
  EnvGuard env;
  env.unset("EMR_PIN");

  harness::TrialConfig cfg;
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.pin, "off");  // silent env leaves the default alone

  env.set("EMR_PIN", "compact");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.pin, "compact");
  harness::validate_config(cfg);

  cfg.pin = "scatter";
  harness::validate_config(cfg);

  // A malformed layout fails fast in validate_config, naming the
  // choices.
  harness::TrialConfig bad;
  bad.pin = "numa";
  try {
    harness::validate_config(bad);
    FAIL() << "expected std::invalid_argument naming the layouts";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("off compact scatter"),
              std::string::npos)
        << e.what();
  }
}

TEST(Env, RemotePenaltyKnobRejectsMalformedValues) {
  // The knob is the only source of the charged penalty, so a typo must
  // fail fast naming it instead of running the caller's default.
  EnvGuard env;
  harness::TrialConfig cfg;
  cfg.alloc.remote_free_penalty_ns = 150;

  env.set("EMR_REMOTE_PENALTY_NS", "0");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.alloc.remote_free_penalty_ns, 0u);

  env.set("EMR_REMOTE_PENALTY_NS", "275");
  harness::apply_env_overrides(cfg);
  EXPECT_EQ(cfg.alloc.remote_free_penalty_ns, 275u);

  for (const char* bad : {"abc", "-5"}) {
    env.set("EMR_REMOTE_PENALTY_NS", bad);
    try {
      harness::apply_env_overrides(cfg);
      FAIL() << "expected std::invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("EMR_REMOTE_PENALTY_NS"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Env, F64AndStr) {
  EnvGuard env;
  env.set("EMR_TEST_F", "0.75");
  EXPECT_DOUBLE_EQ(env_f64("EMR_TEST_F", 0.5), 0.75);
  env.unset("EMR_TEST_F");
  EXPECT_DOUBLE_EQ(env_f64("EMR_TEST_F", 0.5), 0.5);

  env.set("EMR_TEST_S", "hello");
  EXPECT_EQ(env_str("EMR_TEST_S", "d"), "hello");
  env.unset("EMR_TEST_S");
  EXPECT_EQ(env_str("EMR_TEST_S", "d"), "d");
}

}  // namespace
