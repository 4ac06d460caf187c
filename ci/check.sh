#!/usr/bin/env bash
# CI smoke: configure + build + ctest + every paper figure end to end at
# smoke scale. Mirrors the tier-1 verify line in ROADMAP.md.
#
# Configure and build stop the script at the first error. Every later
# step runs even when an earlier one failed: each failure is named as
# it happens and again in the summary, and the script exits non-zero
# at the end if any step failed.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"

set +e
FAILED=()
# step NAME CMD...: runs one check and records its failure by NAME.
step() {
  local name="$1"
  shift
  echo "ci/check.sh: -- $name"
  if "$@"; then return 0; fi
  echo "ci/check.sh: step FAILED: $name" >&2
  FAILED+=("$name")
  return 1
}

# smoke_json BENCH JSON: a figure smoke that also writes its table to
# $BUILD_DIR/JSON and fails on a missing or empty file. CI never touches
# the committed snapshot of the same name at the repo root: test_report
# parses that one, and it is refreshed by hand from a passing smoke
# (EXPERIMENTS.md, "Refreshing the committed snapshots").
smoke_json() {
  rm -f "$BUILD_DIR/$2"
  "$BUILD_DIR/$1" --smoke --json "$BUILD_DIR/$2" && test -s "$BUILD_DIR/$2"
}

step ctest ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# Reclaimer smoke: every one of the 90 factory names (each base in its
# batch, _af, _pool and _adaptive forms and their _hf twins) constructs,
# accounts exactly, and no pointer-protecting name falls back to EBR
# aliasing (the binary exits non-zero on either violation).
step micro-smr "$BUILD_DIR/bench_micro_smr" --smoke

# Data-structure smoke: every ds x base-reclaimer pair model-checks
# against std::set and accounts every node at teardown.
step micro-ds "$BUILD_DIR/bench_micro_ds" --smoke

# Allocator smoke: every factory name keeps exact books (alloc/free
# counts, remote attribution, the >4096 B large-allocation bypass).
step micro-alloc "$BUILD_DIR/bench_micro_alloc" --smoke

# Determinism gate: with EMR_PIN=off and model allocators under a fixed
# seed, the counter-only smoke output must be bit-identical run to run
# (and hence identical to the pre-hardware-realism harness — neither
# pinning defaults nor the TSC clock may leak into the modelled
# counters).
determinism() {
  EMR_PIN=off EMR_SEED=42 "$BUILD_DIR/bench_micro_alloc" --smoke \
    > "$BUILD_DIR/det_a.txt" || return 1
  EMR_PIN=off EMR_SEED=42 "$BUILD_DIR/bench_micro_alloc" --smoke \
    > "$BUILD_DIR/det_b.txt" || return 1
  if ! diff -u "$BUILD_DIR/det_a.txt" "$BUILD_DIR/det_b.txt"; then
    echo "ci/check.sh: bench_micro_alloc --smoke is not deterministic" \
         "under EMR_PIN=off with model allocators" >&2
    return 1
  fi
}
step determinism determinism

# Thread-churn smoke: every Experiment-2 reclaimer (batched and _af)
# survives workers deregistering/registering mid-trial — progress under
# churn, pending == 0 and an empty executor backlog after teardown.
step churn "$BUILD_DIR/bench_ablation_churn" --smoke

# Free-schedule smoke: every Experiment-2 reclaimer in batch, _af and
# _adaptive form runs under churn and accounts exactly; aggregated over
# the set, the adaptive schedule's peak garbage stays within 2x of _af
# while the fixed batch schedule remains the worst case.
step adaptive "$BUILD_DIR/bench_ablation_adaptive" --smoke

# Tail-latency smoke (docs/LATENCY.md): fixed-batch p99.9 blows up by
# multiples while mops stays flat.
step fig-latency smoke_json bench_fig_latency BENCH_fig_latency.json

# Service-mode smoke (docs/SERVICE_MODE.md): the offered schedule is
# deterministic per seed, open-loop queueing p99.9 explodes
# past saturation while the served rate stays in the capacity band, and
# on the churn scenario the aggressive daemon clears the idle-tail
# garbage that daemon-off strands.
step fig-service smoke_json bench_fig_service BENCH_fig_service.json

# Queue-pipeline smoke (docs/DATA_STRUCTURES.md): the MPMC queue under the
# role-split workload — the asymmetric layout must charge a higher
# remote-free share than the symmetric one, and its fixed-batch dequeue
# p99.9 must blow past 2x the _af tail at comparable mops, over two
# seeds.
step fig-queue smoke_json bench_fig_queue BENCH_fig_queue.json

# Home-flush routing smoke (docs/FREE_SCHEDULES.md): on the asymmetric
# pipeline the _hf forms must reroute foreign frees home — remote share
# collapses from >= 0.9 (plain _af) to <= 0.25, the dequeue p99.9
# improves without a throughput loss over two seeds, and the stash
# ledger balances exactly (stashed == flushed, zero backlog at
# teardown).
step fig-homeflush smoke_json bench_fig_homeflush BENCH_fig_homeflush.json

# Policy-layer invariant: executors and scheme TUs ask the FreeSchedule
# for every batching quantum; only smr/free_schedule.cpp may read the
# raw SmrConfig batching knobs.
policy_gate() {
  if grep -nE 'cfg_?\.\s*(batch_size|af_drain_per_op|latency_target_us|flush_batch)' \
      smr/free_executor.hpp smr/free_executor.cpp smr/ebr.cpp \
      smr/token.cpp smr/hp.cpp smr/he_ibr_wfe.cpp smr/nbr.cpp; then
    echo "ci/check.sh: executor/scheme TU reads a raw batching knob —" \
         "route it through FreeSchedule (smr/free_schedule.cpp)" >&2
    return 1
  fi
}
step policy-gate policy_gate

# Ledger invariant (docs/SMR_SCHEMES.md, "Ledger and shared writes"):
# retired and freed are counted on each lane's own line (LaneState) and
# summed on read; no executor or scheme TU may declare a bundle-wide
# retired_/freed_ counter that every retire or free would write.
ledger_gate() {
  if grep -nE '\b(retired|freed)_\s*(\{|;|=)' \
      smr/reclaimer.hpp smr/free_executor.hpp smr/free_executor.cpp \
      smr/ebr.cpp smr/token.cpp smr/hp.cpp smr/he_ibr_wfe.cpp \
      smr/nbr.cpp; then
    echo "ci/check.sh: bundle-wide retired_/freed_ counter declared —" \
         "count the ledger in FreeExecutor::LaneState" >&2
    return 1
  fi
}
step ledger-gate ledger_gate

# Latency boundary: the per-op latency recorder and its percentile math
# belong to the harness. No free-schedule policy steers by a tail
# signal, so no file under smr/ has a reason to touch them.
latency_gate() {
  if grep -rnE 'LatencyRecorder|LatencyHistogram|latency_percentile|core/latency\.hpp' smr/; then
    echo "ci/check.sh: smr/ touches the latency recorder —" \
         "per-op latency is measured by the harness only" >&2
    return 1
  fi
}
step latency-gate latency_gate

# Name grammar (smr/factory.hpp): a reclaimer name is parsed only by
# smr::parse_reclaimer and spelled only by smr::reclaimer_name;
# everything else asks its ReclaimerSpec instead of testing for, or
# appending, a form or `_hf` suffix by hand.
grammar_gate() {
  if grep -rnE \
      -e '(ends_with|compare|strstr|find)\([^;]*"_(af|hf|pool|adaptive)"' \
      -e '(\+=?\s*|std::string\()"_(af|hf|pool|adaptive)"' \
      smr harness bench tests | grep -v '^smr/factory\.cpp:'; then
    echo "ci/check.sh: reclaimer-name suffix tested or appended by hand —" \
         "use smr::parse_reclaimer / smr::reclaimer_name" \
         "(smr/factory.hpp)" >&2
    return 1
  fi
}
step grammar-gate grammar_gate

# End-to-end: every paper figure, table and ablation at the size
# bench_paper --smoke fixes; each cell must account exactly and each CSV
# must hold a data row.
step paper env EMR_OUT="$BUILD_DIR/emr_out" "$BUILD_DIR/bench_paper" --smoke

# TSAN: race-check the lock-free guarded traversals on every run. The
# sanitized tree skips the bench binaries to keep the double build cheap;
# the filter runs the multi-threaded reader/writer stress over every
# guard protocol (debra/hp/ibr/nbr/debra_pool x abtree/occtree/dgt).
TSAN_DIR="${TSAN_DIR:-build-tsan}"
tsan_build() {
  cmake -B "$TSAN_DIR" -S . -DEMR_SANITIZE=thread -DEMR_BUILD_BENCHES=OFF &&
    cmake --build "$TSAN_DIR" -j"$JOBS"
}
if ! step tsan-build tsan_build; then
  echo "ci/check.sh: TSAN tree did not build, skipping the TSAN race checks"
elif [ -x "$TSAN_DIR/test_ds" ]; then
  step tsan-ds "$TSAN_DIR/test_ds" --gtest_filter='*Concurrent*'
  # Queue producer/consumer churn: the MS queue's guarded per-hop
  # traversal (and the locked baseline) race retirement across every
  # guard protocol, with FIFO-per-producer and no-loss checks on top.
  step tsan-queue "$TSAN_DIR/test_queue" --gtest_filter='*Concurrent*'
  # ThreadHandle churn stress: register/deregister racing guarded
  # traversals over every reclaimer family (including the _adaptive
  # forms — the adaptive schedule over the amortized executor — whose
  # lane-stats counters feed the controller).
  step tsan-handles "$TSAN_DIR/test_handle_lifecycle" \
    --gtest_filter='*ChurnStress*'
  # Adaptive-executor lane-stats counters: a stats_with_lanes reader
  # races registration churn and retire-heavy lanes.
  step tsan-schedule "$TSAN_DIR/test_free_schedule" \
    --gtest_filter='*Concurrent*'
  # Reclaimer-daemon stress: daemon start/stop cycles racing
  # ThreadHandle register/deregister churn and retires across every
  # reclaimer family, with exact ledger checks after the dust settles.
  step tsan-daemon-churn "$TSAN_DIR/test_service" \
    --gtest_filter='*DaemonChurn*'
  # Home-flush MPSC stash: many producer lanes push one owner's stash
  # while the owner concurrently flushes — no loss, no double free,
  # exact stashed == flushed ledger after teardown.
  step tsan-homeflush "$TSAN_DIR/test_homeflush" --gtest_filter='*Concurrent*'
  # Trial::run end to end: its worker, churn, sampler and daemon threads
  # over the closed-loop, pipeline and service op sources, including
  # the daemon's window opening with the measured one.
  step tsan-trial "$TSAN_DIR/test_workload" --gtest_filter='TrialTest.*'
  step tsan-daemon-trial "$TSAN_DIR/test_service" \
    --gtest_filter='DaemonTrialTest.*'
else
  # Without GTest the unit suites (and this race check) don't build;
  # mirror the main build's degrade-with-a-warning behaviour.
  echo "ci/check.sh: GTest not found, skipping the TSAN ds race check"
fi

if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "ci/check.sh: ${#FAILED[@]} step(s) FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "ci/check.sh: OK"
