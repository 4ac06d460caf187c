#!/usr/bin/env bash
# CI smoke: configure + build + ctest + one figure bench end-to-end at
# laptop scale. Mirrors the tier-1 verify line in ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# Reclaimer smoke: every factory name (all bases x batch/_af/_pool)
# constructs, accounts exactly, and no pointer-protecting name falls
# back to EBR aliasing (the binary exits non-zero on either violation).
"$BUILD_DIR/bench_micro_smr" --smoke

# Data-structure smoke: every ds x base-reclaimer pair model-checks
# against std::set and accounts every node at teardown.
"$BUILD_DIR/bench_micro_ds" --smoke

# Allocator smoke: every factory name keeps exact books (alloc/free
# counts, remote attribution, the >4096 B large-allocation bypass);
# unavailable real backends are reported as skips, never failures.
"$BUILD_DIR/bench_micro_alloc" --smoke

# Determinism gate: with EMR_PIN=off and model allocators under a fixed
# seed, the counter-only smoke output must be bit-identical run to run
# (and hence identical to the pre-hardware-realism harness — neither
# pinning defaults, calibration on a box where it can't measure, nor
# the TSC clock may leak into the modelled counters).
EMR_PIN=off EMR_SEED=42 "$BUILD_DIR/bench_micro_alloc" --smoke > "$BUILD_DIR/det_a.txt"
EMR_PIN=off EMR_SEED=42 "$BUILD_DIR/bench_micro_alloc" --smoke > "$BUILD_DIR/det_b.txt"
if ! diff -u "$BUILD_DIR/det_a.txt" "$BUILD_DIR/det_b.txt"; then
  echo "ci/check.sh: bench_micro_alloc --smoke is not deterministic" \
       "under EMR_PIN=off with model allocators" >&2
  exit 1
fi

# Thread-churn smoke: every Experiment-2 reclaimer (batched and _af)
# survives workers deregistering/registering mid-trial — progress under
# churn, pending == 0 and an empty executor backlog after teardown.
"$BUILD_DIR/bench_ablation_churn" --smoke

# Free-schedule smoke: every Experiment-2 reclaimer in batch, _af and
# _adaptive form runs under churn and accounts exactly; aggregated over
# the set, the adaptive schedule's peak garbage stays within 2x of _af
# while the fixed batch schedule remains the worst case.
"$BUILD_DIR/bench_ablation_adaptive" --smoke

# Tail-latency smoke: the figure behind ROADMAP item 2 — fixed-batch
# p99.9 blows up by multiples while mops stays flat, and the _latency
# schedule pulls the tail back inside its target band. Writes the
# committed snapshot at the repo root (test_report parses it strictly).
"$BUILD_DIR/bench_fig_latency" --smoke --json BENCH_fig_latency.json
test -s BENCH_fig_latency.json

# Service-mode smoke (ROADMAP item 3, docs/SERVICE_MODE.md): the offered
# schedule is deterministic per seed, open-loop queueing p99.9 explodes
# past saturation while the served rate stays in the capacity band, and
# on the hot/cold-tenant churn scenario the aggressive daemon clears the
# idle-tail garbage that daemon-off strands. Writes the committed
# snapshot at the repo root (test_report parses it strictly).
"$BUILD_DIR/bench_fig_service" --smoke --json BENCH_fig_service.json
test -s BENCH_fig_service.json

# Queue-pipeline smoke (ROADMAP items 3+4): the MPMC queue under the
# role-split workload — the asymmetric layout must charge a higher
# remote-free share than the symmetric one, and its fixed-batch dequeue
# p99.9 must blow past 2x the _af tail at comparable mops, over two
# seeds. Writes the committed snapshot at the repo root (test_report
# parses it strictly).
"$BUILD_DIR/bench_fig_queue" --smoke --json BENCH_fig_queue.json
test -s BENCH_fig_queue.json

# Home-flush routing smoke (docs/FREE_SCHEDULES.md): on the asymmetric
# pipeline the _hf forms must reroute foreign frees home — remote share
# collapses from >= 0.9 (plain _af) to <= 0.25, the dequeue p99.9
# improves without a throughput loss over two seeds, and the stash
# ledger balances exactly (stashed == flushed, zero backlog at
# teardown).
# Writes the committed snapshot at the repo root (test_report parses it
# strictly).
"$BUILD_DIR/bench_fig_homeflush" --smoke --json BENCH_fig_homeflush.json
test -s BENCH_fig_homeflush.json

# Policy-layer invariant: executors and scheme TUs ask the FreeSchedule
# for every batching quantum; only smr/free_schedule.cpp may read the
# raw SmrConfig batching knobs.
if grep -nE 'cfg_?\.\s*(batch_size|af_drain_per_op|latency_target_us|flush_batch)' \
    smr/free_executor.cpp smr/pooling_executor.hpp smr/ebr.cpp \
    smr/token.cpp smr/hp.cpp smr/he_ibr_wfe.cpp smr/nbr.cpp; then
  echo "ci/check.sh: executor/scheme TU reads a raw batching knob —" \
       "route it through FreeSchedule (smr/free_schedule.cpp)" >&2
  exit 1
fi

# Ledger invariant (docs/SMR_SCHEMES.md, "Ledger and shared writes"):
# retired and freed are counted on each lane's own line (LaneState) and
# summed on read; no executor or scheme TU may declare a bundle-wide
# retired_/freed_ counter that every retire or free would write.
if grep -nE '\b(retired|freed)_\s*(\{|;|=)' \
    smr/reclaimer.hpp smr/free_executor.hpp smr/free_executor.cpp \
    smr/pooling_executor.hpp smr/ebr.cpp smr/token.cpp smr/hp.cpp \
    smr/he_ibr_wfe.cpp smr/nbr.cpp; then
  echo "ci/check.sh: bundle-wide retired_/freed_ counter declared —" \
       "count the ledger in FreeExecutor::LaneState" >&2
  exit 1
fi

# Same boundary for the latency feedback loop: schemes and executors
# never touch the recorder or its percentile math — the harness records,
# the FreeSchedule consumes on_tail_latency.
if grep -nE 'LatencyRecorder|LatencyHistogram|latency_percentile' \
    smr/free_executor.cpp smr/pooling_executor.hpp smr/ebr.cpp \
    smr/token.cpp smr/hp.cpp smr/he_ibr_wfe.cpp smr/nbr.cpp; then
  echo "ci/check.sh: scheme TU/executor reads latency counters —" \
       "tail feedback flows only through FreeSchedule::on_tail_latency" >&2
  exit 1
fi

# End-to-end: the Figure 1 sweep must produce a non-empty table + CSV.
export EMR_MS="${EMR_MS:-30}" EMR_THREADS="${EMR_THREADS:-1 2}" \
       EMR_TRIALS=1 EMR_KEYRANGE="${EMR_KEYRANGE:-4096}" \
       EMR_OUT="$BUILD_DIR/emr_out"
"$BUILD_DIR/bench_fig01_scaling"
test -s "$BUILD_DIR/emr_out/fig01_scaling.csv"

# TSAN: race-check the lock-free guarded traversals on every run. The
# sanitized tree skips the bench binaries to keep the double build cheap;
# the filter runs the multi-threaded reader/writer stress over every
# guard protocol (debra/hp/ibr/nbr/debra_pool x abtree/occtree/dgt).
TSAN_DIR="${TSAN_DIR:-build-tsan}"
cmake -B "$TSAN_DIR" -S . -DEMR_SANITIZE=thread -DEMR_BUILD_BENCHES=OFF
cmake --build "$TSAN_DIR" -j"$JOBS"
if [ -x "$TSAN_DIR/test_ds" ]; then
  "$TSAN_DIR/test_ds" --gtest_filter='*Concurrent*'
  # Queue producer/consumer churn: the MS queue's guarded per-hop
  # traversal (and the locked baseline) race retirement across every
  # guard protocol, with FIFO-per-producer and no-loss checks on top.
  "$TSAN_DIR/test_queue" --gtest_filter='*Concurrent*'
  # ThreadHandle churn stress: register/deregister racing guarded
  # traversals over every reclaimer family (including the _adaptive
  # executors, whose lane-stats counters feed the controller).
  "$TSAN_DIR/test_handle_lifecycle" --gtest_filter='*ChurnStress*'
  # Adaptive-executor lane-stats counters: a stats_with_lanes reader
  # races registration churn and retire-heavy lanes.
  "$TSAN_DIR/test_free_schedule" --gtest_filter='*Concurrent*'
  # Reclaimer-daemon stress: daemon start/stop cycles racing
  # ThreadHandle register/deregister churn and retires across every
  # reclaimer family, with exact ledger checks after the dust settles.
  "$TSAN_DIR/test_service" --gtest_filter='*DaemonChurn*'
  # Home-flush MPSC stash: many producer lanes push one owner's stash
  # while the owner concurrently flushes — no loss, no double free,
  # exact stashed == flushed ledger after teardown.
  "$TSAN_DIR/test_homeflush" --gtest_filter='*Concurrent*'
else
  # Without GTest the unit suites (and this race check) don't build;
  # mirror the main build's degrade-with-a-warning behaviour.
  echo "ci/check.sh: GTest not found, skipping the TSAN ds race check"
fi

# Real-allocator leg: an EMR_REAL_ALLOC=ON tree routes the bare
# je/tc/mi names to the actual libraries wherever find_library located
# them. The smokes gate accounting (and the Table 3 pipeline) against
# every real backend that linked; when none did — the common offline CI
# case — the binaries print per-name skips and the tab03 smoke exits
# non-zero, which this leg treats as a graceful skip rather than a
# failure (bench_micro_alloc still gates the 4 model names).
REAL_DIR="${REAL_DIR:-build-real}"
cmake -B "$REAL_DIR" -S . -DEMR_REAL_ALLOC=ON -DEMR_BUILD_TESTS=OFF
cmake --build "$REAL_DIR" -j"$JOBS" --target bench_micro_alloc bench_tab03_allocators
"$REAL_DIR/bench_micro_alloc" --smoke
TAB03_OUT="$("$REAL_DIR/bench_tab03_allocators" --smoke)" && TAB03_RC=0 || TAB03_RC=$?
echo "$TAB03_OUT"
if [ "$TAB03_RC" -ne 0 ]; then
  if echo "$TAB03_OUT" | grep -q "no backend available"; then
    echo "ci/check.sh: no real allocator library on this box — skipped"
  else
    echo "ci/check.sh: real-allocator smoke FAILED" >&2
    exit 1
  fi
fi

echo "ci/check.sh: OK"
