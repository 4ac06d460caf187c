#!/usr/bin/env bash
# Builds emr_bench against the repository's emr_core and runs it.
# Arguments go to emr_bench unchanged, e.g.
#
#   emrbench/run.sh --seed 1                  # all workloads, end to end
#   emrbench/run.sh --seed 1 --trace 1        # per-layer traced run
#   emrbench/run.sh --seed 1 --sets 2         # repeatability check
#   emrbench/run.sh --quick                   # < 15 s smoke
#   emrbench/run.sh --workload abtree_af --seed 3 --seconds 20 --trace 0
#
# Build output goes to stderr, so standard output ends with the JSON
# result from emr_bench.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target emr_bench -j 4 >&2

sha="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/emr_bench" --git-sha "$sha" "$@"
