#!/bin/sh
# Build, test, and regenerate every paper table/figure.
#
# check.sh is the correctness gate: -Werror build plus ctest under the
# default, ASan, and UBSan presets (and TSan with REVTR_CHECK_TSAN=1),
# including the revtr_mc model-checker sweep and the layering analyzer.
# REVTR_QUICK=1 downgrades it to the fast gate (lint + layering + unit
# tests) for inner-loop runs.
#
# Benches that publish machine-readable results write them to
# $REVTR_BENCH_DIR/BENCH_<name>.json (throughput, latency quantiles from
# the obs snapshot, peak RSS); default: the build/ tree. The daemon is
# load-tested by daemonbench (daemonbench/NOTES.md): one 10 s run of each
# workload, whose JSON result line lands in
# $REVTR_BENCH_DIR/daemonbench_<workload>.json; a failed run fails the
# script.
set -e
cd "$(dirname "$0")/.."
if [ "${REVTR_QUICK:-0}" = "1" ]; then
    scripts/check.sh --quick
else
    scripts/check.sh
fi
REVTR_BENCH_DIR="${REVTR_BENCH_DIR:-build}"
mkdir -p "$REVTR_BENCH_DIR"
# Resolve to an absolute path once: benches write the artifact relative to
# their own cwd, so a relative dir would scatter BENCH_*.json files when a
# bench (or a future caller) runs from somewhere other than the repo root.
REVTR_BENCH_DIR="$(cd "$REVTR_BENCH_DIR" && pwd)"
export REVTR_BENCH_DIR
# Regular executables only: the build trees also hold CMakeFiles/, and a
# directory passes -x.
for b in build/bench/* build/examples/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then "$b"; fi
done
for w in hot_zipf cold_pairs open_mixed agents_cold; do
    result="$(python3 daemonbench/run.py --workload "$w" --seed 1 \
        --seconds 10 --trace 0)"
    printf '%s\n' "$result"
    printf '%s\n' "$result" | tail -n 1 \
        >"$REVTR_BENCH_DIR/daemonbench_$w.json"
done
echo "bench artifacts: $(ls "$REVTR_BENCH_DIR"/BENCH_*.json 2>/dev/null || echo none)"
scripts/bench_delta.py --baselines bench/baselines --fresh "$REVTR_BENCH_DIR" \
    --trajectory || true
