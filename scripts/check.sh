#!/bin/sh
# Correctness gate: builds and tests the tree under each hardening config.
#
#   1. default  -Werror with extended warnings (-Wconversion -Wshadow
#               -Wold-style-cast -Wnon-virtual-dtor), full ctest suite —
#               includes revtr_lint (with the layering analyzer), the
#               wire-codec fuzzer, and the revtr_mc model-checker sweep.
#   2. release  Release (-O3) build of every target under -Werror, build
#               only: GCC raises some warnings (a false -Wrestrict on
#               string appends, for one) only at -O3, which the
#               RelWithDebInfo presets never compile.
#   3. asan     AddressSanitizer build, full ctest suite (the revtr_mc
#               state sweep under ASan is the deepest memory check we run).
#   4. ubsan    UndefinedBehaviorSanitizer with -fno-sanitize-recover=all
#               (any UB aborts the test), full ctest suite.
#   5. tsan     ThreadSanitizer over the concurrency suite (synchronized
#               Distribution, striped caches, sharded metrics,
#               parallel campaign driver, probes executing outside the
#               scheduler lock, lazily built routing tables and the AS cone
#               table under concurrent readers) plus the ServerDaemon and
#               agent e2e suites — the racy paths the parallel batch driver
#               and the measurement daemon actually exercise.
#               REVTR_CHECK_TSAN=0 skips the stage; REVTR_CHECK_TSAN=full
#               runs the whole ctest suite under TSan.
#
# Both gates also run a campaign smoke: a small instrumented campaign over
# overlapping destinations through revtr_cli, which must warn of no unknown
# flag, whose Prometheus snapshot must parse and contain the core metric
# families (requests, probes, request latency, engine stages), whose
# revtr_probes_coalesced_total sample must come out positive and whose
# demanded probes must equal issued + coalesced (the scheduler carries wire
# probes only, so every demand is one or the other). The full
# gate adds a serverd smoke: two 5 s daemonbench open_mixed runs through
# daemonbench/run.py, untraced and traced, one 2 s untraced cold_pairs run
# and one 3 s untraced agents_cold run (built once into .bench_build/),
# whose JSON result lines must show a correct run with no failed, shed,
# rejected or late request and non-zero wall, CPU, start-up and RSS figures,
# then an external revtr_serverd that logs its start-up phases, serves one
# revtr_cli client over its AF_UNIX socket and drains cleanly on
# SIGTERM — and an agent smoke: the same client requests through a
# controller (--remote-probing) plus two revtr_agentd processes must print
# byte-identical output to the monolith, with both sides draining cleanly
# on SIGTERM, and an agent whose controller stops first still exiting 0
# (DESIGN.md §15).
#
# --quick: inner-loop mode — default preset only, and only the fast
# correctness tiers: revtr_lint (lint + layering + self-test) and the unit
# tests, skipping the fuzzer and the model-checker sweep. Use before a
# commit when the full multi-preset gate is too slow; CI runs the full one.
#
# The full gate also runs two clang-only stages, each skipped with a notice
# when the binary is missing (the default container ships gcc only):
#   * tsa         clang -Wthread-safety -Wthread-safety-beta -Werror over the
#                 REVTR_* capability annotations (src/util/annotate.h); any
#                 lock-discipline violation is a hard build error. Without
#                 clang, the revtr_lint lock-discipline pass (mutex-capability,
#                 guarded-member, raii-guard, lock-order) is the enforcement.
#   * clang-tidy  config in .clang-tidy (includes the concurrency-* checks).
#
# Plus a bench-artifact smoke: scaled-down runs of bench_parallel_campaign,
# bench_throughput, and bench_micro_net must each emit their BENCH_*.json
# with the documented schema (numeric headline fields, peak RSS) for
# scripts/run_all.sh consumers and pass scripts/bench_delta.py against the
# smoke baselines; a copy of the campaign artifact without its gated
# sim_latency_p99_us must fail bench_delta.py by name.
set -eu
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
    esac
done

# Campaign smoke: one small instrumented campaign over overlapping
# destinations (60 requests over 20 probe hosts) through revtr_cli, which
# must print no unknown-flag warning. Its exported Prometheus text must
# parse — every non-comment line a well-formed `name{labels} integer`
# sample — and carry the families the dashboards are built on; its
# revtr_probes_coalesced_total sample has to be positive, or cross-request
# dedup silently died; and it must account for every demand:
# revtr_sched_probes_demanded_total equals revtr_sched_probes_issued_total +
# revtr_probes_coalesced_total (the scheduler carries wire probes only, so
# every demand is one or the other).
campaign_smoke() {
    echo "==> [default] campaign smoke (instrumented campaign, snapshot" \
         "check, coalescing metric > 0, demanded = issued + coalesced)"
    out="build/campaign_smoke_metrics.prom"
    # campaign exits 4 when some revtrs were incomplete — fine for the smoke,
    # which only needs the metrics snapshot.
    ./build/tools/revtr_cli campaign --ases=150 --vps=10 --probes=20 \
        --revtrs=60 --parallel=2 --trace-sample=8 \
        --metrics-out="$out" >/dev/null 2>build/campaign_smoke.err ||
        [ $? -eq 4 ]
    if grep 'unknown flag' build/campaign_smoke.err >&2; then
        echo "campaign smoke: revtr_cli ignored a flag" >&2
        exit 1
    fi
    awk '
        /^# (HELP|TYPE) / { next }
        /^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? -?[0-9]+$/ { ++samples; next }
        { printf "campaign smoke: malformed line %d: %s\n", NR, $0; bad = 1 }
        END {
            if (samples == 0) { print "campaign smoke: no samples"; bad = 1 }
            exit bad
        }' "$out"
    for family in revtr_requests_total revtr_probes_total \
                  revtr_request_latency_us_count revtr_engine_stage_total; do
        if ! grep -q "^$family" "$out"; then
            echo "campaign smoke: metric family $family missing from $out" >&2
            exit 1
        fi
    done
    coalesced="$(awk '/^revtr_probes_coalesced_total /{print $2}' "$out")"
    if [ -z "$coalesced" ] || [ "$coalesced" -le 0 ]; then
        echo "campaign smoke:" \
             "revtr_probes_coalesced_total=${coalesced:-missing}" \
             "on an overlapping-destination campaign" >&2
        exit 1
    fi
    demanded="$(awk '/^revtr_sched_probes_demanded_total /{print $2}' "$out")"
    issued="$(awk '/^revtr_sched_probes_issued_total /{print $2}' "$out")"
    if [ -z "$demanded" ] || [ -z "$issued" ] ||
       [ "$demanded" -ne $((issued + coalesced)) ]; then
        echo "campaign smoke:" \
             "revtr_sched_probes_demanded_total=${demanded:-missing}" \
             "!= revtr_sched_probes_issued_total=${issued:-missing}" \
             "+ revtr_probes_coalesced_total=$coalesced" >&2
        exit 1
    fi
    echo "campaign smoke: ok ($(grep -c '^revtr_' "$out") samples;" \
         "$coalesced of $demanded demanded probes coalesced, $issued issued)"
}

# Bench-artifact smoke: scaled-down runs of every artifact-emitting bench
# must produce BENCH_<name>.json files with the schema the run_all.sh
# consumers rely on (numeric headline fields; see each bench's writer).
require_bench_fields() {
    artifact="$1"; shift
    if [ ! -f "$artifact" ]; then
        echo "bench smoke: $artifact was not written" >&2
        exit 1
    fi
    for field in "$@"; do
        if ! grep -q "\"$field\": *[0-9]" "$artifact"; then
            echo "bench smoke: field $field missing or non-numeric" \
                 "in $artifact" >&2
            exit 1
        fi
    done
}

bench_smoke() {
    echo "==> [default] bench artifact smoke (BENCH_*.json schemas)"
    rm -f build/BENCH_parallel_campaign.json build/BENCH_throughput.json \
          build/BENCH_micro_net.json
    REVTR_BENCH_DIR=build ./build/bench/bench_parallel_campaign \
        --ases=150 --vps=8 --probes=60 --revtrs=24 \
        --dup-revtrs=48 --overhead-reps=5 --overhead-revtrs=2000 >/dev/null
    require_bench_fields build/BENCH_parallel_campaign.json \
        single_worker_probes_per_request single_worker_cpu_us_per_request \
        requests_per_second probes_per_second four_worker_cpu_us_per_request \
        sim_latency_p50_us sim_latency_p99_us peak_rss_bytes \
        single_worker_requests_per_second single_worker_probes_per_second
    REVTR_BENCH_DIR=build ./build/bench/bench_throughput \
        --ases=150 --vps=8 --probes=60 --revtrs=20 >/dev/null
    require_bench_fields build/BENCH_throughput.json \
        effective_per_second revtrs_per_day speedup peak_rss_bytes
    REVTR_BENCH_DIR=build ./build/bench/bench_micro_net \
        --benchmark_filter='BM_PacketEncode|BM_PrefixTrieLookup' \
        --benchmark_min_time=0.01 >/dev/null
    require_bench_fields build/BENCH_micro_net.json \
        benchmark_count real_time cpu_time iterations peak_rss_bytes
    # run_all.sh regression: benches resolve a relative REVTR_BENCH_DIR
    # against their *own* cwd, so run_all.sh must absolutize the dir before
    # fanning out. Pin the contract: from a different cwd, an absolute dir
    # still receives the artifact.
    rm -rf build/bench_smoke_cwd
    mkdir -p build/bench_smoke_cwd/out
    abs_out="$(cd build/bench_smoke_cwd/out && pwd)"
    (cd build/bench_smoke_cwd && REVTR_BENCH_DIR="$abs_out" \
        "$OLDPWD/build/bench/bench_micro_net" \
        --benchmark_filter='BM_PacketEncode' \
        --benchmark_min_time=0.01 >/dev/null)
    require_bench_fields "$abs_out/BENCH_micro_net.json" \
        benchmark_count peak_rss_bytes
    echo "bench smoke: all artifact schemas ok (incl. cwd-independent dir)"
    # Bench-delta gate: the smoke-scale artifacts written above must not
    # regress past tolerance against the committed smoke baselines (>1%
    # rise in single-worker wire probes per request, >25% rise in CPU per
    # request at one worker or at four, >15% rise in sim_latency_p99_us).
    # Full-scale baselines are compared advisorily by run_all.sh instead —
    # see README "Bench-delta gate" for the refresh procedure.
    echo "==> [default] bench delta vs bench/baselines/smoke"
    scripts/bench_delta.py --baselines bench/baselines/smoke --fresh build
    # A gated field the fresh artifact lacks must fail the delta by name,
    # not drop out of the comparison.
    missing="build/bench_delta_missing"
    rm -rf "$missing"
    mkdir -p "$missing"
    python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
del doc["sim_latency_p99_us"]
json.dump(doc, open(sys.argv[2], "w"))' build/BENCH_parallel_campaign.json \
        "$missing/BENCH_parallel_campaign.json"
    status=0
    scripts/bench_delta.py --baselines bench/baselines/smoke \
        --fresh "$missing" >"$missing/delta.log" 2>&1 || status=$?
    if [ "$status" -ne 1 ] ||
       ! grep -q 'sim_latency_p99_us missing' "$missing/delta.log"; then
        echo "bench smoke: bench_delta.py exited $status on an artifact" \
             "without its gated sim_latency_p99_us" >&2
        exit 1
    fi
    echo "bench delta: a missing gated field fails by name"
    # A campaign that measured different paths must fail by field name,
    # whatever its probe count: one run's signature and the duplicate-heavy
    # identical_sets are doctored here.
    doctored="build/bench_delta_doctored"
    rm -rf "$doctored"
    mkdir -p "$doctored"
    python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
run = next(r for r in doc["runs"] if r["workers"] == 4)
run["signature"] = str(int(run["signature"]) ^ 1)
doc["duplicate_heavy"]["identical_sets"] = False
json.dump(doc, open(sys.argv[2], "w"))' build/BENCH_parallel_campaign.json \
        "$doctored/BENCH_parallel_campaign.json"
    status=0
    scripts/bench_delta.py --baselines bench/baselines/smoke \
        --fresh "$doctored" >"$doctored/delta.log" 2>&1 || status=$?
    if [ "$status" -ne 1 ] ||
       ! grep -q 'runs\[workers=4\]\.signature .* (must equal' \
           "$doctored/delta.log" ||
       ! grep -q 'duplicate_heavy\.identical_sets true -> false' \
           "$doctored/delta.log"; then
        echo "bench smoke: bench_delta.py exited $status on an artifact" \
             "with a doctored run signature and identical_sets" >&2
        exit 1
    fi
    echo "bench delta: a changed campaign signature fails by name"
}

# revtr_lint ships its own fixture corpus (--self-test); the committed
# baseline is the check count at the last PR that touched the linter. A
# lower count means fixtures were deleted without replacement — fail rather
# than silently shrink the corpus.
LINT_SELFTEST_BASELINE=74
lint_selftest_guard() {
    out="$(./build/tools/revtr_lint --self-test)"
    echo "$out"
    checks="$(printf '%s\n' "$out" |
        sed -n 's/.*ok (\([0-9][0-9]*\) checks).*/\1/p')"
    if [ -z "$checks" ] || [ "$checks" -lt "$LINT_SELFTEST_BASELINE" ]; then
        echo "lint self-test: ${checks:-0} checks, below committed baseline" \
             "$LINT_SELFTEST_BASELINE" >&2
        exit 1
    fi
}

# Checks the JSON result line daemonbench/run.py prints last: a correct
# run with no failed request. Untraced ($2 = 0) it must report
# success_ratio 1 (no rejected, shed, late or lost request) and a non-zero
# cpu_us_per_request and peak_rss_mb; traced ($2 = 1), no deadline miss,
# shed, rejection or protocol error, and non-zero wall.* and setup.* layers.
require_result_line() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
path, trace = sys.argv[1:]
with open(path) as fh:
    result = json.loads(fh.read().splitlines()[-1])
got = {name: m["value"] for name, m in result["metrics"].items()}
got.update(correct=result["correct"], failed=result["failed"])
equal = {"correct": True, "failed": 0}
if trace == "0":
    equal["success_ratio"] = 1
    positive = ["cpu_us_per_request", "peak_rss_mb"]
else:
    equal.update({f"server.{name}": 0 for name in (
        "deadline_missed", "shed", "rejected", "protocol_errors")})
    positive = ["wall.throughput_rps", "wall.latency_p50_us",
                "wall.latency_p99_us", "setup.lab_s",
                "setup.ingress_survey_s", "setup.atlas_s"]
bad = [f"{k} is {got.get(k, 'missing')}, want {v}"
       for k, v in equal.items() if got.get(k) != v]
bad += [f"{k} is {got.get(k, 'missing')}, want > 0"
        for k in positive if not got.get(k, 0) > 0]
for line in bad:
    print(f"serverd smoke: {path}: {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
}

# Runs daemonbench workload $1 with seed 1 for $2 s with --trace $3, and
# checks its result line.
daemonbench_smoke() {
    out="build/serverd_smoke_$1_trace$3"
    if ! python3 daemonbench/run.py --workload "$1" --seed 1 \
            --seconds "$2" --trace "$3" >"$out.out" 2>"$out.log"; then
        echo "serverd smoke: daemonbench $1 --trace $3 failed" \
             "(see $out.out, $out.log)" >&2
        exit 1
    fi
    require_result_line "$out.out" "$3"
}

# serverd smoke: the daemon end-to-end at smoke scale. First two 5 s
# daemonbench open_mixed runs (Poisson arrivals, 90% hot / 10% fresh pairs,
# 30 s deadlines), untraced and traced, whose result lines must check out
# (below ~2.5 s a round holds no 0.5 s window and cpu_us_per_request reads
# 0); then one 2 s untraced cold_pairs run, where every pair is measured
# fresh and every symmetry traceroute runs, whose `correct` also covers
# per-pair path identity across rounds and the oracle cap; then one 3 s
# untraced agents_cold run, cold_pairs with every probe executed by an
# in-process agent through the net thread's dispatch, long enough to hold a
# CPU window; then an external revtr_serverd process that logs its start-up
# phases and serves a revtr_cli client over the socket, which must drain
# and exit 0 on SIGTERM.
serverd_smoke() {
    echo "==> [default] serverd smoke (daemonbench open_mixed, cold_pairs" \
         "and agents_cold + external daemon drain)"
    daemonbench_smoke open_mixed 5 0
    daemonbench_smoke open_mixed 5 1
    daemonbench_smoke cold_pairs 2 0
    daemonbench_smoke agents_cold 3 0
    sock="build/serverd_smoke.sock"
    rm -f "$sock"
    ./build/tools/revtr_serverd --socket="$sock" --ases=100 --vps=6 \
        --probes=24 --workers=2 --sources=2 --atlas=20 \
        >build/serverd_smoke_daemon.log 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 300 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    ./build/tools/revtr_cli client --socket="$sock" --dest=3 \
        --deadline-ms=30000 >/dev/null
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "serverd smoke: daemon did not drain and exit 0 on SIGTERM" \
             "(see build/serverd_smoke_daemon.log)" >&2
        exit 1
    fi
    if ! grep -q 'started in lab [0-9.]* s + tables [0-9.]* s + survey [0-9.]* s + atlas' \
            build/serverd_smoke_daemon.log; then
        echo "serverd smoke: no start-up phase line in" \
             "build/serverd_smoke_daemon.log" >&2
        exit 1
    fi
    echo "serverd smoke: ok (open_mixed untraced and traced; cold_pairs" \
         "and agents_cold untraced; start-up phases logged; SIGTERM drain" \
         "clean)"
}

# Agent smoke: the distributed controller/agent deployment (DESIGN.md §15)
# against the monolith, end-to-end over real processes and sockets. The
# same three client requests must print byte-identical output both ways —
# probe outcomes are content-addressed, so where they execute must not be
# observable — and both sides must leave cleanly: vp-a on its own SIGTERM,
# then the controller on SIGTERM while vp-b is still connected, so vp-b
# leaves because the controller did and must still exit 0 and log
# `drained` (revtr_agentd's exit rule, DESIGN.md §15). --window=2 keeps the
# per-agent in-flight window small enough that both agents actually execute
# probes.
agent_smoke() {
    echo "==> [default] agent smoke (controller + 2 agents vs monolith)"
    topo="--ases=100 --vps=6 --probes=24 --seed=7"
    sock="build/agent_smoke_mono.sock"
    rm -f "$sock"
    ./build/tools/revtr_serverd --socket="$sock" $topo --workers=2 \
        --sources=2 --atlas=20 >build/agent_smoke_mono.log 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 300 ]; do sleep 0.1; i=$((i+1)); done
    : >build/agent_smoke_mono.out
    for dest in 3 4 7; do
        ./build/tools/revtr_cli client --socket="$sock" --dest="$dest" \
            --deadline-ms=30000 >>build/agent_smoke_mono.out || [ $? -eq 4 ]
    done
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "agent smoke: monolith daemon did not drain on SIGTERM" >&2
        exit 1
    fi

    sock="build/agent_smoke_remote.sock"
    rm -f "$sock"
    ./build/tools/revtr_serverd --socket="$sock" $topo --workers=2 \
        --sources=2 --atlas=20 --remote-probing \
        >build/agent_smoke_remote.log 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 300 ]; do sleep 0.1; i=$((i+1)); done
    ./build/tools/revtr_agentd --socket="$sock" $topo --name=vp-a \
        --window=2 >build/agent_smoke_a.log 2>&1 &
    agent_a=$!
    ./build/tools/revtr_agentd --socket="$sock" $topo --name=vp-b \
        --window=2 >build/agent_smoke_b.log 2>&1 &
    agent_b=$!
    : >build/agent_smoke_remote.out
    for dest in 3 4 7; do
        ./build/tools/revtr_cli client --socket="$sock" --dest="$dest" \
            --deadline-ms=30000 >>build/agent_smoke_remote.out || [ $? -eq 4 ]
    done
    kill -TERM "$agent_a"
    if ! wait "$agent_a"; then
        echo "agent smoke: agent a did not drain on SIGTERM" \
             "(see build/agent_smoke_a.log)" >&2
        exit 1
    fi
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "agent smoke: remote daemon did not drain on SIGTERM" >&2
        exit 1
    fi
    if ! wait "$agent_b"; then
        echo "agent smoke: agent b did not exit 0 when the controller" \
             "stopped (see build/agent_smoke_b.log)" >&2
        exit 1
    fi
    if ! cmp -s build/agent_smoke_mono.out build/agent_smoke_remote.out; then
        echo "agent smoke: remote client output differs from monolith" >&2
        diff build/agent_smoke_mono.out build/agent_smoke_remote.out >&2 ||
            true
        exit 1
    fi
    if ! grep -q 'drained' build/agent_smoke_a.log ||
       ! grep -q 'drained' build/agent_smoke_b.log; then
        echo "agent smoke: an agent exited without reporting a drain" >&2
        exit 1
    fi
    echo "agent smoke: ok (remote == monolith; clean SIGTERM drains;" \
         "agent exits 0 when the controller stops)"
}

run_config() {
    name="$1"
    echo "==> [$name] configure"
    cmake --preset "$name" >/dev/null
    echo "==> [$name] build"
    cmake --build --preset "$name" -j "$JOBS"
    echo "==> [$name] test"
    ctest --preset "$name"
}

if [ "$QUICK" = "1" ]; then
    echo "==> [default] configure"
    cmake --preset default >/dev/null
    echo "==> [default] build"
    cmake --build --preset default -j "$JOBS"
    echo "==> [default] lint + layering"
    lint_selftest_guard
    ./build/tools/revtr_lint .
    echo "==> [default] unit tests (no fuzzer, no model-checker sweep)"
    ctest --preset default -E 'wire_fuzz|revtr_mc'
    campaign_smoke
    echo "check.sh: quick gate passed (full gate: scripts/check.sh)"
    exit 0
fi

run_config default
echo "==> [default] lint self-test fixture floor"
lint_selftest_guard
campaign_smoke
serverd_smoke
agent_smoke
bench_smoke
echo "==> [release] configure"
cmake --preset release >/dev/null
echo "==> [release] build (build only)"
cmake --build --preset release -j "$JOBS"
run_config asan
run_config ubsan
case "${REVTR_CHECK_TSAN:-1}" in
    0)
        echo "==> [tsan] skipped (REVTR_CHECK_TSAN=0)"
        ;;
    full)
        run_config tsan
        ;;
    *)
        echo "==> [tsan] configure"
        cmake --preset tsan >/dev/null
        echo "==> [tsan] build"
        cmake --build --preset tsan -j "$JOBS"
        echo "==> [tsan] concurrency suite"
        ctest --preset tsan -R 'Distribution|StripedMap|ShardedMetrics|ParallelCampaign|Atlas|Ingress|ServerDaemon|AgentSplit|SchedConcurrency|RoutingConcurrency|AsmapConcurrency'
        ;;
esac

if command -v clang++ >/dev/null 2>&1; then
    echo "==> [tsa] configure (clang -Wthread-safety)"
    cmake --preset tsa >/dev/null
    echo "==> [tsa] build (thread-safety violations are hard errors)"
    cmake --build --preset tsa -j "$JOBS"
else
    echo "==> [tsa] skipped (clang++ not installed; lock discipline is" \
         "enforced lexically by revtr_lint instead)"
fi

if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy"
    find src -name '*.cpp' -print0 |
        xargs -0 clang-tidy -p build --quiet
else
    echo "==> clang-tidy skipped (binary not installed; see .clang-tidy)"
fi

echo "check.sh: all configurations passed"
