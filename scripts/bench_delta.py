#!/usr/bin/env python3
"""Bench-delta regression gate: fresh BENCH_*.json vs committed baselines.

Compares every artifact in --fresh against the file of the same name in
--baselines and prints a per-metric delta table. Four figures are gated;
the rest of the shared top-level numeric fields are informational:

  single_worker_probes_per_request  lower is better  fails on a >1% rise
  single_worker_cpu_us_per_request  lower is better  fails on a >25% rise
  four_worker_cpu_us_per_request    lower is better  fails on a >25% rise
  sim_latency_p99_us                lower is better  fails on a >15% rise

bench_parallel_campaign takes the first two from a one-worker campaign. Its
wire-probe count is exact for a fixed seed, so any added probe per request
trips the 1%. CPU per request, at one worker and at four (where it also
covers what workers spend waiting on each other's probes), is the median of
--overhead-reps runs of process CPU time, which stays within a few percent
between identical runs where wall-clock rates swing by tens of percent.
Wall-clock throughput (requests_per_second, probes_per_second) is reported,
not gated.

A gated metric the baseline carries must be numeric in both artifacts: a
missing or non-numeric one fails by name, so a renamed or dropped field
cannot pass unnoticed.

The campaign's measured paths are gated exactly: each `runs[].signature`
(matched by `workers`), `identical_sets` and
`duplicate_heavy.identical_sets` must equal the baseline's, or the gate
fails naming the field. A change that alters a measured path moves a
signature even when probes per request stay within 1%; a PR that changes
paths on purpose updates those fields in the same commit.

Exit status is non-zero iff any gated metric is missing or regressed past
its tolerance or an exact field differs, so `scripts/check.sh` can use the
script directly as a gate while `scripts/run_all.sh` appends `|| true` to
keep full-scale runs advisory (full-scale numbers are only comparable when
the machine is quiet; see README "Bench-delta gate").

Baselines live in `bench/baselines/` (full-scale) and
`bench/baselines/smoke/` (the scaled-down flags bench_smoke in check.sh
uses). Refresh procedure is documented in the README; in short: run the
matching bench flags on an otherwise idle machine and copy the artifact over
the committed one in the same commit as the change that moved the numbers.

Stdlib only — no third-party imports.
"""

import argparse
import json
import math
import os
import sys

# metric -> (direction, tolerance). direction "higher": regress when the
# fresh value drops below baseline*(1-tol); "lower": regress when it rises
# above baseline*(1+tol).
GATED = {
    "single_worker_probes_per_request": ("lower", 0.01),
    "single_worker_cpu_us_per_request": ("lower", 0.25),
    "four_worker_cpu_us_per_request": ("lower", 0.25),
    "sim_latency_p99_us": ("lower", 0.15),
}

# Informational fields worth a table row when both sides have them, in
# display order. Anything else numeric and shared is appended alphabetically.
PREFERRED_INFO = [
    "requests_per_second",
    "probes_per_second",
    "single_worker_requests_per_second",
    "single_worker_probes_per_second",
    "sim_latency_p50_us",
    "speedup_at_4_workers",
    "effective_per_second",
    "revtrs_per_day",
    "speedup",
    "benchmark_count",
    "peak_rss_bytes",
]


def numeric_fields(doc):
    """Top-level scalar numeric fields (bools excluded)."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and math.isfinite(value):
            out[key] = float(value)
    return out


def pct_delta(base, fresh):
    if base == 0.0:
        return None
    return (fresh - base) / base * 100.0


def fmt_value(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.2f}"


def exact_fields(doc):
    """The exactly gated fields of an artifact, flattened: name -> value."""
    out = {}
    if "identical_sets" in doc:
        out["identical_sets"] = doc["identical_sets"]
    heavy = doc.get("duplicate_heavy")
    if isinstance(heavy, dict) and "identical_sets" in heavy:
        out["duplicate_heavy.identical_sets"] = heavy["identical_sets"]
    runs = doc.get("runs")
    for run in runs if isinstance(runs, list) else []:
        if isinstance(run, dict) and "workers" in run and "signature" in run:
            out[f"runs[workers={run['workers']}].signature"] = run["signature"]
    return out


def compare_exact(name, base_doc, fresh_doc, table):
    """Append rows for the exact fields; return list of regression strings."""
    base = exact_fields(base_doc)
    fresh = exact_fields(fresh_doc)
    regressions = []
    for field, want in base.items():
        got = fresh.get(field)
        status = "exact"
        if field not in fresh:
            status = "MISSING"
            regressions.append(f"{name}: exact {field} missing")
        elif got != want:
            status = "CHANGED"
            regressions.append(
                f"{name}: {field} {json.dumps(want)} -> {json.dumps(got)} "
                "(must equal the baseline)"
            )
        table.append((name, field, json.dumps(want),
                      json.dumps(got) if field in fresh else "-", "n/a",
                      status))
    return regressions


def compare_artifact(name, base_doc, fresh_doc, table):
    """Append rows for one artifact; return list of regression strings."""
    base = numeric_fields(base_doc)
    fresh = numeric_fields(fresh_doc)
    shared = set(base) & set(fresh)
    ordered = [m for m in GATED if m in shared]
    ordered += [m for m in PREFERRED_INFO if m in shared]
    ordered += sorted(shared - set(ordered))

    missing = [m for m in GATED if m in base_doc and m not in shared]
    regressions = [f"{name}: gated {m} missing or non-numeric"
                   for m in missing]
    for metric in missing:
        cells = [fmt_value(side[metric]) if metric in side else "-"
                 for side in (base, fresh)]
        table.append((name, metric, *cells, "n/a", "MISSING"))
    for metric in ordered:
        delta = pct_delta(base[metric], fresh[metric])
        status = "info"
        if metric in GATED:
            direction, tol = GATED[metric]
            status = "ok"
            if delta is None:
                status = "n/a (zero baseline)"
            elif direction == "higher":
                if fresh[metric] < base[metric] * (1.0 - tol):
                    status = "REGRESSION"
                elif fresh[metric] > base[metric] * (1.0 + tol):
                    status = "improved"
            else:
                if fresh[metric] > base[metric] * (1.0 + tol):
                    status = "REGRESSION"
                elif fresh[metric] < base[metric] * (1.0 - tol):
                    status = "improved"
            if status == "REGRESSION":
                regressions.append(
                    f"{name}: {metric} {fmt_value(base[metric])} -> "
                    f"{fmt_value(fresh[metric])} ({delta:+.1f}%, tolerance "
                    f"{'-' if direction == 'higher' else '+'}{tol:.0%})"
                )
        table.append(
            (
                name,
                metric,
                fmt_value(base[metric]),
                fmt_value(fresh[metric]),
                "n/a" if delta is None else f"{delta:+.1f}%",
                status,
            )
        )
    return regressions


def trajectory_line(name, base_doc, fresh_doc):
    base = numeric_fields(base_doc)
    fresh = numeric_fields(fresh_doc)
    for metric in list(GATED) + PREFERRED_INFO:
        if metric in base and metric in fresh:
            delta = pct_delta(base[metric], fresh[metric])
            arrow = f"{fmt_value(base[metric])} -> {fmt_value(fresh[metric])}"
            pct = "n/a" if delta is None else f"{delta:+.1f}%"
            return f"trajectory: {name} {metric} {arrow} ({pct})"
    return f"trajectory: {name} (no shared headline metric)"


def print_table(table):
    headers = ("artifact", "metric", "baseline", "fresh", "delta", "status")
    widths = [len(h) for h in headers]
    for row in table:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in table:
        print(fmt.format(*row))


def main():
    parser = argparse.ArgumentParser(
        description="Compare fresh BENCH_*.json against committed baselines."
    )
    parser.add_argument(
        "--baselines", required=True, help="directory of committed baselines"
    )
    parser.add_argument(
        "--fresh", required=True, help="directory of freshly written artifacts"
    )
    parser.add_argument(
        "--trajectory",
        action="store_true",
        help="print one headline-metric trajectory line per artifact",
    )
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"bench-delta: baseline dir missing: {args.baselines}",
              file=sys.stderr)
        return 2
    baseline_names = sorted(
        f
        for f in os.listdir(args.baselines)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not baseline_names:
        print(f"bench-delta: no BENCH_*.json baselines in {args.baselines}",
              file=sys.stderr)
        return 2

    table = []
    regressions = []
    trajectories = []
    compared = 0
    for name in baseline_names:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.isfile(fresh_path):
            print(f"bench-delta: {name}: skipped (no fresh artifact)")
            continue
        with open(os.path.join(args.baselines, name)) as fh:
            base_doc = json.load(fh)
        with open(fresh_path) as fh:
            fresh_doc = json.load(fh)
        regressions += compare_artifact(name, base_doc, fresh_doc, table)
        regressions += compare_exact(name, base_doc, fresh_doc, table)
        trajectories.append(trajectory_line(name, base_doc, fresh_doc))
        compared += 1

    if table:
        print_table(table)
    if args.trajectory:
        for line in trajectories:
            print(line)
    if compared == 0:
        print("bench-delta: nothing compared (no fresh artifacts)",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"bench-delta: {len(regressions)} gated regression(s):",
              file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench-delta: ok ({compared} artifact(s), no gated regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
