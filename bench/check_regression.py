#!/usr/bin/env python3
"""Bench regression gate: fresh google-benchmark JSON vs committed baseline.

Usage:
  check_regression.py --fresh bench_e5.json \
      --baseline bench/results/BENCH_e5_exact_scaling.json \
      --series pr3_plain_ms,pr3_memo_ms --series pr6_plan_ms \
      [--threshold 1.25] [--min-ms 1.0]

The committed baselines (bench/results/BENCH_*.json) record per-benchmark
wall-clock milliseconds measured on the PR author's machine; CI runners are
different hardware, so absolute ratios would gate on machine speed, not on
code. Instead the gate normalizes: it computes fresh/baseline ratios for
every benchmark, takes their median as the machine-speed factor, and fails
only when some benchmark is more than --threshold (default 1.25 = the >25%
budget) slower than that factor predicts — i.e. when a benchmark regressed
*relative to the suite*, which is exactly what a code regression looks like
and what uniform machine slowdown does not. Benchmarks with baseline times
under --min-ms are reported but never gate (sub-millisecond timings are
noise-dominated on shared runners).

--series is a *list* (repeatable, comma-separated): every named series is
gated against the same fresh run, each with its own normalizer, so a new
PR's gate rides alongside the previous ones instead of replacing them.

Thread sweeps: a baseline recorded by bench_common with
"thread_sweep": true and "single_core": true (hardware_concurrency == 1)
is skipped with a notice — a 1-core sweep measures scheduling overhead,
not speedup, and would gate future multi-core runners on noise.

Exit status: 0 = pass, 1 = regression, 2 = usage/format error.
"""

import argparse
import json
import re
import statistics
import sys


def load_fresh(path):
    """google-benchmark --benchmark_format=json → {name: real_time_ms}.

    The OPCQA_BENCH_SWEEP sections print human-readable tables to stdout
    before google-benchmark emits its JSON document, so parsing starts at
    the first line that opens the JSON object. A row run with
    --benchmark_repetitions reads as the median of its repetitions.
    """
    with open(path) as f:
        text = f.read()
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.lstrip().startswith("{"):
            doc = json.loads("".join(lines[i:]))
            break
    else:
        raise ValueError(f"{path} contains no JSON document")
    runs = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        # Strip google-benchmark decorations ("/real_time", etc.) so names
        # match the baseline rows.
        for suffix in ("/real_time", "/process_time", "/manual_time"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}.get(unit)
        if scale is None:
            raise ValueError(f"unknown time_unit {unit!r} for {name}")
        runs.setdefault(name, []).append(bench["real_time"] * scale)
    return {name: statistics.median(times) for name, times in runs.items()}


def load_baseline_doc(path):
    with open(path) as f:
        return json.load(f)


def baseline_times(doc, path, series):
    """Baseline doc → {benchmark: <series> ms}.

    Understands both baseline shapes: hand-authored gate files (rows keyed
    by "benchmark" with one column per series) and bench_common sweep
    recordings (rows keyed by "what" with a "measured" string whose
    leading number is milliseconds; their series name is "measured_ms").
    """
    times = {}
    for row in doc.get("rows", []):
        name = row.get("benchmark", row.get("what"))
        if name is None:
            continue
        if series in row:
            times[name] = float(row[series])
        elif series == "measured_ms" and "measured" in row:
            match = re.match(r"\s*([0-9.]+)\s*ms", row["measured"])
            if match:
                times[name] = float(match.group(1))
    if not times:
        raise ValueError(f"baseline {path} has no rows with series {series!r}")
    return times


def gate_series(fresh, baseline, series, threshold, min_ms):
    """One series' normalized comparison. Returns the failing names."""
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        raise ValueError(
            f"fresh run and baseline share no benchmark names ({series})")

    ratios = {name: fresh[name] / baseline[name] for name in shared
              if baseline[name] > 0}
    if not ratios:
        raise ValueError(
            f"every shared benchmark has a zero baseline time ({series})")
    gateable = [name for name in ratios if baseline[name] >= min_ms]
    # The machine-speed factor is the median over ALL shared rows (the
    # median is robust to the noisy sub-min-ms ones), not just the gated
    # subset: with few gateable rows a regressing benchmark would
    # otherwise drag its own normalizer and half-absorb itself.
    machine_factor = statistics.median(ratios.values())

    print(f"series {series}: {len(shared)} shared benchmarks; "
          f"machine-speed factor (median ratio): {machine_factor:.3f}")
    print(f"{'benchmark':46s} {'base ms':>10s} {'fresh ms':>10s} "
          f"{'rel':>6s}  gate")
    failures = []
    for name in shared:
        if name not in ratios:  # zero baseline: report, never gate
            print(f"{name:46s} {baseline[name]:10.3f} {fresh[name]:10.3f} "
                  f"{'n/a':>6s}  (zero baseline)")
            continue
        rel = ratios[name] / machine_factor
        gates = name in gateable
        verdict = "ok"
        if gates and rel > threshold:
            verdict = "REGRESSION"
            failures.append(name)
        elif not gates:
            verdict = "(too fast to gate)"
        print(f"{name:46s} {baseline[name]:10.3f} {fresh[name]:10.3f} "
              f"{rel:6.2f}  {verdict}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--series", required=True, action="append",
                        help="baseline row key(s) holding milliseconds, "
                             "e.g. pr3_plain_ms; repeatable and "
                             "comma-separated — every named series gates")
    parser.add_argument("--threshold", type=float, default=1.25)
    parser.add_argument("--min-ms", type=float, default=1.0,
                        help="baseline floor below which rows never gate")
    args = parser.parse_args()
    series_list = [s for arg in args.series for s in arg.split(",") if s]

    try:
        fresh = load_fresh(args.fresh)
        doc = load_baseline_doc(args.baseline)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    hw = doc.get("hardware_concurrency")
    single_core = doc.get("single_core", hw == 1)
    if doc.get("thread_sweep") and single_core:
        print(f"SKIPPED: {args.baseline} is a thread sweep recorded on a "
              "single-core machine — its timings show scheduling overhead, "
              "not speedup, and do not gate (re-record on a multi-core "
              "runner to arm this gate)")
        return 0

    failures = []
    for series in series_list:
        try:
            baseline = baseline_times(doc, args.baseline, series)
            failures += gate_series(fresh, baseline, series,
                                    args.threshold, args.min_ms)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print()

    if failures:
        print(f"FAIL: {len(failures)} benchmark(s) regressed more than "
              f"{(args.threshold - 1) * 100:.0f}% relative to the suite: "
              + ", ".join(sorted(set(failures))), file=sys.stderr)
        return 1
    print(f"PASS: no benchmark regressed beyond the "
          f"{(args.threshold - 1) * 100:.0f}% budget "
          f"({', '.join(series_list)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
