#!/usr/bin/env python3
"""Compare BENCH_*.json outputs against checked-in baselines.

Usage:
    check_bench_regression.py BASELINE CURRENT [--threshold 0.40]

BASELINE and CURRENT are either two JSON files (as written by
bench::BenchJson) or two directories, in which case every BENCH_*.json in
BASELINE is matched by filename in CURRENT.

A metric regresses when it moves against its direction by more than the
threshold (relative to the baseline value). The direction comes from the
entry's `direction` field ("higher" = bigger is better, "lower" = smaller
is better, e.g. latencies and overheads); older files carry only the
boolean `higher_is_better`, which is honoured as a fallback. The default
threshold is deliberately loose (40%): CI runners are noisy and share
hardware, so this is a smoke test for step-change regressions — a
failover that rescans whole shards, a point lookup gone linear — not a
micro-benchmark gate. End-to-end scan speed is gated by
tools/perf_gate.py instead. Improvements and missing/extra metrics are reported
but never fail the check.

Exit status: 0 = no regressions, 1 = at least one, 2 = usage/IO error.
"""

import argparse
import json
import os
import sys


def load_results(path):
    """Returns {metric: (value, higher_is_better)} from one bench JSON."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("results", []):
        direction = entry.get("direction")
        if direction is not None:
            if direction not in ("higher", "lower"):
                raise ValueError(
                    f"metric {entry['metric']!r}: direction must be "
                    f"'higher' or 'lower', got {direction!r}")
            higher_is_better = direction == "higher"
        else:
            higher_is_better = bool(entry.get("higher_is_better", True))
        out[entry["metric"]] = (float(entry["value"]), higher_is_better)
    return out


def compare(name, baseline, current, threshold):
    """Prints a report for one bench; returns the list of regressed metrics."""
    regressions = []
    print(f"== {name} (threshold {threshold:.0%})")
    for metric, (base, higher_is_better) in sorted(baseline.items()):
        if metric not in current:
            print(f"   {metric}: MISSING from current run (skipped)")
            continue
        cur = current[metric][0]
        if base == 0:
            print(f"   {metric}: baseline is 0, skipped")
            continue
        change = (cur - base) / abs(base)
        regressed = (-change if higher_is_better else change) > threshold
        verdict = "REGRESSED" if regressed else "ok"
        print(
            f"   {metric}: {base:.6g} -> {cur:.6g} "
            f"({change:+.1%}) {verdict}"
        )
        if regressed:
            regressions.append(metric)
    for metric in sorted(set(current) - set(baseline)):
        print(f"   {metric}: new metric, no baseline (skipped)")
    return regressions


def file_pairs(baseline, current):
    if os.path.isdir(baseline) != os.path.isdir(current):
        sys.exit("error: BASELINE and CURRENT must both be files or both "
                 "be directories")
    if not os.path.isdir(baseline):
        yield os.path.basename(baseline), baseline, current
        return
    names = sorted(n for n in os.listdir(baseline)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        sys.exit(f"error: no BENCH_*.json in {baseline}")
    for name in names:
        cur = os.path.join(current, name)
        if not os.path.exists(cur):
            sys.exit(f"error: {name} has a baseline but was not produced "
                     f"by the current run ({cur} missing)")
        yield name, os.path.join(baseline, name), cur


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.40,
                        help="max fractional move against the metric's "
                             "direction (default 0.40)")
    args = parser.parse_args()

    all_regressions = []
    for name, base_path, cur_path in file_pairs(args.baseline, args.current):
        try:
            baseline = load_results(base_path)
            current = load_results(cur_path)
        except (OSError, ValueError, KeyError) as err:
            sys.exit(f"error: {name}: {err}")
        all_regressions += [f"{name}:{m}" for m in
                            compare(name, baseline, current, args.threshold)]

    if all_regressions:
        print(f"\n{len(all_regressions)} regression(s): "
              + ", ".join(all_regressions))
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
