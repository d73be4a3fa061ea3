#!/usr/bin/env python3
"""Gates HEAD's end-to-end speed against a base revision with perfbench.

    python3 tools/perf_gate.py BASE

Run it from the repository root. BASE is the revision to compare against:
the merge-base for a pull request, the previous tip for a push. The gate
checks BASE out into a git worktree, then runs every BENCHMARK.json
workload through each tree's own perfbench/run.py (--seed 1 --seconds 3
--trace 0), the two trees alternating in ABBA order for PAIRS pairs. Each
tree builds into its own CARGO_TARGET_DIR under .bench_build/perf_gate/;
the first run of each tree pays its build.

It fails when
  - any run, of either tree, reports a failed operation;
  - a HEAD run's `perfbench: digest` line differs from the seed-1 value
    pinned in DIGESTS (hits= is not compared: it counts lookups over
    nproc-1 reader threads; faulted_fabric is not pinned: its records
    depend on the node count, nproc-1, through the per-node ICMP rate
    limiters);
  - HEAD's median of an end-to-end metric is worse than BASE's median by
    more than the metric's BENCHMARK.json bound;
  - HEAD's median paper_scan scan_pps is below SCAN_PPS_FLOOR.

Exit status: 0 = pass, 1 = the gate failed, 2 = usage or setup error.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

# ABBA pairs per workload: a revision against itself must pass with room
# to spare (EXPERIMENTS.md, "perfbench as CI's perf gate", has the
# largest median gaps this gives and the gate's wall time).
PAIRS = 8
RUN_ARGS = ["--seed", "1", "--seconds", "3", "--trace", "0"]
# About half of paper_scan's median scan_pps on a 4-vCPU VM (~1.05M/s):
# headroom for slower shared runners, the same the old 1M floor on the
# micro-bench scan had over its ~1.9M/s.
SCAN_PPS_FLOOR = 500_000
# Seed-1 content digests of HEAD's runs.
DIGESTS = {
    "paper_scan": "records=e16461ff83b9d63f store=df06424e42486536",
    "census_pipeline": "store=8fd211cfb8f4b169 tables=31c6d00216b1df52 "
                       "loop_packets=44400",
}
GATE_DIR = os.path.join(".bench_build", "perf_gate")
DIGEST_LINE = re.compile(r"^perfbench: digest (.*) hits=\d+$", re.M)


def git(*args):
    subprocess.run(["git", *args], check=True, stdout=subprocess.DEVNULL)


def run_workload(tree, target_dir, workload):
    """Runs one workload in `tree`; returns (result dict, digest or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target_dir))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         *RUN_ARGS], cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{tree}: {workload} exited with "
                           f"{proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").splitlines()[-1])
    match = DIGEST_LINE.search(proc.stdout)
    return result, match.group(1) if match else None


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base = sys.argv[1]
    if not os.path.isfile("BENCHMARK.json"):
        print("perf_gate: run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    started = time.monotonic()
    base_tree = os.path.join(GATE_DIR, "base-tree")
    if os.path.isdir(base_tree):
        git("worktree", "remove", "--force", base_tree)
    git("worktree", "prune")
    try:
        git("worktree", "add", "--detach", "--force", base_tree, base)
    except subprocess.CalledProcessError:
        print(f"perf_gate: cannot check out {base}", file=sys.stderr)
        return 2
    trees = {"base": (base_tree, os.path.join(GATE_DIR, "base")),
             "head": (".", os.path.join(GATE_DIR, "head"))}
    results = {(side, w): [] for side in trees for w in workloads}
    problems = []
    try:
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    result, digest = run_workload(*trees[side], workload)
                    results[(side, workload)].append(result)
                    print(f"pair {pair + 1}/{PAIRS} {side} {workload}: "
                          f"failed {result['failed']}, digest {digest}",
                          flush=True)
                    if result["failed"] != 0:
                        problems.append(f"{side} {workload}: "
                                        f"{result['failed']} failed")
                    want = DIGESTS.get(workload)
                    if side == "head" and want and digest != want:
                        problems.append(f"{workload} digest: got {digest!r}, "
                                        f"expected {want!r}")
    except RuntimeError as err:
        print(f"perf_gate: {err}", file=sys.stderr)
        return 1
    finally:
        git("worktree", "remove", "--force", base_tree)

    print(f"\n{'metric':<32}{'base':>14}{'head':>14}{'change':>9}  "
          f"bound")
    for workload in workloads:
        for m in metrics:
            name = m["name"]
            base_med, head_med = (statistics.median(
                r["metrics"][name]["value"] for r in results[(side, workload)])
                for side in ("base", "head"))
            if base_med == 0:
                continue  # a metric the workload does not reach
            change = (head_med - base_med) / base_med
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "WORSE"
                problems.append(f"{workload}/{name} {change:+.1%} "
                                f"(bound {m['bound']:.0%})")
            print(f"{workload + '/' + name:<32}{base_med:>14.6g}"
                  f"{head_med:>14.6g}{change:>+9.1%}  {m['bound']:.0%} "
                  f"{verdict}")
    pps = statistics.median(r["metrics"]["scan_pps"]["value"]
                            for r in results[("head", "paper_scan")])
    print(f"paper_scan/scan_pps {pps:.6g} vs floor {SCAN_PPS_FLOOR:.6g}")
    if pps < SCAN_PPS_FLOOR:
        problems.append(f"paper_scan/scan_pps {pps:.6g} below floor "
                        f"{SCAN_PPS_FLOOR:.6g}")

    print(f"\n{PAIRS} ABBA pairs x {len(workloads)} workloads in "
          f"{time.monotonic() - started:.0f} s")
    if problems:
        print("perf gate FAILED: " + "; ".join(problems))
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
