"""Alternating pair runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S [--seed K]

Runs ``bench/run.py --trace 0`` of each checkout in turn, N pairs, and swaps
which side goes first from one pair to the next, so a slow drift of a shared
machine falls on both sides alike. A run that exits non-zero, or whose last
line of output is not a JSON result with ``correct: true``, is refused: the
tool prints the tail of that run's output and exits 1. Otherwise it prints
each pair's values and then, for each end-to-end metric that the change
checkout's ``BENCHMARK.json`` declares, both medians, both interquartile
ranges (quartiles by linear interpolation), the relative change of the
medians and how many pairs the change won by the metric's direction (a tie
wins nothing). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``: its metric values by name."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seconds", str(args.seconds)]
    cmd += ["--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=3 * args.seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-20:])
        sys.exit(f"refused: the run in {checkout} exited {proc.returncode} and did not report correct: true\n{tail}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout measured as the baseline")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of each run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        row = " ".join(f"{m['name']} {runs['parent'][-1][m['name']]:.6g} -> {runs['change'][-1][m['name']]:.6g}" for m in metrics)
        print(f"pair {k + 1} ({order[0]} first): {row}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"  {'metric':<14} {'parent median':>14} {'IQR':>10} {'change median':>14} {'IQR':>10} {'change':>8} {'wins':>6}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        p1, p2, p3 = quartiles(before)
        c1, c2, c3 = quartiles(after)
        wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
        rel = (c2 - p2) / p2 if p2 else float("nan")
        print(f"  {name:<14} {p2:>14.6g} {p3 - p1:>10.4g} {c2:>14.6g} {c3 - c1:>10.4g} {rel:>+8.1%} {wins:>3}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
