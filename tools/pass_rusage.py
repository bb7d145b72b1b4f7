"""Per-pass CPU time, page faults and peak memory of one benchmark workload.

    python3 tools/pass_rusage.py --workload W [--size full|tiny] [--passes N] [--seed S]

Builds workload W of ``bench/workloads.py`` from this checkout's ``src/`` and
``bench/``, which it only reads: no bytecode is written and the workload's
outputs go to a temporary directory. BLAS is pinned to one thread before
NumPy loads, as ``bench/run.py`` pins it. After one warm-up pass it runs N
passes and prints, for each, its wall time, the user plus system CPU time
of this process and of the child processes it reaped during the pass, the
minor page faults of each, and this process's max RSS so far
(``resource.getrusage``). CPU time leaves out the time the machine gave to
other processes, which wall time counts. The last line is one JSON object:
the medians of the N passes. A pass whose outputs fail the workload's own
checks stops the tool with exit status 1. Standard library and NumPy only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = ("wall_s", "cpu_s", "children_cpu_s", "minflt", "children_minflt", "maxrss_mb")


def _usage() -> tuple:
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        time.perf_counter(),
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
        own.ru_minflt,
        children.ru_minflt,
    )


def measure(wl) -> dict:
    """One pass of ``wl``: the KEYS, each the pass's share but the max RSS."""
    before = _usage()
    res = wl.run_pass()
    after = _usage()
    if res.failed:
        sys.exit(f"error: a pass failed its checks: {res.failures}")
    row = dict(zip(KEYS, (b - a for a, b in zip(before, after))))
    row["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["seq-train", "bound-curve", "coupled-growth"])
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    print(f"workload: {args.workload}, seed {args.seed}, size {args.size}, 1 warm-up pass and {args.passes} measured")
    with tempfile.TemporaryDirectory() as out:
        wl = WORKLOADS[args.workload](args.seed, args.size, Path(out))
        measure(wl)
        rows = []
        for k in range(args.passes):
            rows.append(measure(wl))
            print(f"pass {k + 1}: " + " ".join(f"{key} {rows[-1][key]:.6g}" for key in KEYS), flush=True)
    print(json.dumps({key: statistics.median(row[key] for row in rows) for key in KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
