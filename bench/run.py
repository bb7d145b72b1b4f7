"""advstab benchmark: one workload per process, closed loop, outputs checked.

    python3 bench/run.py --workload seq-train --seed 0 --seconds 40 --trace 0

Run from a checkout: the library is imported from ``src/`` next to this
directory and nowhere else. With ``--trace 0`` the benchmark times untraced
passes and prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--size tiny`` runs the same code paths on tiny
inputs (the smoke test uses it); the measured size is ``full``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before NumPy loads: on two cores a second BLAS
# thread made a trades_seq trial both slower and far noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import INCL_GROUPS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

MIN_PASSES = 2  # replaying the seed once is part of the checks
MIN_TRACED = 2  # two traced passes, so their call counts can be compared
SETUP_PROBES = 5  # fresh processes timed for setup_s


def _import_library():
    """Import advstab from this checkout's ``src/``; exit non-zero if absent."""
    if not (SRC / "advstab" / "__init__.py").is_file():
        sys.exit(f"error: advstab sources not found at {SRC / 'advstab'}")
    sys.path.insert(0, str(SRC))
    import advstab

    if Path(advstab.__file__).resolve().parent != (SRC / "advstab").resolve():
        sys.exit(f"error: imported advstab from {advstab.__file__}, not from {SRC}")


# -- environment -------------------------------------------------------------


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "advstab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "source_sha256": src.hexdigest(),
    }


# -- statistics --------------------------------------------------------------


def tail(values):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it, as
    ``(percentile, value)``; None when there are fewer than 100 samples."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p, float(np.percentile(values, p))
    return None


def _timing_line(name, values, unit, scale=1.0):
    med = statistics.median(values) * scale
    t = tail(values)
    tail_txt = f", p{t[0]:g} {t[1] * scale:.6g}" if t else ", no tail (under 100 samples)"
    return f"  {name}: median {med:.6g} {unit}{tail_txt}, n={len(values)}"


# -- set-up ------------------------------------------------------------------


def setup_probe_times(args) -> list:
    """Fresh-process set-up times: spawn the benchmark in set-up-only mode and
    time from spawn until it reports its inputs ready. One at a time."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--size",
        args.size,
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    return times


# -- checks across passes ----------------------------------------------------


def reference_mismatches(summary: dict, workload: str, seed: int, size: str):
    """Differences between a pass summary and the values recorded for this
    workload and seed. None when nothing is recorded for them."""
    ref = json.loads((HERE / "reference.json").read_text())
    if size != ref["size"]:
        return None
    values = ref["values"].get(workload, {}).get(str(seed))
    if values is None:
        return None
    tol = ref["tolerance"]
    bad = []
    for key, want in values.items():
        got = summary.get(key)
        limit = tol["acc_atol"] if key.endswith("_acc") else tol["atol"] + tol["rtol"] * abs(want)
        if got is None or not abs(got - want) <= limit:
            bad.append(f"{key}: got {got!r}, recorded {want!r}")
    return bad


def check_passes(results, workload, seed, size, problems):
    """Replay and reference checks. A pass whose digest differs from the
    first pass's, or a first pass off its reference, fails all its ops."""
    for i, r in enumerate(results[1:], 1):
        if r.digest != results[0].digest:
            problems.append(f"pass {i} replayed seed {seed} with a different digest")
            for label in r.failures:
                r.op(label, ["replay digest mismatch"])
    bad = reference_mismatches(results[0].summary, workload, seed, size)
    if bad is None:
        print(f"reference: none recorded for {workload} seed {seed} size {size}")
    elif bad:
        problems.extend(bad)
        for label in results[0].failures:
            results[0].op(label, ["reference mismatch"])
    else:
        print(f"reference: recorded values for {workload} seed {seed} match")


# -- runs --------------------------------------------------------------------


def _passes(wl, seconds, traced):
    """Run passes until another would not fit in ``seconds``: at least
    MIN_PASSES untraced ones, or one untraced and MIN_TRACED traced ones,
    then alternating untraced and traced when ``traced``. Each traced pass
    is reduced to its summary; only the last one's spans are kept."""
    results, walls, summaries, digests = [], {"U": [], "T": []}, [], {"U": set(), "T": set()}
    tracer = None
    kinds = ["U"] + ["T"] * MIN_TRACED if traced else ["U"] * MIN_PASSES
    start = time.perf_counter()
    while True:
        if not kinds:
            typical = statistics.median(walls["U"] + walls["T"])
            if time.perf_counter() - start + typical > seconds:
                break
            kinds.append("T" if traced and len(walls["T"]) <= len(walls["U"]) else "U")
        kind = kinds.pop(0)
        if kind == "T":
            tracer = Tracer().install()
        try:
            t0 = time.perf_counter()
            results.append(wl.run_pass())
            walls[kind].append(time.perf_counter() - t0)
            digests[kind].add(results[-1].digest)
        finally:
            if kind == "T":
                tracer.uninstall()
        if kind == "T":
            summaries.append(tracer.summary())
    print("digests:", json.dumps({k: sorted(v) for k, v in digests.items() if v}))
    return results, walls, summaries, tracer


def run_untraced(args, wl, problems):
    setup = setup_probe_times(args)
    results, walls, _, _ = _passes(wl, args.seconds, traced=False)
    check_passes(results, args.workload, args.seed, args.size, problems)
    wall = statistics.median(walls["U"])
    op_times = [t for r in results for t in r.op_times]
    updates = results[0].updates
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "updates_per_s": (updates / wall, "1/s"),
        "op_ms_p50": (statistics.median(op_times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    coupled = args.workload == "coupled-growth"
    print(f"passes: {len(results)}, {updates} updates each, closed loop, one process")
    print(_timing_line("setup_s", setup, "s"))
    print(_timing_line("wall_s", walls["U"], "s"), "passes:", " ".join(f"{w:.4f}" for w in walls["U"]))
    print(_timing_line("pair_ms" if coupled else "trial_ms", op_times, "ms", 1e3))
    if coupled:
        probes = sum(r.probes for r in results)
        probe_s = sum(r.probe_s for r in results)
        print(f"  probes_per_s: {probes / probe_s:.6g} 1/s over {probes} probes")
    return metrics, results


def run_traced(args, wl, problems):
    results, walls, summaries, tracer = _passes(wl, args.seconds, traced=True)
    check_passes(results, args.workload, args.seed, args.size, problems)  # traced digests equal untraced
    calls = {g: row["calls"] for g, row in summaries[0].items()}
    for i, s in enumerate(summaries[1:], 1):
        other = {g: row["calls"] for g, row in s.items()}
        if other != calls:
            diff = {g: (calls[g], other[g]) for g in calls if calls[g] != other[g]}
            problems.append(f"traced pass {i} call counts differ: {diff}")
    traced_wall = statistics.median(walls["T"])

    def med(group, key):
        return statistics.median(s[group][key] for s in summaries)

    def ratio(a, b):
        return a / b if b else 0.0  # 0 for a layer the workload never calls

    # Time-valued metrics here are nonzero on every workload; a layer that a
    # workload never calls shows as zero calls and a zero share instead.
    first = summaries[0]
    metrics = {"trace.wall_s": (traced_wall, "s")}
    for g, row in first.items():
        metrics[f"{g}.calls"] = (row["calls"], "count")
        metrics[f"{g}.share"] = (med(g, "self_s") / traced_wall, "ratio")
        if g in INCL_GROUPS:
            metrics[f"{g}.incl_share"] = (med(g, "incl_s") / traced_wall, "ratio")
    oracle, forward = first["models.oracle"], first["models.forward"]
    metrics["models.oracle.us_per_call"] = (med("models.oracle", "self_s") / oracle["calls"] * 1e6, "us")
    metrics["models.oracle.rows_per_call"] = (oracle["size"] / oracle["calls"], "rows")
    metrics["models.oracle.attack_only_frac"] = (oracle["under_pgd"] / oracle["calls"], "ratio")
    metrics["models.forward.rows_per_call"] = (ratio(forward["size"], forward["calls"]), "rows")
    for g in ("bounds.lipschitz", "bounds.smoothness"):
        metrics[f"{g}.probes_per_s"] = (ratio(first[g]["size"], med(g, "incl_s")), "1/s")
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(walls["U"]) - 1.0, "ratio")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-spans.csv"
    tracer.write_csv(spans)
    print(f"passes: {len(walls['U'])} untraced, {len(walls['T'])} traced; spans of the last traced pass in {spans}")
    print(_timing_line("wall_s untraced", walls["U"], "s"))
    print(_timing_line("wall_s traced", walls["T"], "s"))
    print(f"  {'group':<20} {'calls':>9} {'self_s':>10} {'share':>7} {'incl_s':>10}")
    for g, row in first.items():
        self_s, incl_s = med(g, "self_s"), med(g, "incl_s")
        print(f"  {g:<20} {row['calls']:>9} {self_s:>10.4f} {self_s / traced_wall:>7.1%} {incl_s:>10.4f}")
    return metrics, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["seq-train", "bound-curve", "coupled-growth"])
    parser.add_argument("--seed", type=int, default=0, help="shifts every data, trial, pair and probe seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.size, OUT)
        print("ready", flush=True)
        return 0

    print("env:", json.dumps(environment()))
    print(f"workload: {args.workload}, seed {args.seed}, size {args.size}, {args.seconds:g} s, trace {args.trace}")
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.size, OUT)
    problems = []
    metrics, results = (run_traced if args.trace else run_untraced)(args, wl, problems)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"  ops_failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for r in results:
        for label, reasons in r.failures.items():
            if reasons:
                print(f"FAILED {label}: {'; '.join(dict.fromkeys(reasons))}")
    for p in problems:
        print("PROBLEM", p)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
