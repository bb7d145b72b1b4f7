"""Cost of one weight update under each training algorithm, on one or more checkouts.

    python3 tools/update_costs.py --checkout DIR [--checkout DIR] [--rounds N] [--updates U]

Times ``trainers.train`` per weight update for each of the five algorithms
at one shape: an MLP 20-16-2 on n = 500 two-Gaussian rows, b = 25, an
inner attack of K = 10 steps, free_steps 4 and a TRADES lambda of 1. Each
round runs one fresh process per checkout, and the order of the checkouts
swaps from one round to the next, so a slow drift of a shared machine falls
on every checkout alike. The process imports only that checkout's ``src/``
(no bytecode written), with BLAS pinned to one thread, and trains each
algorithm once for 4 updates to warm up and once for U updates on the clock.

Prints each round's µs per update, then for each checkout the median over
the rounds of each algorithm's µs per update and of the free_trades/free
and trades_seq/vanilla ratios, each ratio taken within one process. The
last line is one JSON object of those medians, keyed by checkout. A child
process that fails stops the tool with exit status 1. Standard library and
NumPy only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ALGORITHMS = ("vanilla", "trades_seq", "free", "free_trades", "fast")
RATIOS = (("free_trades", "free"), ("trades_seq", "vanilla"))

# the child: train every algorithm at the shape above and print one JSON
# line of µs per update; argv is the checkout's src/ and U
_CHILD = """
import json, sys, time
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import advstab
from advstab.models import make_model
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet
from advstab.trainers import StepSchedule, TrainConfig, train

assert advstab.__file__.startswith(sys.argv[1]), advstab.__file__
updates = int(sys.argv[2])
data = make_synthetic(SyntheticSpec("two_gaussians", n_train=500, n_test=10, dim=20, noise=1.0, seed=1))[0]
model = make_model("mlp", input_dim=20, hidden_dim=16)


def cfg(algorithm, T):
    return TrainConfig(
        algorithm, PerturbationSet("l2", 0.5, 20), StepSchedule("constant", c=0.3), batch_size=25,
        total_iterations=T, seed=11, free_steps=4,
        trades_lambda=1.0 if algorithm in ("trades_seq", "free_trades") else None,
        inner_attack=AttackConfig(steps=10, step_size=0.125),
    )


costs = {}
for algorithm in %r:
    train(model, data, cfg(algorithm, 4))
    start = time.perf_counter()
    train(model, data, cfg(algorithm, updates))
    costs[algorithm] = (time.perf_counter() - start) / updates * 1e6
print(json.dumps(costs))
""" % (ALGORITHMS,)


def run_child(checkout: Path, updates: int) -> dict:
    """One process on ``checkout``: µs per update by algorithm."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str((checkout / "src").resolve())
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(updates)], cwd=src, env=env, capture_output=True, text=True, timeout=1800
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        sys.exit(f"error: the process on {checkout} exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", type=Path, action="append", required=True, help="repeat for each checkout")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--updates", type=int, default=600, help="timed updates per algorithm, a multiple of 4")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.updates < 4 or args.updates % 4:
        parser.error("--rounds must be >= 1 and --updates a positive multiple of 4")
    missing = [str(c) for c in args.checkout if not (c / "src" / "advstab").is_dir()]
    if missing:
        parser.error(f"no src/advstab in {', '.join(missing)}")

    names = [str(c) for c in args.checkout]
    rows = {name: [] for name in names}
    print(f"{len(names)} checkout(s), {args.rounds} round(s), {args.updates} timed updates per algorithm, µs per update")
    for k in range(args.rounds):
        order = list(zip(names, args.checkout))
        if k % 2:
            order.reverse()
        for name, checkout in order:
            costs = run_child(checkout, args.updates)
            costs.update({f"{a}/{b}": costs[a] / costs[b] for a, b in RATIOS})
            rows[name].append(costs)
            print(f"round {k + 1} {name}: " + " ".join(f"{a} {costs[a]:.1f}" for a in ALGORITHMS), flush=True)

    keys = ALGORITHMS + tuple(f"{a}/{b}" for a, b in RATIOS)
    medians = {name: {key: statistics.median(row[key] for row in rows[name]) for key in keys} for name in names}
    width = max(len(name) for name in names + ["median"])
    print(f"  {'median':<{width}} " + " ".join(f"{key:>{max(len(key), 8)}}" for key in keys))
    for name in names:
        print(f"  {name:<{width}} " + " ".join(f"{medians[name][key]:>{max(len(key), 8)}.4g}" for key in keys))
    print(json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
