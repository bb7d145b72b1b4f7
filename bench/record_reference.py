"""Record the values the benchmark checks its outputs against.

    python3 bench/record_reference.py --seeds 0-15

Runs one full-size pass of every workload for each seed and writes
``bench/reference.json``. A pass with a failed op is refused. Re-record only
in a change that means to move results, and say there which values moved
and why; a run whose seed has no recorded values says so and skips the
check.
"""

from __future__ import annotations

import argparse
import json

import run  # pins BLAS before NumPy loads

# A result matches when |got - recorded| <= atol + rtol * |recorded|; an
# accuracy may differ by one training sample in 500 (a point on the boundary).
TOLERANCE = {"rtol": 1e-6, "atol": 1e-9, "acc_atol": 0.002}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-15", help="inclusive range 'a-b'")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))

    run._import_library()
    from workloads import WORKLOADS

    values = {}
    for name, workload in WORKLOADS.items():
        values[name] = {}
        for seed in range(lo, hi + 1):
            result = workload(seed, "full", run.OUT).run_pass()
            if result.failed:
                raise SystemExit(f"{name} seed {seed}: failed ops {result.failures}")
            values[name][str(seed)] = result.summary
            print(name, seed, "recorded", flush=True)
    payload = {"size": "full", "tolerance": TOLERANCE, "values": values}
    (run.HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
