"""Digests of every CLI output and demo output of a checkout.

    python3 tools/output_digests.py [--only gap,vs-n,transfer,free-trades,stability,bounds,check,demos]

Runs each ``advstab`` subcommand on a small built-in config (``gap`` once
per algorithm) and each script under ``demos/``, every one in a fresh
temporary directory with this checkout's ``src/`` first on ``PYTHONPATH`` and
one BLAS thread, and prints one ``label sha256`` line for its stdout and for
each file it wrote. ``--only`` runs the named jobs alone. Running the tool in
two checkouts and diffing the lines tells whether a change left every output
byte-identical. A command that exits non-zero stops the tool with exit
status 1 and the tail of its stderr. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# small enough that every job runs in a few seconds; the c/(m t) schedule
# with m = free_steps lets gap attach the free rule's bound
CONFIG = {
    "model": {"kind": "mlp", "hidden_dim": 6},
    "data": {"n_train": 60, "n_test": 80, "dim": 4, "seed": 3},
    "train": {
        "eps": 0.3,
        "batch_size": 10,
        "total_iterations": 40,
        "seed": 5,
        "free_steps": 4,
        "trades_lambda": 0.5,
        "schedule": {"kind": "vanishing_c_over_mt", "c": 0.5, "m": 4},
        "inner_attack": {"steps": 3},
    },
    "eval": {"attack": {"steps": 3}, "checkpoint_every": 10},
    "trials": 2,
}
CONFIG_B = {"train": {"algorithm": "vanilla", "seed": 6}}
ALGORITHMS = ("vanilla", "free", "fast", "trades_seq", "free_trades")


def jobs(inputs: Path) -> dict:
    """Job name -> [(label, argv)]."""
    cli = [sys.executable, "-m", "advstab"]
    common = ["--config", str(inputs / "config.json"), "--out", "out"]
    return {
        "gap": [(f"gap:{alg}", cli + ["gap", *common, "--algorithm", alg]) for alg in ALGORITHMS],
        "vs-n": [("vs-n", cli + ["vs-n", *common, "--n-values", "40,60"])],
        "transfer": [("transfer", cli + ["transfer", *common, "--algorithm", "free", "--config-b", str(inputs / "config_b.json")])],
        "free-trades": [("free-trades", cli + ["free-trades", *common])],
        "stability": [("stability", cli + ["stability", *common, "--algorithm", "free", "--pairs", "2"])],
        "bounds": [("bounds", cli + ["bounds", *common, "--algorithm", "free", "--probes", "50"])],
        "check": [("check", cli + ["check"])],
        "demos": [(f"demo:{path.stem}", [sys.executable, str(path)]) for path in sorted((ROOT / "demos").glob("*.py"))],
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(label: str, argv: list, env: dict) -> list:
    """The digest lines of one command, run in a directory of its own."""
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=900)
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.decode(errors="replace").splitlines()[-20:])
            sys.exit(f"{label} exited {proc.returncode}\n{tail}")
        lines = [f"{label}/stdout {_sha(proc.stdout)}"]
        for path in sorted(p for p in Path(cwd).rglob("*") if p.is_file()):
            lines.append(f"{label}/{path.relative_to(cwd).as_posix()} {_sha(path.read_bytes())}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="comma-separated job names (default: all)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        (inputs / "config.json").write_text(json.dumps(CONFIG))
        (inputs / "config_b.json").write_text(json.dumps(CONFIG_B))
        table = jobs(inputs)
        names = args.only.split(",") if args.only else list(table)
        unknown = [name for name in names if name not in table]
        if unknown:
            parser.error(f"unknown job {unknown[0]!r}; known: {', '.join(table)}")
        for name in names:
            for label, cmd in table[name]:
                print("\n".join(digest(label, cmd, env)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
