"""Tiny-size smoke test of the benchmark.

Each workload runs once untraced and once traced at ``--size tiny``. The
printed metrics must be exactly those ``BENCHMARK.json`` declares, with
their units, every check must pass, and the traced passes must produce the
same output digest as the untraced ones.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "tiny", "--seconds", "0"]
    proc = subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_printed_and_checks_pass(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    digests = json.loads(next(line for line in lines if line.startswith("digests:"))[len("digests:") :])
    assert len(digests["U"]) == 1, "replaying the seed changed the outputs"
    if trace:
        assert digests["T"] == digests["U"], "tracing changed the outputs"
