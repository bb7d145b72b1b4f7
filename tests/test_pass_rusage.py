"""tools/pass_rusage.py measures passes of a benchmark workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "pass_rusage.py"


@pytest.mark.parametrize("workload", ["seq-train", "bound-curve"])
def test_one_tiny_pass_prints_its_medians(workload):
    run = subprocess.run(
        [sys.executable, str(_TOOL), "--workload", workload, "--size", "tiny", "--passes", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-2].startswith("pass 1: wall_s ")
    medians = json.loads(lines[-1])
    assert list(medians) == ["wall_s", "cpu_s", "children_cpu_s", "minflt", "children_minflt", "maxrss_mb"]
    assert all(value >= 0 for value in medians.values()) and medians["wall_s"] > 0 and medians["maxrss_mb"] > 0
