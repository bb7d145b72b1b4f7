"""tools/output_digests.py prints the same digest lines on every run."""

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def _digests(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True, timeout=600)


def test_two_runs_print_equal_digest_lines():
    runs = [_digests("--only", "gap,stability") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert lines == runs[1].stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    labels = [line.split()[0] for line in lines]
    for alg in ("vanilla", "free", "fast", "trades_seq", "free_trades"):
        assert f"gap:{alg}/stdout" in labels and f"gap:{alg}/out/report.json" in labels
    assert labels[-2:] == ["stability/stdout", "stability/out/report.json"]


def test_an_unknown_job_is_refused():
    run = _digests("--only", "gap,nope")
    assert run.returncode == 2 and "unknown job 'nope'" in run.stderr and not run.stdout
