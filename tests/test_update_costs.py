"""tools/update_costs.py times a weight update of each algorithm."""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "update_costs.py"
_KEYS = ["vanilla", "trades_seq", "free", "free_trades", "fast", "free_trades/free", "trades_seq/vanilla"]


def _run(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True, timeout=300)


def test_one_round_on_this_checkout_prints_its_medians():
    run = _run("--checkout", str(_ROOT), "--rounds", "1", "--updates", "8")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[1].startswith(f"round 1 {_ROOT}: vanilla ")
    medians = json.loads(lines[-1])
    assert list(medians) == [str(_ROOT)]
    assert list(medians[str(_ROOT)]) == _KEYS
    assert all(value > 0 for value in medians[str(_ROOT)].values())


def test_updates_must_be_a_positive_multiple_of_the_free_steps():
    run = _run("--checkout", str(_ROOT), "--updates", "6")
    assert run.returncode == 2 and "--updates a positive multiple of 4" in run.stderr
