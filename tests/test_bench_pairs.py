import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NARROW = [1.00, 1.01, 0.99, 1.00]
WIDE = [1.0, 2.0, 1.5, 3.0]  # IQR over median 0.58


@pytest.mark.parametrize(
    "before, after, lower, want",
    [
        (NARROW, [1.5, 1.4, 1.6, 1.5], True, "regressed"),
        (WIDE, [4.0, 3.5, 5.0, 4.5], True, "regressed"),
        ([100, 200, 150, 300], [40, 50, 45, 60], False, "regressed"),
        (NARROW, [1.00, 1.02, 0.98, 1.00], True, "within"),
        (NARROW, [1.00, 1.02, 0.98, 1.00], False, "within"),
        (WIDE, [0.9, 2.1, 1.4, 3.0], True, "unresolved"),
        # every change run beats every parent run: resolved however wide the spread
        (WIDE, [0.5, 0.6, 0.7, 0.9], True, "better"),
        ([100, 200, 150, 300], [400, 500, 450, 600], False, "better"),
        (NARROW, [0.98, 0.97, 0.985, 0.95], True, "better"),
        # a tie beats nothing
        (WIDE, [0.5, 0.6, 0.7, 1.0], True, "unresolved"),
        ([0.0, 0.0], [0.0, 0.0], True, "unresolved"),
    ],
)
def test_verdict(before, after, lower, want):
    assert bench_pairs.verdict(before, after, lower, 0.25) == want


TEN = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # IQR 0.01


@pytest.mark.parametrize(
    "before, after, lower, want",
    [
        (TEN, [0.90] * 10, True, True),
        # nine wins of ten is enough, eight is not
        (TEN, [0.90] * 9 + [1.10], True, True),
        (TEN, [0.90] * 8 + [1.10] * 2, True, False),
        # every pair won, but the medians differ by less than the parent's IQR
        (TEN, [t - 0.005 for t in TEN], True, False),
        # ties count for neither side
        (TEN, list(TEN), True, False),
        (TEN, [0.90] * 8 + [1.00, 1.00], True, False),
        # higher is better
        (TEN, [1.10] * 10, False, True),
        (TEN, [0.90] * 10, False, False),
        # WIDE's IQR is 0.875: every pair won, by a median 0.5 or 1.1 lower
        (WIDE, [0.95, 1.3, 1.2, 1.4], True, False),
        (WIDE, [0.5, 0.6, 0.7, 0.9], True, True),
    ],
)
def test_gain(before, after, lower, want):
    assert bench_pairs.gain(before, after, lower) is want
