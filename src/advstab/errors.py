"""Shared exception types, and the integer checks that raise them."""

import numbers

import numpy as np


class DimensionError(ValueError):
    """An input vector or matrix has the wrong dimension."""


class ConfigError(ValueError):
    """An algorithm or experiment configuration is invalid."""


class DegenerateGradientError(ValueError):
    """A direction-dependent operation received a zero gradient."""


class TraceError(ValueError):
    """A trace lacks the granularity or fields a consumer requires."""


def _count(value, name: str, least: int, error: type = ConfigError) -> int:
    """``value`` as an int, or an ``error`` naming ``name`` when it is not
    an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _int64s(values, name: str, error: type = ValueError) -> np.ndarray:
    """``values`` as an int64 array, or an ``error`` naming ``name`` when
    the cast would change a value (0.7 is not label 0). An integer array
    is cast without a check, and not copied when it is int64 already."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, which the comparison rejects
        ints = values.astype(np.int64)
    if not np.array_equal(ints, values):
        raise error(f"{name} must be integers, got {values[ints != values].flat[0]}")
    return ints
