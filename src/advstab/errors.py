"""Shared exception types, and the integer check that raises them."""

import numbers


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
