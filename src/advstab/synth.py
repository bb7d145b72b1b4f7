"""Synthetic classification datasets: deterministic, balanced, and drawn
i.i.d. for train and test from one distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, _count, _real
from .models import Dataset, LabeledSample
from .rng import _check_seed, stream

__all__ = ["SyntheticSpec", "make_synthetic", "draw_replacement"]

_KINDS = ("two_gaussians", "xor_clusters", "spiral2d")

# stream ids under the data seed
_TRAIN, _TEST, _EXTRA = 0, 1, 2


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    n_train: int
    n_test: int
    dim: int
    noise: float
    seed: int
    separation: float = 2.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        _count(self.n_train, "n_train", 2, DimensionError)
        _count(self.n_test, "n_test", 2, DimensionError)
        _count(self.dim, "dim", 1, DimensionError)
        if self.kind == "spiral2d" and self.dim != 2:
            raise ConfigError("spiral2d is two-dimensional")
        if not (math.isfinite(_real(self.noise, "noise")) and self.noise >= 0):
            raise ConfigError("noise must be >= 0")
        if not math.isfinite(_real(self.separation, "separation")):
            raise ConfigError(f"separation must be finite, got {self.separation}")
        _check_seed(self.seed, "data.seed")


def _balanced_labels(n: int) -> np.ndarray:
    y = np.zeros(n, dtype=np.int64)
    y[n // 2 :] = 1  # class sizes differ by at most one
    return y


def _two_gaussians(spec: SyntheticSpec, n: int, rng) -> Dataset:
    u = np.ones(spec.dim) / np.sqrt(spec.dim)
    mu = 0.5 * spec.separation * u
    y = _balanced_labels(n)
    X = spec.noise * rng.standard_normal((n, spec.dim))
    X[y == 0] -= mu
    X[y == 1] += mu
    return Dataset(X, y)


def _xor_clusters(spec: SyntheticSpec, n: int, rng) -> Dataset:
    if spec.dim < 2:
        raise ConfigError("xor_clusters needs dim >= 2")
    y = _balanced_labels(n)
    X = spec.noise * rng.standard_normal((n, spec.dim))
    half = 0.5 * spec.separation
    # class 0 at (+,+) and (-,-); class 1 at (+,-) and (-,+)
    corner = rng.integers(0, 2, size=n)
    sx = np.where(corner == 0, 1.0, -1.0)
    sy = np.where(y == 0, sx, -sx)
    X[:, 0] += half * sx
    X[:, 1] += half * sy
    return Dataset(X, y)


def _spiral2d(spec: SyntheticSpec, n: int, rng) -> Dataset:
    y = _balanced_labels(n)
    u = rng.random(n)
    theta = 0.5 + 3.5 * np.pi * u
    radius = 0.15 * spec.separation * theta
    phase = theta + np.pi * y
    X = np.stack([radius * np.cos(phase), radius * np.sin(phase)], axis=1)
    X += spec.noise * rng.standard_normal((n, 2))
    return Dataset(X, y)


_BUILDERS = {"two_gaussians": _two_gaussians, "xor_clusters": _xor_clusters, "spiral2d": _spiral2d}


def make_synthetic(spec: SyntheticSpec):
    """Deterministic (train, test) pair from the spec's seed; the test set
    is an independent draw from the same distribution."""
    build = _BUILDERS[spec.kind]
    train = build(spec, spec.n_train, stream(spec.seed, _TRAIN))
    test = build(spec, spec.n_test, stream(spec.seed, _TEST))
    return train, test


def draw_replacement(spec: SyntheticSpec, key: int) -> LabeledSample:
    """One fresh sample from the data distribution, for neighbor building."""
    ds = _BUILDERS[spec.kind](spec, 2, stream(spec.seed, _EXTRA, key))
    i = int(stream(spec.seed, _EXTRA, key, 1).integers(2))
    return ds.sample(i)
