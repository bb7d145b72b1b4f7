"""Deterministic splittable random streams and uniform ball sampling.

Randomness is addressed, not consumed: ``stream(seed, *path)`` rebuilds the
same generator at any time, so two coupled training runs can draw identical
mini-batches, perturbation initializations, and attack restarts without
sharing any mutable state. Streams with distinct paths are statistically
independent (Philox keyed through ``SeedSequence`` spawn keys).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

_U64_MAX = 2**64 - 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator addressed by ``(seed, path)``.

    The same address always yields a bit-identical draw sequence; different
    paths never share state.
    """
    seed = int(seed)
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _check_ball(dim: int, radius: float) -> None:
    if int(dim) < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def sample_uniform_l2_ball(rng: np.random.Generator, dim: int, radius: float, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the solid L2 ball of the given radius.

    Gaussian direction times ``radius * u**(1/dim)`` radial scaling. The
    draw count per sample is fixed (dim normals + one uniform) regardless of
    the outcome, so paired streams never desynchronize; rejection sampling
    is deliberately not used.
    """
    _check_ball(dim, radius)
    return _l2_ball(rng, dim, radius, size)


def sample_uniform_linf_ball(rng: np.random.Generator, dim: int, radius: float, size: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the L-infinity ball: each coordinate uniform on [-radius, radius]."""
    _check_ball(dim, radius)
    return _linf_ball(rng, dim, radius, size)


def _l2_ball(rng, dim, radius, size):
    n = 1 if size is None else int(size)
    g = rng.standard_normal((n, dim))
    u = rng.random((n, 1))
    # the arithmetic of np.linalg.norm(g, axis=1, keepdims=True), without its dispatch
    norms = np.sqrt(np.add.reduce(g * g, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    g /= norms
    g *= radius * u ** (1.0 / dim)
    return g[0] if size is None else g


def _linf_ball(rng, dim, radius, size):
    n = 1 if size is None else int(size)
    out = rng.uniform(-radius, radius, size=(n, dim)) if radius > 0 else np.zeros((n, dim))
    return out[0] if size is None else out
