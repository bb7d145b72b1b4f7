"""Deterministic splittable random streams and uniform ball sampling.

Randomness is addressed, not consumed: ``stream(seed, *path)`` rebuilds the
same generator at any time, so two coupled training runs can draw identical
mini-batches, perturbation initializations, and attack restarts without
sharing any mutable state. Streams with distinct paths are statistically
independent (Philox keyed through ``SeedSequence`` spawn keys).

A loop that visits many addresses derives their keys in bulk instead:
``philox_keys(seed, paths)`` is a vectorized port of ``SeedSequence``'s
mixing, one key per path, and ``keyed_stream(keys)`` re-keys one Philox
through its ``state`` setter to start the stream of any of them. The draws
are ``stream``'s at the same address, bit for bit; only the cost differs
(about 3 us to re-key against about 20 us to build a ``SeedSequence`` and a
``Philox``). ``stream`` stays the path for one-off addresses.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, _check_seed


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator addressed by ``(seed, path)``.

    The same address always yields a bit-identical draw sequence; different
    paths never share state.
    """
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's constants (numpy/random/bit_generator.pyx). All of its
# arithmetic is on uint32 words, modulo 2**32.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _consts(h: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant h, h*mult, ... (count + 1 terms) as a
    column: hash call j XORs term j in and multiplies by term j + 1."""
    c = [h]
    for _ in range(count):
        c.append(c[-1] * mult & _M32)
    return np.array(c, dtype=np.uint32)[:, None]


def _seed_pool(seed: int):
    """SeedSequence's pool of 4 words after it has mixed in the seed, and
    the running hash constant: the part every path under ``seed`` shares."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> 16

    # the seed's words, zero-padded to the pool: SeedSequence pads them when
    # a path follows, and hashes zeros into the empty lanes when none does
    pool = [hashmix(v) for v in (seed & _M32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                r = (_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])) & _M32
                pool[dst] = r ^ r >> 16
    return pool, h


def _hash(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``hashmix`` of ``v`` under consecutive constants, one per row."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ (v >> np.uint32(16))


def philox_keys(seed: int, paths) -> np.ndarray:
    """The Philox keys of ``stream(seed, *path)`` for each row of ``paths``
    (N, k), as an (N, 2) uint64 array: row i equals
    ``SeedSequence(seed, spawn_key=paths[i]).generate_state(2, np.uint64)``.

    Path elements must lie in [0, 2**32): ``SeedSequence`` spreads a larger
    one over several words, which would give the rows unequal lengths.
    """
    seed = _check_seed(seed)
    paths = np.asarray(paths, dtype=np.int64)
    if paths.ndim != 2:
        raise ValueError(f"paths must be an (N, k) array, got shape {paths.shape}")
    if paths.size and (paths.min() < 0 or paths.max() > _M32):
        raise ValueError("philox_keys takes path elements in [0, 2**32)")
    n, k = paths.shape
    pool, h = _seed_pool(seed)
    pool = np.broadcast_to(np.array(pool, dtype=np.uint32)[:, None], (4, n))
    consts = _consts(h, _MULT_A, 4 * k)
    # each path word mixed into every lane of the pool, all rows at once
    for j, word in enumerate(paths.T.astype(np.uint32)):
        r = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * _hash(word, consts[4 * j : 4 * j + 5])
        pool = r ^ (r >> np.uint32(16))
    state = _hash(pool, _consts(_INIT_B, _MULT_B, 4)).astype(np.uint64)
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def keyed_stream(keys: np.ndarray):
    """``j -> generator`` at the start of the stream whose Philox key is
    ``keys[j]``, drawing exactly as ``stream`` at that address. One Philox
    serves every ``j``: each call re-keys it, so a generator returned earlier
    restarts too. Give each concurrent user its own ``keyed_stream``."""
    bits = np.random.Philox(0)  # any seed: each call replaces the whole state
    gen = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)

    def at(j: int) -> np.random.Generator:
        # counter and buffer zeroed, no half-used uint32 carried over
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": keys[j]},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    return at


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
    _l2_ball_points(g, u, radius)
    return g[0] if size is None else g


def _l2_ball_points(g: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """The L2 ball's arithmetic: Gaussian rows ``g`` (n, dim) and uniforms
    ``u`` (n, 1) to points of the ball, written over ``g``. Each row is
    computed alone, so n rows equal n one-row calls bit for bit."""
    # the arithmetic of np.linalg.norm(g, axis=1, keepdims=True), without its dispatch
    norms = np.sqrt(np.add.reduce(g * g, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    g /= norms
    g *= radius * u ** (1.0 / g.shape[1])
    return g


def _linf_ball(rng, dim, radius, size):
    n = 1 if size is None else int(size)
    out = rng.uniform(-radius, radius, size=(n, dim)) if radius > 0 else np.zeros((n, dim))
    return out[0] if size is None else out
