"""Constant estimation, stability exponents, and the closed-form
generalization bounds.

The three bounds share one code path: if the expected coupled divergence
satisfies

    E[d_t] <= (1 + nu/t) E[d_{t-1}] + (nu / (n t)) xi

over n_steps steps, the expected generalization gap is at most

    (b/n) (1 + 1/nu) (lipschitz_w * xi * nu / b)^(1/(nu+1)) * n_steps^(nu/(nu+1)).

The per-algorithm bounds are parameterizations of this formula:

    vanilla  nu = beta*c                        xi = 2*eps*n + 2*L/beta     n_steps = T
    free     nu = beta*c*(1 + beta*c/m
                   + ad*eps*psi*beta)^(m-1)     xi = 2*L/beta               n_steps = T/m
    fast     nu = beta*c*(1 + s*eps*psi*beta)   xi = 2*L/(beta*(1+s*eps*psi*beta))   n_steps = T

All constants are estimated local quantities over an explicitly sampled
region (weights inside a visited envelope plus margin, perturbations inside
the ball, inputs from a data pool); a tanh network has no useful global
constants, so every estimate is reported together with its region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError, _count
from .models import Dataset, SmoothModel
from .threat import PerturbationSet

__all__ = [
    "ConstantEstimates",
    "RegionSampler",
    "TrajectorySampler",
    "BoundInputs",
    "BoundReport",
    "GrowthRecursion",
    "ExpansivityMatrix",
    "estimate_lipschitz",
    "estimate_smoothness",
    "estimate_psi",
    "PsiEstimate",
    "estimate_constants",
    "lambda_vanilla",
    "lambda_free",
    "lambda_fast",
    "recursion_bound",
    "bound_vanilla",
    "bound_free",
    "bound_fast",
    "expansivity_power",
    "closed_form_contraction",
    "free_vs_vanilla_rate_ratio",
]

# absolute widening of a visited weight envelope on each side
ENVELOPE_MARGIN = 0.1
# psi = 1 / max(smallest perturbation-gradient norm, PSI_FLOOR)
PSI_FLOOR = 1e-6


class _ProbeSampler:
    """The probe draw both samplers share: a weight vector (``_draw_w``, then
    ``_weights`` on the stack), a perturbation from the ball, a pool row."""

    def _as_arrays(self, **dtypes):
        """The named fields as arrays of the given dtypes (no copy when they
        are), so a sampler built from lists works like one built from arrays."""
        for name, dtype in dtypes.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def _check_pool(self):
        self._as_arrays(X=np.float64, y=np.int64)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise DimensionError(f"the pool needs X (n, d) and y (n,), got {self.X.shape} and {self.y.shape}")
        if self.pset.dim != self.X.shape[1]:
            raise DimensionError(f"pset.dim {self.pset.dim} does not match the pool's {self.X.shape[1]} columns")

    def draw(self, rng: np.random.Generator, size: int | None = None, directions: bool = False):
        """One probe ``(w, delta, x, y)``, or with ``size`` k probes stacked
        as ``(W (k, P), D (k, d), X (k, d), y (k,))``: probe i is drawn with
        the generator calls of the i-th one-probe draw, in the same order,
        and the arithmetic then runs once on the stack, so the chunk equals
        k one-probe draws bit for bit and leaves ``rng`` where they do.
        ``directions`` appends to each probe's draws P + d standard normals,
        returned last (a smoothness probe's start direction)."""
        k = 1 if size is None else int(size)
        W, D, u = np.empty((k, self.param_dim)), np.empty((k, self.pset.dim)), np.empty((k, 1))
        V = np.empty((k, W.shape[1] + D.shape[1])) if directions else None
        anchors, rows = np.empty(k, dtype=np.intp), np.empty(k, dtype=np.intp)
        draw_w, draw_delta, n = self._draw_w, self.pset._draw_into, self.X.shape[0]
        for i in range(k):
            anchors[i] = draw_w(rng, W[i])
            draw_delta(rng, D[i], u[i])
            rows[i] = rng.integers(n)
            if directions:
                rng.standard_normal(out=V[i])
        probes = (self._weights(W, anchors), self.pset._points(D, u), self.X[rows], self.y[rows])
        if directions:
            probes += (V,)
        if size is None:
            w, delta, x, y, *v = (a[0] for a in probes)
            return (w, delta, x, int(y), *v)
        return probes


@dataclass(frozen=True)
class RegionSampler(_ProbeSampler):
    """Draws probe points (w, delta, x, y): weights uniform in a box,
    perturbations uniform in the ball, samples uniform from a pool."""

    w_low: np.ndarray
    w_high: np.ndarray
    pset: PerturbationSet
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self._as_arrays(w_low=np.float64, w_high=np.float64)
        lo, hi = self.w_low, self.w_high
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionError(f"w_low and w_high must be vectors of one shape, got {lo.shape} and {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo <= hi).all()):
            raise ConfigError("w_low and w_high must be finite with w_low <= w_high")
        self._check_pool()

    @classmethod
    def from_envelope(cls, w_low, w_high, pset, dataset: Dataset):
        """Box around a visited weight envelope, widened by
        ``ENVELOPE_MARGIN`` on each side."""
        lo = np.asarray(w_low, dtype=np.float64) - ENVELOPE_MARGIN
        hi = np.asarray(w_high, dtype=np.float64) + ENVELOPE_MARGIN
        return cls(w_low=lo, w_high=hi, pset=pset, X=dataset.X, y=dataset.y)

    # in the class's own namespace too, where bench/tracer.py looks it up
    draw = _ProbeSampler.draw

    @property
    def param_dim(self) -> int:
        return len(self.w_low)

    def _draw_w(self, rng, row) -> int:
        row[...] = rng.uniform(self.w_low, self.w_high)
        return 0

    def _weights(self, W, anchors):
        return W

    def describe(self) -> dict:
        return {
            "region": "box",
            "w_box_low_min": float(self.w_low.min()),
            "w_box_high_max": float(self.w_high.max()),
            "delta_norm": self.pset.norm,
            "delta_radius": self.pset.radius,
            "pool_size": int(self.X.shape[0]),
        }


@dataclass(frozen=True)
class TrajectorySampler(_ProbeSampler):
    """Probes anchored to visited weights: a random stored trajectory point
    plus Gaussian jitter of scale ``jitter``. Tighter than a coordinate box
    around the same trajectory, whose corners are never visited; constants
    estimated here track what the coupled runs actually encounter."""

    w_points: np.ndarray  # (k, param_dim)
    jitter: float
    pset: PerturbationSet
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self._as_arrays(w_points=np.float64)
        if self.w_points.ndim != 2 or len(self.w_points) < 1:
            raise DimensionError(f"w_points must be a nonempty (k, param_dim) array, got shape {np.shape(self.w_points)}")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ConfigError(f"jitter must be finite and >= 0, got {self.jitter}")
        self._check_pool()

    @classmethod
    def from_traces(cls, traces, pset, dataset: Dataset, jitter: float = 0.05):
        pts = []
        for tr in traces:
            pts.extend(tr.snapshots.values())
            pts.append(tr.w_final)
        return cls(w_points=np.stack(pts), jitter=jitter, pset=pset, X=dataset.X, y=dataset.y)

    draw = _ProbeSampler.draw

    @property
    def param_dim(self) -> int:
        return self.w_points.shape[1]

    def _draw_w(self, rng, row) -> int:
        i = rng.integers(self.w_points.shape[0])
        rng.standard_normal(out=row)
        return i

    def _weights(self, W, anchors):
        return self.w_points[anchors] + self.jitter * W

    def describe(self) -> dict:
        return {
            "region": "trajectory",
            "anchor_points": int(self.w_points.shape[0]),
            "jitter": self.jitter,
            "delta_norm": self.pset.norm,
            "delta_radius": self.pset.radius,
            "pool_size": int(self.X.shape[0]),
        }


@dataclass(frozen=True)
class ConstantEstimates:
    """Empirical local constants: joint and weight-only Lipschitz constants
    of the loss, smoothness of its joint gradient, and the reciprocal of
    the smallest observed perturbation-gradient norm."""

    lipschitz: float
    lipschitz_w: float
    beta: float
    psi: float
    probes: int = 0
    region: dict | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lipschitz, self.lipschitz_w, self.beta, self.psi))):
            raise ValueError("the constants must be finite")
        if self.lipschitz_w > self.lipschitz * (1 + 1e-12):
            raise ValueError("the joint Lipschitz constant must dominate the weight-only one")
        if self.beta <= 0 or self.psi <= 0:
            raise ValueError("beta and psi must be positive")

    def inflated(self, factor: float) -> "ConstantEstimates":
        return replace(
            self,
            lipschitz=self.lipschitz * factor,
            lipschitz_w=self.lipschitz_w * factor,
            beta=self.beta * factor,
            psi=self.psi * factor,
        )


# Probes per stacked oracle call, each probe one run of one row on the
# models' run axis. 32 removes nearly all per-call overhead; a larger chunk
# saves little more time but raises the peak memory, since every probe of a
# chunk holds about 30 kB of arrays at once for a 20-16-2 MLP.
PROBE_CHUNK = 32


def _probe_chunks(probes: int):
    """Chunk sizes covering ``probes`` probes in order."""
    for start in range(0, probes, PROBE_CHUNK):
        yield min(PROBE_CHUNK, probes - start)


def _joint_grads(model: SmoothModel, W, D, X, y):
    """Weight and perturbation gradients at a stack of single-sample probes
    (``W`` (k, P), ``D`` and ``X`` (k, d), ``y`` (k,)), one oracle call.
    Probe i equals the one-row oracle call on probe i alone."""
    _, gw, gd = model.batch_loss_and_grads(W, X[:, None, :], y[:, None], D[:, None, :])
    return gw, gd[:, 0]


def _row_dots(A: np.ndarray) -> np.ndarray:
    """``np.dot(a, a)`` for each row ``a`` of ``A`` (k, n), bit for bit: a
    stacked matmul takes the same dot product per row. ``np.linalg.norm``
    of a vector is the square root of that dot product."""
    return np.matmul(A[:, None, :], A[:, :, None])[:, 0, 0]


def _running_max(m: float, values: np.ndarray) -> float:
    """``m`` after ``m = max(m, v)`` for each v in turn: a NaN never wins."""
    return float(np.fmax.reduce(values, initial=m))


def estimate_lipschitz(model: SmoothModel, sampler, probes: int, rng: np.random.Generator):
    """Max joint gradient norm (the local joint Lipschitz constant) and max
    weight-gradient norm over random probe points. Returns (L, L_w).

    Probes are drawn from ``rng`` a chunk of ``PROBE_CHUNK`` at a time, in
    the order of a probe-by-probe loop, and each chunk is evaluated by one
    stacked oracle call; the result equals that loop."""
    probes = _count(probes, "probes", 2)
    L = Lw = 0.0
    for k in _probe_chunks(probes):
        GW, GD = _joint_grads(model, *sampler.draw(rng, size=k))
        nw = np.sqrt(_row_dots(GW))
        L = _running_max(L, np.sqrt(nw * nw + _row_dots(GD)))
        Lw = _running_max(Lw, nw)
    return L, Lw


def estimate_smoothness(
    model: SmoothModel,
    sampler,
    probes: int,
    pair_scale: float,
    rng: np.random.Generator,
    power_iters: int = 3,
):
    """Max ratio of joint-gradient change to joint displacement over probe
    pairs at distance ``pair_scale`` in (w, delta) space.

    Each probe starts from a random direction and then power-iterates the
    gradient-difference map: the next direction is the normalized gradient
    change, which climbs toward the probe point's top curvature direction.
    Every iterate is itself a pair difference quotient at the probe scale,
    so the result stays a max over probe pairs, just better-aimed ones. A
    probe whose gradient change is exactly zero stops iterating.

    Probes, each followed by its start direction, are drawn from ``rng`` a
    chunk of ``PROBE_CHUNK`` at a time, in the order of a probe-by-probe
    loop, and each chunk is evaluated by stacked oracle calls; the result
    equals that loop.
    """
    probes = _count(probes, "probes", 2)
    power_iters = _count(power_iters, "power_iters", 0)
    if not (math.isfinite(pair_scale) and pair_scale > 0):
        raise ConfigError(f"pair_scale must be positive and finite, got {pair_scale}")
    beta = 0.0
    for k in _probe_chunks(probes):
        W, D, X, y, V = sampler.draw(rng, size=k, directions=True)
        V /= np.sqrt(_row_dots(V))[:, None]
        P = W.shape[1]
        GW1, GD1 = _joint_grads(model, W, D, X, y)
        live = np.arange(k)  # the probes still iterating
        for _ in range(1 + power_iters):
            GW2, GD2 = _joint_grads(model, W + pair_scale * V[:, :P], D + pair_scale * V[:, P:], X, y)
            diff = np.concatenate([GW2 - GW1, GD2 - GD1], axis=1)[live]
            nrm = np.sqrt(_row_dots(diff))
            beta = _running_max(beta, nrm / pair_scale)
            moving = nrm != 0.0  # a stopped probe's direction is never 0/0
            live = live[moving]
            if not live.size:
                break
            V[live] = diff[moving] / nrm[moving, None]
    return beta


@dataclass(frozen=True)
class PsiEstimate:
    psi: float
    min_norm: float
    series: np.ndarray
    degenerate: bool
    floor: float


def estimate_psi(trace) -> PsiEstimate:
    """Reciprocal of the smallest per-sample perturbation-gradient norm seen
    along a trace, floored at ``PSI_FLOOR`` to guard exact-zero degeneracies.

    Accepts a TrainTrace, a StabilityTrace, or a plain array of norms; the
    result carries the full min-norm time series and a degeneracy flag set
    when the floor engaged.
    """
    series = np.asarray(getattr(trace, "min_grad_delta", trace), dtype=np.float64)
    if series.size == 0:
        raise DimensionError("trace has no recorded perturbation-gradient norms")
    min_norm = float(series.min())
    degenerate = min_norm < PSI_FLOOR
    psi = 1.0 / max(min_norm, PSI_FLOOR)
    return PsiEstimate(psi=psi, min_norm=min_norm, series=series, degenerate=degenerate, floor=PSI_FLOOR)


def estimate_constants(
    model: SmoothModel,
    sampler,
    rng: np.random.Generator,
    probes: int = 2000,
    pair_scale: float = 1e-3,
    psi: float | None = None,
    power_iters: int = 3,
) -> ConstantEstimates:
    """Bundle the three probe-based estimates (psi comes from a trace and is
    passed in, defaulting to 1)."""
    L, Lw = estimate_lipschitz(model, sampler, probes, rng)
    beta = estimate_smoothness(model, sampler, probes, pair_scale, rng, power_iters=power_iters)
    return ConstantEstimates(
        lipschitz=L,
        lipschitz_w=Lw,
        beta=beta,
        psi=1.0 if psi is None else psi,
        probes=int(probes),
        region=sampler.describe(),
    )


# ---------------------------------------------------------------------------
# stability exponents
# ---------------------------------------------------------------------------


def _positive(**kwargs):
    for name, value in kwargs.items():
        if value is None or not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be positive, got {value}")


def _nonnegative(**kwargs):
    for name, value in kwargs.items():
        if value is None or not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be nonnegative, got {value}")


def lambda_vanilla(beta: float, c: float) -> float:
    """beta * c."""
    _positive(beta=beta, c=c)
    return beta * c


def lambda_free(beta: float, c: float, m: int, alpha_delta: float, eps: float, psi: float) -> float:
    """beta*c * (1 + beta*c/m + alpha_delta*eps*psi*beta)^(m-1)."""
    _positive(beta=beta, c=c, psi=psi)
    _nonnegative(alpha_delta=alpha_delta, eps=eps)
    if int(m) < 1:
        raise ConfigError(f"m must be a positive integer, got {m}")
    base = 1.0 + beta * c / m + alpha_delta * eps * psi * beta
    return beta * c * base ** (int(m) - 1)


def lambda_fast(beta: float, c: float, fast_step: float, eps: float, psi: float) -> float:
    """beta*c * (1 + fast_step*eps*psi*beta)."""
    _positive(beta=beta, c=c, psi=psi)
    _nonnegative(fast_step=fast_step, eps=eps)
    return beta * c * (1.0 + fast_step * eps * psi * beta)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRecursion:
    """Coefficients of the per-step divergence recursion: expansion nu and
    source xi."""

    nu: float
    xi: float

    def __post_init__(self):
        if self.nu <= 0 or self.xi < 0:
            raise ConfigError("need nu > 0, xi >= 0")


@dataclass(frozen=True)
class BoundInputs:
    n: int
    b: int
    T: int
    m: int
    c: float
    eps: float
    constants: ConstantEstimates
    alpha_delta: float = 0.0
    fast_step: float = 0.0

    def __post_init__(self):
        _positive(n=self.n, b=self.b, T=self.T, m=self.m, c=self.c)
        _nonnegative(eps=self.eps, alpha_delta=self.alpha_delta, fast_step=self.fast_step)


@dataclass
class BoundReport:
    algorithm: str
    lam: float
    bound_value: float
    nu: float
    xi: float
    n_steps: int
    measured_gap: float | None = None
    ratio: float | None = None
    extras: dict | None = None

    def with_measured_gap(self, gap: float) -> "BoundReport":
        self.measured_gap = float(gap)
        self.ratio = float(self.bound_value / gap) if gap != 0 else float("inf")
        return self

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "lambda": self.lam,
            "bound_value": self.bound_value,
            "nu": self.nu,
            "xi": self.xi,
            "n_steps": self.n_steps,
            "measured_gap": self.measured_gap,
            "ratio": self.ratio,
            "extras": self.extras or {},
        }


def recursion_bound(n: int, b: int, n_steps: int, lipschitz_w: float, rec: GrowthRecursion) -> float:
    """Evaluate the generic recursion-to-bound formula."""
    _positive(n=n, b=b, n_steps=n_steps, lipschitz_w=lipschitz_w)
    nu, xi = rec.nu, rec.xi
    return (b / n) * (1.0 + 1.0 / nu) * (lipschitz_w * xi * nu / b) ** (1.0 / (nu + 1.0)) * n_steps ** (nu / (nu + 1.0))


def bound_vanilla(inputs: BoundInputs) -> BoundReport:
    k = inputs.constants
    lam = lambda_vanilla(k.beta, inputs.c)
    rec = GrowthRecursion(nu=lam, xi=2.0 * inputs.eps * inputs.n + 2.0 * k.lipschitz / k.beta)
    value = recursion_bound(inputs.n, inputs.b, inputs.T, k.lipschitz_w, rec)
    return BoundReport(algorithm="vanilla", lam=lam, bound_value=value, nu=rec.nu, xi=rec.xi, n_steps=inputs.T)


def bound_free(inputs: BoundInputs) -> BoundReport:
    if inputs.T % inputs.m != 0:
        raise ConfigError(f"T={inputs.T} must be divisible by m={inputs.m}")
    k = inputs.constants
    lam = lambda_free(k.beta, inputs.c, inputs.m, inputs.alpha_delta, inputs.eps, k.psi)
    rec = GrowthRecursion(nu=lam, xi=2.0 * k.lipschitz / k.beta)
    n_steps = inputs.T // inputs.m
    value = recursion_bound(inputs.n, inputs.b, n_steps, k.lipschitz_w, rec)
    lam_v = lambda_vanilla(k.beta, inputs.c)
    extras = {
        "vanilla_rate_ratio": free_vs_vanilla_rate_ratio(inputs.T, inputs.n, lam_v, lam),
    }
    return BoundReport(
        algorithm="free", lam=lam, bound_value=value, nu=rec.nu, xi=rec.xi, n_steps=n_steps, extras=extras
    )


def bound_fast(inputs: BoundInputs) -> BoundReport:
    k = inputs.constants
    lam = lambda_fast(k.beta, inputs.c, inputs.fast_step, inputs.eps, k.psi)
    inflate = 1.0 + inputs.fast_step * inputs.eps * k.psi * k.beta
    rec = GrowthRecursion(nu=lam, xi=2.0 * k.lipschitz / (k.beta * inflate))
    value = recursion_bound(inputs.n, inputs.b, inputs.T, k.lipschitz_w, rec)
    return BoundReport(algorithm="fast", lam=lam, bound_value=value, nu=rec.nu, xi=rec.xi, n_steps=inputs.T)


def free_vs_vanilla_rate_ratio(T: int, n: int, lam_vanilla: float, lam_free: float) -> float:
    """Ratio of the free to the vanilla asymptotic rates,
    (T/n)^(1/(lam_vanilla+1)) * T^(-1/(lam_free+1)); below one means the
    free rate wins at these (T, n)."""
    _positive(T=T, n=n, lam_vanilla=lam_vanilla, lam_free=lam_free)
    return (T / n) ** (1.0 / (lam_vanilla + 1.0)) * T ** (-1.0 / (lam_free + 1.0))


# ---------------------------------------------------------------------------
# expansion-matrix algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansivityMatrix:
    """The 2x2 matrix [[1+alpha, alpha], [alpha*r, 1+alpha*r]] governing the
    joint growth of the weight and perturbation divergences within a free
    step, in the shorthand alpha = a*beta, r = ad*eps*psi/a. Its eigenvalues
    are exactly {1 + alpha*(r+1), 1}."""

    alpha: float
    r: float

    def __post_init__(self):
        if self.alpha < 0 or self.r < 0:
            raise ConfigError("alpha and r must be nonnegative")

    @property
    def entries(self) -> np.ndarray:
        a, r = self.alpha, self.r
        return np.array([[1.0 + a, a], [a * r, 1.0 + a * r]])

    def expected_eigenvalues(self) -> tuple[float, float]:
        return (1.0 + self.alpha * (self.r + 1.0), 1.0)


def expansivity_power(matrix: ExpansivityMatrix, m: int):
    """The m-th matrix power by repeated multiplication, paired with the
    eigendecomposition closed form for its top-left entry,
    (r + (1 + alpha*(r+1))^m) / (r+1). Cross-check the two."""
    if m < 0:
        raise ConfigError("m must be >= 0")
    power = np.eye(2)
    E = matrix.entries
    for _ in range(int(m)):
        power = power @ E
    return power, float(closed_form_contraction(matrix.alpha, matrix.r, m))


def closed_form_contraction(alpha: float, r: float, m: int) -> float:
    """Top-left entry of the m-th power of the 2x2 expansion matrix:
    (r + (1 + alpha*(r+1))^m) / (r + 1)."""
    return (r + (1.0 + alpha * (r + 1.0)) ** m) / (r + 1.0)
