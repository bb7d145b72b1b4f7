"""Perturbation sets, projections, and projected-gradient attacks.

Two projection operators drive everything here. ``project_onto_set`` is the
Euclidean projection onto the ball (radial rescale for L2, coordinate clamp
for L-inf). ``project_extreme`` maps a gradient to the nearest extreme point
of the ball (radial normalization for L2, the sign map for L-inf, with
sign(0) := +1 as a deterministic tie-break). The attack update is

    delta <- project_onto_set(delta + step * project_extreme(grad))

(``ascend_rows``) applied for K iterations from a zero or uniform start,
best-of-restarts by final loss. A gradient that is exactly zero at some
iterate leaves that iterate unchanged for the step; the standalone L2
extreme projection still raises on a zero vector to surface misuse.

The row operations work per row on the last axis, so they take any leading
shape; ``pgd_attack_batch`` accepts the models' run axis (weights
(R, param_dim), inputs (R, B, d)) and attacks R runs in one oracle call
per step, all of them from one shared start per restart.

An attack allocates once, not once per step: it binds the model's
attack-only oracle for its weights and inputs (a training run passes its
own, bound once per run, and a gap experiment one bound once for all its
checkpoints), owns its iterate (a shared start is copied first) and steps
it in place through one scratch array. A step asks the oracle for the
gradient only, not the losses. ``empirical_robust_risk`` scores the
attacked points by the forward pass and head of the attack's binding.
``ascend_rows``, the step as a new array, is a copy followed by that same
in-place step. Consecutive parts of the rows may draw their starts from
generators of their own (``parts``), which lets checkpoint evaluation
attack the train and test rows as one batch with each set's numbers
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ConfigError, DegenerateGradientError, DimensionError, _count, _real
from .models import AttackOracle, Dataset, SmoothModel

__all__ = [
    "PerturbationSet",
    "AttackConfig",
    "project_onto_set",
    "project_extreme",
    "ascend_rows",
    "projgrad_identity_check",
    "pgd_attack_batch",
    "empirical_robust_risk",
]

L2 = "l2"
LINF = "linf"


@dataclass(frozen=True)
class PerturbationSet:
    """An L2 or L-infinity ball of radius ``radius`` in dimension ``dim``."""

    norm: str
    radius: float
    dim: int

    def __post_init__(self):
        if self.norm not in (L2, LINF):
            raise ConfigError(f"norm must be {L2!r} or {LINF!r}, got {self.norm!r}")
        if not (math.isfinite(_real(self.radius, "radius")) and self.radius >= 0):
            raise ConfigError(f"radius must be >= 0, got {self.radius}")
        _count(self.dim, "dim", 1, DimensionError)

    def contains(self, v: np.ndarray, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if self.norm == L2:
            return float(np.linalg.norm(v)) <= self.radius + tol
        return float(np.abs(v).max()) <= self.radius  # exact for clamps

    def sample_uniform(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        # the ball draws without their argument checks, which __post_init__ made
        if self.norm == L2:
            return _rng._l2_ball(rng, self.dim, self.radius, size)
        return _rng._linf_ball(rng, self.dim, self.radius, size)

    def _draw_into(self, rng: np.random.Generator, row: np.ndarray, u: np.ndarray) -> None:
        """The generator calls of one ``sample_uniform(rng)``, written into
        ``row`` (dim,) and, for L2, ``u`` (1,); ``_points`` turns a stack of
        such draws into the samples. The draws interleave with others,
        which is what ``sample_uniform(rng, size)`` cannot do."""
        if self.norm == L2:
            rng.standard_normal(out=row)
            rng.random(out=u)
        elif self.radius > 0:
            row[...] = rng.uniform(-self.radius, self.radius, size=self.dim)
        else:
            row[...] = 0.0

    def _points(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Rows (k, dim) and uniforms (k, 1) of ``_draw_into`` as the k
        samples that ``sample_uniform(rng)`` returns, written over ``rows``."""
        return _rng._l2_ball_points(rows, u, self.radius) if self.norm == L2 else rows


@dataclass(frozen=True)
class AttackConfig:
    """Projected-gradient attack hyperparameters.

    ``step_size=None`` resolves to radius/4 at attack time, the usual
    evaluation convention (10 iterations, step eps/4).
    """

    steps: int = 10
    step_size: float | None = None
    restarts: int = 1
    init: str = "uniform"

    def __post_init__(self):
        _count(self.steps, "attack steps", 1)
        _count(self.restarts, "attack restarts", 1)
        if self.init not in ("zero", "uniform"):
            raise ConfigError(f"init must be 'zero' or 'uniform', got {self.init!r}")
        if self.step_size is not None and not (math.isfinite(_real(self.step_size, "step_size")) and self.step_size > 0):
            raise ConfigError("step_size must be positive when given")

    def resolved_step(self, pset: PerturbationSet) -> float:
        return self.step_size if self.step_size is not None else pset.radius / 4.0


def _check_vec(g: np.ndarray, pset: PerturbationSet) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (pset.dim,):
        raise DimensionError(f"vector must have shape ({pset.dim},), got {g.shape}")
    return g


def _row_norms(G: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row, shape (..., B, 1): the arithmetic of
    ``np.linalg.norm(G, axis=-1, keepdims=True)`` without its dispatch. The
    squares go to ``scratch`` (``G``'s shape) when given."""
    s = np.add.reduce(np.multiply(G, G, out=scratch), axis=-1, keepdims=True)
    return np.sqrt(s, out=s)


def project_rows(G: np.ndarray, pset: PerturbationSet, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Euclidean projection of each row onto the ball, written to ``out``
    when given (``out`` may be ``G``); ``scratch`` as in ``_row_norms``."""
    r = pset.radius
    if pset.norm != L2:
        return np.clip(G, -r, r, out=out)
    norms = _row_norms(G, scratch)
    if r > 0.0:
        # the factor r / max(norm, r) is r / r = 1.0, exactly, inside the
        # ball, and fmax keeps a NaN norm's factor at 1.0
        f = np.fmax(norms, r, out=norms)
        return np.multiply(G, np.divide(r, f, out=f), out=out)
    return np.multiply(G, np.divide(r, norms, out=np.ones(norms.shape), where=norms > r), out=out)


def extreme_rows(G: np.ndarray, pset: PerturbationSet, norms: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Nearest extreme point of the ball per row, written to ``out`` when
    given; rows must be nonzero for L2. ``norms`` (..., B, 1) passes the row
    norms of ``G`` when the caller has them."""
    r = pset.radius
    if pset.norm == L2:
        if norms is None:
            norms = _row_norms(G)
        E = np.multiply(r, G, out=out)
        return np.divide(E, norms, out=E)
    if out is None:
        return np.where(G >= 0.0, r, -r)
    out.fill(-r)
    np.copyto(out, r, where=G >= 0.0)
    return out


def _ascend_in_place(D: np.ndarray, G: np.ndarray, rate: float, pset: PerturbationSet, scratch: np.ndarray, norms=None) -> None:
    """``ascend_rows`` written into ``D``, an array of its own, through one
    ``scratch`` array of ``D``'s shape."""
    if rate == 0.0:
        return
    if norms is None:
        norms = _row_norms(G, scratch)
    # one reduction: a zero or NaN norm takes the row by row path
    if not np.minimum.reduce(norms, axis=None, initial=np.inf) > 0.0:
        live = norms[..., 0] > 0.0
        if live.any():
            D[live] = ascend_rows(D[live], G[live], rate, pset)
        return
    E = extreme_rows(G, pset, norms, out=scratch)
    E *= rate
    D += E
    project_rows(D, pset, out=D, scratch=scratch)


def ascend_rows(D: np.ndarray, G: np.ndarray, rate: float, pset: PerturbationSet, norms=None) -> np.ndarray:
    """One projected ascent step per row, as a new array:
    ``project_rows(D + rate * extreme_rows(G))``. A row whose gradient is
    exactly zero stays where it is, and a zero rate returns an unchanged
    copy of ``D``. ``D`` and ``G`` have the same shape; ``D`` may be a
    broadcast view. Neither is written to. ``norms`` (..., B, 1) passes the
    row norms of ``G`` when the caller has them (``_row_norms``)."""
    out = D.copy()
    _ascend_in_place(out, G, rate, pset, np.empty(out.shape), norms)
    return out


def project_onto_set(g: np.ndarray, pset: PerturbationSet) -> np.ndarray:
    """argmin over the ball of the distance to ``g``."""
    g = _check_vec(g, pset)
    return project_rows(g[None, :], pset)[0]


def project_extreme(g: np.ndarray, pset: PerturbationSet) -> np.ndarray:
    """argmin over the ball's extreme points of the distance to ``g``.

    L2: radius * g / ||g||, undefined at g = 0. L-inf: radius * sign(g)
    coordinatewise with sign(0) := +1 so replay stays deterministic.
    """
    g = _check_vec(g, pset)
    if pset.norm == L2 and np.linalg.norm(g) == 0.0:
        raise DegenerateGradientError("extreme-point projection of a zero vector is undefined for L2")
    return extreme_rows(g[None, :], pset)[0]


def projgrad_identity_check(g: np.ndarray, pset: PerturbationSet, psi: float, tol: float = 1e-10):
    """Whether the extreme projection equals the set projection of the
    psi-rescaled gradient, ``radius * psi * g``; valid whenever
    ``||g|| >= 1/psi`` on an L2 ball.

    Returns True/False when the precondition holds, None when it does not
    (not applicable rather than failure).
    """
    if pset.norm != L2:
        raise ConfigError("the rescaling identity is stated for L2 balls")
    if psi <= 0:
        raise ConfigError("psi must be positive")
    g = _check_vec(g, pset)
    if np.linalg.norm(g) < 1.0 / psi:
        return None
    lhs = project_extreme(g, pset)
    rhs = project_onto_set(pset.radius * psi * g, pset)
    return bool(np.linalg.norm(lhs - rhs) <= tol)


def pgd_attack_batch(
    model: SmoothModel,
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    pset: PerturbationSet,
    cfg: AttackConfig,
    rng,
    loss_grad_fn=None,
    parts=None,
):
    """Vectorized projected-gradient ascent over a batch of samples.

    ``loss_grad_fn(deltas, losses=True) -> (losses, grad_deltas)`` defaults
    to the plain adversarial loss through the model's attack-only oracle,
    bound once for the attack; pass another oracle pointed at ``(w, X, y)``
    (``trainers.lockstep`` passes its training run's) or a surrogate. The
    steps call it with ``losses=False``, since they read only the gradient;
    only restart scoring asks for the losses. ``w``, ``X`` and ``y`` stay
    fixed for the whole attack, so they are checked once, here, when the
    attack binds its own oracle; with ``loss_grad_fn`` the attack reads
    only the shape of ``X``, whose last axis is checked against
    ``pset.dim`` either way. The iterate
    is stepped in place, so the attack allocates its arrays once, not once
    per step. With a run axis (``w`` (R, param_dim), ``X`` (R, B, d), ``y``
    (R, B)) every run starts each restart from the same draw, so run r
    equals the attack on run r alone with a copy of ``rng``. With
    ``parts``, row counts that sum to B, ``rng`` is one generator per part
    and each part's rows are drawn from its own, so each part equals the
    attack on its rows alone with its generator.
    Returns the perturbations; ``TrainConfig.oracle_per_update`` states
    what a training step's attack costs.
    """
    if loss_grad_fn is None:
        loss_grad_fn = model._bind(w, X, y)
        X = loss_grad_fn.X
    if X.shape[-1] != pset.dim:
        raise DimensionError(f"perturbation set dimension {pset.dim} does not match inputs {X.shape[-1]}")
    if parts is not None and (sum(parts) != X.shape[-2] or len(parts) != len(rng)):
        raise DimensionError(f"parts {parts} must sum to the {X.shape[-2]} rows, with one generator each")
    step = cfg.resolved_step(pset)
    best_delta = best_loss = scratch = None
    for _ in range(cfg.restarts):
        # the iterate is an array of its own, stepped in place
        D = np.zeros(X.shape) if cfg.init == "zero" else _uniform_start(pset, rng, X.shape, parts)
        if scratch is None:  # after the first draw, so it reuses its temporaries' memory
            scratch = np.empty(X.shape)
        for _ in range(cfg.steps):
            _ascend_in_place(D, loss_grad_fn(D, losses=False)[1], step, pset, scratch)
        if cfg.restarts == 1:
            return D
        losses, _ = loss_grad_fn(D)
        if best_loss is None:
            best_delta, best_loss = D, losses
        else:
            better = losses > best_loss
            best_delta = np.where(better[..., None], D, best_delta)
            best_loss = np.maximum(losses, best_loss)
    return best_delta


def _uniform_start(pset: PerturbationSet, rng, shape: tuple, parts) -> np.ndarray:
    """One restart's uniform start, an array of ``shape`` of its own: B rows
    from ``rng``, or each part's rows from its own generator, shared by
    every run of a stack."""
    if parts is None:
        D = pset.sample_uniform(rng, size=shape[-2])
    else:
        D = np.concatenate([pset.sample_uniform(g, size=n) for g, n in zip(rng, parts)])
    if D.shape == shape:
        return D
    out = np.empty(shape)
    out[...] = D
    return out


def empirical_robust_risk(
    model: SmoothModel,
    w: np.ndarray,
    dataset: Dataset,
    pset: PerturbationSet,
    cfg: AttackConfig,
    rng,
    parts=None,
):
    """Mean attacked loss and the fraction of samples still classified
    correctly at their attacked points. Returns ``(risk, robust_accuracy)``.

    With ``parts`` (row counts summing to n, one generator each in ``rng``)
    the dataset's consecutive parts are attacked as one batch and evaluated
    by one forward pass; the result is one ``(risk, robust_accuracy)`` per
    part, each equal bit for bit to the call on that part alone with its
    generator.
    """
    if dataset.n < 1:
        raise DimensionError("dataset must be nonempty")
    return _attacked_risk(model, model._bind(w, dataset.X, dataset.y), pset, cfg, rng, parts)


def _attacked_risk(model: SmoothModel, oracle: AttackOracle, pset: PerturbationSet, cfg: AttackConfig, rng, parts=None):
    """``empirical_robust_risk`` of the rows ``oracle`` is bound to, at its
    weights, unchecked: the attack through it, then one forward pass and
    head of it, which give both the losses and the predictions."""
    deltas = pgd_attack_batch(model, oracle.w, oracle.X, oracle.y, pset, cfg, rng, loss_grad_fn=oracle, parts=parts)
    losses, _ = oracle._evaluate(deltas, True)
    hits = oracle._Z.argmax(axis=-1) == oracle.y
    if parts is None:
        return float(losses.mean()), float(hits.mean())
    ends = np.cumsum(parts)
    return [(float(losses[e - n : e].mean()), float(hits[e - n : e].mean())) for n, e in zip(parts, ends)]
