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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ConfigError, DegenerateGradientError, DimensionError
from .models import Dataset, LabeledSample, SmoothModel

__all__ = [
    "PerturbationSet",
    "AttackConfig",
    "project_onto_set",
    "project_extreme",
    "ascend_rows",
    "projgrad_identity_check",
    "pgd_attack",
    "pgd_attack_batch",
    "robust_loss",
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
        if self.radius < 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")
        if self.dim < 1:
            raise DimensionError(f"dim must be >= 1, got {self.dim}")

    def contains(self, v: np.ndarray, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if self.norm == L2:
            return float(np.linalg.norm(v)) <= self.radius + tol
        return float(np.abs(v).max()) <= self.radius  # exact for clamps

    def sample_uniform(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        if self.norm == L2:
            return _rng.sample_uniform_l2_ball(rng, self.dim, self.radius, size)
        return _rng.sample_uniform_linf_ball(rng, self.dim, self.radius, size)


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
        if self.steps < 1:
            raise ConfigError("attack needs steps >= 1")
        if self.restarts < 1:
            raise ConfigError("attack needs restarts >= 1")
        if self.init not in ("zero", "uniform"):
            raise ConfigError(f"init must be 'zero' or 'uniform', got {self.init!r}")
        if self.step_size is not None and self.step_size <= 0:
            raise ConfigError("step_size must be positive when given")

    def resolved_step(self, pset: PerturbationSet) -> float:
        return self.step_size if self.step_size is not None else pset.radius / 4.0


def _check_vec(g: np.ndarray, pset: PerturbationSet) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (pset.dim,):
        raise DimensionError(f"vector must have shape ({pset.dim},), got {g.shape}")
    return g


def _row_norms(G: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, shape (B, 1): the arithmetic of
    ``np.linalg.norm(G, axis=1, keepdims=True)`` without its dispatch."""
    return np.sqrt(np.add.reduce(G * G, axis=1, keepdims=True))


def project_rows(G: np.ndarray, pset: PerturbationSet) -> np.ndarray:
    """Euclidean projection of each row onto the ball."""
    if pset.norm == L2:
        norms = _row_norms(G)
        return G * np.divide(pset.radius, norms, out=np.ones_like(norms), where=norms > pset.radius)
    return np.clip(G, -pset.radius, pset.radius)


def extreme_rows(G: np.ndarray, pset: PerturbationSet, norms: np.ndarray | None = None) -> np.ndarray:
    """Nearest extreme point of the ball per row; rows must be nonzero for L2.
    ``norms`` (B, 1) passes the row norms of ``G`` when the caller has them."""
    if pset.norm == L2:
        if norms is None:
            norms = _row_norms(G)
        return pset.radius * G / norms
    return np.where(G >= 0.0, pset.radius, -pset.radius)


def ascend_rows(D: np.ndarray, G: np.ndarray, rate: float, pset: PerturbationSet) -> np.ndarray:
    """One projected ascent step per row, as a new array:
    ``project_rows(D + rate * extreme_rows(G))``. A row whose gradient is
    exactly zero stays where it is, and a zero rate returns an unchanged
    copy of ``D``."""
    norms = _row_norms(G)
    live = norms[:, 0] > 0.0
    if rate == 0.0 or not live.any():
        return D.copy()
    if live.all():
        return project_rows(D + rate * extreme_rows(G, pset, norms), pset)
    out = D.copy()
    out[live] = project_rows(D[live] + rate * extreme_rows(G[live], pset, norms[live]), pset)
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
    rng: np.random.Generator,
    loss_grad_fn=None,
):
    """Vectorized projected-gradient ascent over a batch of samples.

    ``loss_grad_fn(deltas) -> (losses, grad_deltas)`` defaults to the plain
    adversarial loss through the model's attack-only oracle; pass a
    surrogate to attack a different objective. ``w``, ``X`` and ``y`` are
    checked once here, since they stay fixed for the whole attack.
    Returns ``(deltas, n_grad_calls, n_loss_calls)``.
    """
    w = model._check_w(w)
    X = model._perturbed(X, None)
    y = model._check_labels(y, X.shape[0])
    if pset.dim != model.input_dim:
        raise DimensionError(f"perturbation set dimension {pset.dim} does not match inputs {model.input_dim}")
    B = X.shape[0]
    if loss_grad_fn is None:

        def loss_grad_fn(D):
            return model.attack_loss_and_grad(w, X, y, D)

    step = cfg.resolved_step(pset)
    grad_calls = 0
    loss_calls = 0
    best_delta = None
    best_loss = None
    for _ in range(cfg.restarts):
        if cfg.init == "zero":
            D = np.zeros((B, pset.dim))
        else:
            D = pset.sample_uniform(rng, size=B)
        for _ in range(cfg.steps):
            D = ascend_rows(D, loss_grad_fn(D)[1], step, pset)
        grad_calls += cfg.steps
        if cfg.restarts == 1:
            return D, grad_calls, loss_calls
        losses, _ = loss_grad_fn(D)
        loss_calls += 1
        if best_loss is None:
            best_delta, best_loss = D, losses
        else:
            better = losses > best_loss
            best_delta = np.where(better[:, None], D, best_delta)
            best_loss = np.maximum(losses, best_loss)
    return best_delta, grad_calls, loss_calls


def pgd_attack(
    model: SmoothModel,
    w: np.ndarray,
    sample: LabeledSample,
    pset: PerturbationSet,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Attack a single sample; returns a feasible perturbation."""
    D, _, _ = pgd_attack_batch(model, w, sample.x[None, :], [sample.y], pset, cfg, rng)
    return D[0]


def robust_loss(
    model: SmoothModel,
    w: np.ndarray,
    sample: LabeledSample,
    pset: PerturbationSet,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> float:
    """Loss at the attacked point: a lower surrogate for the inner maximum."""
    delta = pgd_attack(model, w, sample, pset, cfg, rng)
    return model.loss_value(w, delta, sample)


def empirical_robust_risk(
    model: SmoothModel,
    w: np.ndarray,
    dataset: Dataset,
    pset: PerturbationSet,
    cfg: AttackConfig,
    rng: np.random.Generator,
):
    """Mean attacked loss and the fraction of samples still classified
    correctly at their attacked points. Returns ``(risk, robust_accuracy)``.
    """
    if dataset.n < 1:
        raise DimensionError("dataset must be nonempty")
    deltas, _, _ = pgd_attack_batch(model, w, dataset.X, dataset.y, pset, cfg, rng)
    losses = model.loss_batch(w, dataset.X, dataset.y, deltas)
    preds = model.predict_batch(w, dataset.X, deltas)
    return float(losses.mean()), float((preds == dataset.y).mean())
