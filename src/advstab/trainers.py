"""Adversarial training: vanilla, free, fast, and free-TRADES (plus a
sequential-TRADES reference), with step-size schedules and a fully
deterministic per-step randomness plan.

Each algorithm follows one of three update rules (``RULES``): the TRADES
variants swap the surrogate loss into the vanilla and free rules. One
loop, ``lockstep``, advances any number of trajectories through the same
rule and the same randomness; ``train`` runs it on a single dataset, and
the stability module's coupled runs drive it over a neighboring pair.

Randomness plan. All draws are addressed by (cfg.seed, stream kind, step):
initialization, mini-batch indices, perturbation initializations, and
attack restarts each live on their own stream. Because streams are
re-creatable at any address, a run is a pure function of (cfg, dataset).

Mini-batches are drawn uniformly WITH replacement over sample indices at
every step, so the probability a fixed index appears in the step-t batch
is at most b/n, the union-bound direction the divergence analysis needs.

Free and free-TRADES compute the weight gradient and the per-sample
perturbation gradients from one shared evaluation of the loss at the
current (w, delta), a single backpropagation state, then apply the weight
descent and perturbation ascent updates simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DimensionError
from .models import Dataset, LabeledSample, SmoothModel, _log_softmax
from .rng import stream
from .threat import AttackConfig, PerturbationSet, ascend_rows, pgd_attack_batch

__all__ = [
    "StepSchedule",
    "TrainConfig",
    "StepRecord",
    "TrainTrace",
    "step_size",
    "trades_surrogate_loss",
    "trades_batch_loss_and_grads",
    "RULES",
    "lockstep",
    "train",
    "default_fast_step",
]

# Stream kinds within a training run's seed.
STREAM_INIT = 0
STREAM_BATCH = 1
STREAM_DELTA = 2
STREAM_ATTACK = 3

VANILLA = "vanilla"
FREE = "free"
FAST = "fast"
FREE_TRADES = "free_trades"
TRADES_SEQ = "trades_seq"

# The update rule each algorithm follows. The TRADES variants are exactly the
# algorithms that borrow another algorithm's rule.
RULES = {VANILLA: VANILLA, TRADES_SEQ: VANILLA, FAST: FAST, FREE: FREE, FREE_TRADES: FREE}


@dataclass(frozen=True)
class StepSchedule:
    """Weight step-size schedule: constant c, c/t, or c/(m*t)."""

    kind: str
    c: float
    m: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "vanishing_c_over_t", "vanishing_c_over_mt"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.c <= 0:
            raise ConfigError("schedule constant c must be positive")
        if self.m < 1:
            raise ConfigError("schedule m must be a positive integer")

    @property
    def vanishing(self) -> bool:
        return self.kind != "constant"


def step_size(schedule: StepSchedule, t: int) -> float:
    """Step size at step t >= 1."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    if schedule.kind == "constant":
        return schedule.c
    if schedule.kind == "vanishing_c_over_t":
        return schedule.c / t
    return schedule.c / (schedule.m * t)


def default_fast_step(pset: PerturbationSet) -> float:
    # per-norm single-step sizes, expressed relative to the radius
    return 0.875 * pset.radius if pset.norm == "linf" else 0.5 * pset.radius


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str
    pset: PerturbationSet
    schedule: StepSchedule
    batch_size: int
    total_iterations: int
    seed: int
    attack_lr: float | None = None  # perturbation ascent rate; defaults to the radius
    fast_step: float | None = None  # single-step attack size; per-norm default
    free_steps: int = 4
    trades_lambda: float | None = None
    inner_attack: AttackConfig = field(default_factory=AttackConfig)

    def __post_init__(self):
        if self.algorithm not in RULES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.total_iterations < 0:
            raise ConfigError("total_iterations must be >= 0")
        if self.free_steps < 1:
            raise ConfigError("free_steps must be >= 1")
        if self.total_iterations % self.inner_steps != 0:
            raise ConfigError(
                f"total_iterations={self.total_iterations} must be divisible by free_steps={self.free_steps}"
            )
        if self.rule == FREE and self.schedule.kind == "vanishing_c_over_mt" and self.schedule.m != self.free_steps:
            raise ConfigError(f"c/(m t) schedule m={self.schedule.m} must equal free_steps={self.free_steps}")
        if self.algorithm != self.rule and (self.trades_lambda is None or self.trades_lambda <= 0):
            raise ConfigError("trades_lambda must be a positive float for TRADES variants")

    @property
    def rule(self) -> str:
        """The update rule: 'vanilla', 'fast' or 'free'."""
        return RULES[self.algorithm]

    @property
    def lam(self) -> float | None:
        """The TRADES surrogate weight, or None for the plain loss."""
        return self.trades_lambda if self.algorithm != self.rule else None

    @property
    def inner_steps(self) -> int:
        """Weight updates per batch draw: free_steps under the free rule, else 1."""
        return self.free_steps if self.rule == FREE else 1

    @property
    def oracle_per_update(self) -> int:
        """Gradient-oracle calls per weight update."""
        return {VANILLA: self.inner_attack.steps + 1, FAST: 2, FREE: 1}[self.rule]

    @property
    def resolved_attack_lr(self) -> float:
        return self.attack_lr if self.attack_lr is not None else self.pset.radius

    @property
    def resolved_fast_step(self) -> float:
        return self.fast_step if self.fast_step is not None else default_fast_step(self.pset)

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


@dataclass
class StepRecord:
    """One weight update: global index t, outer step, inner iteration,
    step size, batch indices, gradient norms, and mean batch loss."""

    t: int
    step: int
    iteration: int
    alpha_w: float
    batch: np.ndarray
    grad_w_norm: float
    min_grad_delta_norm: float
    loss: float


@dataclass
class TrainTrace:
    algorithm: str
    seed: int
    records: list
    w_final: np.ndarray
    w_low: np.ndarray  # per-coordinate envelope of visited weights
    w_high: np.ndarray
    oracle_calls: int = 0
    forward_calls: int = 0
    snapshots: dict = field(default_factory=dict)  # update index -> weight copy

    def __len__(self):
        return len(self.records)

    def min_grad_delta_series(self) -> np.ndarray:
        return np.array([r.min_grad_delta_norm for r in self.records])

    def min_grad_delta_norm(self) -> float:
        series = self.min_grad_delta_series()
        return float(series.min()) if series.size else float("inf")

    def to_records(self):
        """Line-delimited record stream: one dict per weight update."""
        for r in self.records:
            yield {
                "t": r.t,
                "step": r.step,
                "iteration": r.iteration,
                "alpha_w": r.alpha_w,
                "batch": "|".join(str(int(i)) for i in r.batch),
                "grad_w_norm": r.grad_w_norm,
                "min_grad_delta_norm": r.min_grad_delta_norm,
                "loss": r.loss,
            }


def batch_indices(seed: int, t: int, n: int, b: int) -> np.ndarray:
    """The step-t mini-batch: b indices uniform with replacement, a pure
    function of (seed, t)."""
    return stream(seed, STREAM_BATCH, t).integers(0, n, size=b)


# ---------------------------------------------------------------------------
# TRADES surrogate
# ---------------------------------------------------------------------------


def _trades_clean_head(Zc, y):
    """Clean log-probabilities, probabilities and cross-entropy."""
    lp = _log_softmax(Zc)
    return lp, np.exp(lp), -lp[np.arange(Zc.shape[0]), y]


def _trades_perturbed_head(Za, lp, p, ce, lam, bounded):
    """Surrogate losses and their gradient on the perturbed logits ``Za``,
    plus what the clean-side gradient needs: the perturbed
    log-probabilities and the bounded rescale (None when unbounded)."""
    lq = _log_softmax(Za)
    raw = ce + (p * (lp - lq)).sum(axis=1) / lam
    Ga = (np.exp(lq) - p) / lam
    if not bounded:
        return raw, Ga, lq, None
    scale = (1.0 / (1.0 + raw) ** 2)[:, None]
    return raw / (1.0 + raw), Ga * scale, lq, scale


def trades_batch_loss_and_grads(
    model: SmoothModel,
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    deltas: np.ndarray,
    lam: float,
):
    """Clean cross-entropy plus (1/lam) times the KL divergence from the
    clean to the perturbed predictive distribution, with analytic gradients.

    Returns ``(losses, mean_grad_w, grad_deltas)`` like the plain loss; the
    perturbation gradient flows only through the perturbed forward pass.
    """
    if lam is None or lam <= 0:
        raise ConfigError("trades_lambda must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    D = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    if D.shape != X.shape:
        raise DimensionError("deltas shape must match inputs")
    B = X.shape[0]
    w = model._check_w(w)
    Zc, vjp_c = model.logits_and_vjp(w, X)
    Za, vjp_a = model.logits_and_vjp(w, X + D)
    lp, p, ce = _trades_clean_head(Zc, y)
    losses, Ga, lq, scale = _trades_perturbed_head(Za, lp, p, ce, lam, model.bounded)

    # upstream gradient on the clean logits
    Gc = p.copy()
    Gc[np.arange(B), y] -= 1.0
    diff = lp - lq
    jac = p * (diff - (p * diff).sum(axis=1, keepdims=True))  # softmax Jacobian applied to diff
    Gc += jac / lam
    if scale is not None:
        Gc = Gc * scale
    gw_c, _ = vjp_c(Gc)
    gw_a, gU_a = vjp_a(Ga)
    return losses, (gw_c + gw_a) / B, gU_a


def _trades_attack_objective(model, w, X, y, lam):
    """``D -> (surrogate losses, grad_deltas)`` for the inner attack, equal bit
    for bit to ``trades_batch_loss_and_grads``. The clean pass does not depend
    on ``D``, so it runs once; the perturbation gradient flows through the
    perturbed pass only, so no weight gradient is computed."""
    lp, p, ce = _trades_clean_head(model.logits_and_vjp(w, X)[0], y)

    def objective(D):
        Za, vjp_a = model.logits_and_vjp(w, X + D)
        losses, Ga, _, _ = _trades_perturbed_head(Za, lp, p, ce, lam, model.bounded)
        return losses, vjp_a(Ga, weights=False)[1]

    return objective


def trades_surrogate_loss(
    model: SmoothModel, w: np.ndarray, delta: np.ndarray, sample: LabeledSample, lam: float
) -> float:
    """Surrogate loss value for one sample."""
    losses, _, _ = trades_batch_loss_and_grads(
        model, w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :], lam
    )
    return float(losses[0])


# ---------------------------------------------------------------------------
# single-step building blocks (the updates lockstep applies)
# ---------------------------------------------------------------------------


def _loss_grads(model, w, X, y, D, lam):
    if lam is None:
        return model.batch_loss_and_grads(w, X, y, D)
    return trades_batch_loss_and_grads(model, w, X, y, D, lam)


def vanilla_batch_step(model, X, y, w, alpha_w, pset, attack_cfg, attack_rng, lam=None):
    """Attack every sample in the batch, then one weight step at the
    attacked points. Returns (new_w, stats)."""
    objective = None if lam is None else _trades_attack_objective(model, w, X, y, lam)
    deltas, grad_calls, loss_calls = pgd_attack_batch(
        model, w, X, y, pset, attack_cfg, attack_rng, loss_grad_fn=objective
    )
    losses, mean_gw, Gd = _loss_grads(model, w, X, y, deltas, lam)
    new_w = w - alpha_w * mean_gw
    stats = {
        "loss": float(losses.mean()),
        "grad_w_norm": float(np.linalg.norm(mean_gw)),
        "min_grad_delta_norm": float(np.linalg.norm(Gd, axis=1).min()),
        "oracle_calls": grad_calls + 1,
        "forward_calls": loss_calls,
    }
    return new_w, stats


def fast_batch_step(model, X, y, w, alpha_w, fast_step_size, pset, delta_start):
    """One projected attack step from a random start, then one weight step."""
    _, Gd0 = model.attack_loss_and_grad(w, X, y, delta_start)
    deltas = ascend_rows(delta_start, Gd0, fast_step_size, pset)
    losses, mean_gw, _ = model.batch_loss_and_grads(w, X, y, deltas)
    new_w = w - alpha_w * mean_gw
    stats = {
        "loss": float(losses.mean()),
        "grad_w_norm": float(np.linalg.norm(mean_gw)),
        # the rescaling identity is applied to the start-point gradients
        "min_grad_delta_norm": float(np.linalg.norm(Gd0, axis=1).min()),
        "oracle_calls": 2,
        "forward_calls": 0,
    }
    return new_w, stats


def free_inner_iteration(model, X, y, w, deltas, alpha_w, alpha_delta, pset, lam=None):
    """One simultaneous update: both gradients from a single evaluation at
    the pre-update (w, deltas), then descend w and ascend deltas together.

    Returns (new_w, new_deltas, stats)."""
    losses, mean_gw, Gd = _loss_grads(model, w, X, y, deltas, lam)
    new_w = w - alpha_w * mean_gw
    new_deltas = ascend_rows(deltas, Gd, alpha_delta, pset)
    stats = {
        "loss": float(losses.mean()),
        "grad_w_norm": float(np.linalg.norm(mean_gw)),
        "min_grad_delta_norm": float(np.linalg.norm(Gd, axis=1).min()),
        "oracle_calls": 1,
        "forward_calls": 0,
    }
    return new_w, new_deltas, stats


# ---------------------------------------------------------------------------
# the lockstep loop
# ---------------------------------------------------------------------------


def _validate(model: SmoothModel, dataset: Dataset, cfg: TrainConfig):
    if dataset.input_dim != model.input_dim or dataset.input_dim != cfg.pset.dim:
        raise DimensionError("model, dataset, and perturbation set disagree on the input dimension")
    if cfg.batch_size > dataset.n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {dataset.n}")
    model._check_labels(dataset.y, dataset.n)  # the gradient oracles trust labels from here on


def _require_finite(w: np.ndarray, update: int, trajectory: int) -> np.ndarray:
    if not np.isfinite(w).all():
        raise FloatingPointError(f"update {update} made the weights of trajectory {trajectory} non-finite")
    return w


def lockstep(model: SmoothModel, datasets, cfg: TrainConfig, batch_plan: np.ndarray | None = None):
    """Advance one trajectory per dataset through one randomness plan.

    All trajectories share the initialization, the batch indices, the
    perturbation starts and the attack restarts, so trajectories on equal
    datasets stay equal float for float. ``batch_plan`` (n_steps, b)
    overrides the batch-index stream, which lets tests pin exactly when a
    given index is drawn.

    The first item yielded is the shared initialization; each later item
    follows one weight update of every trajectory:
    ``(step, iteration, alpha_w, batch, weights, deltas, stats)``, where
    ``weights`` and ``stats`` hold one entry per trajectory and ``deltas``
    holds the free rule's carried perturbations (None under the other
    rules). The initialization item has step 0 and no batch or stats.

    Raises ``FloatingPointError`` at the first update that makes a
    trajectory's weights non-finite, naming the update and the trajectory.
    """
    datasets = list(datasets)
    for dataset in datasets:
        _validate(model, dataset, cfg)
    n, b, m, rule, pset, lam = datasets[0].n, cfg.batch_size, cfg.inner_steps, cfg.rule, cfg.pset, cfg.lam
    if any(dataset.n != n for dataset in datasets):
        raise DimensionError("lockstep datasets must have equal size")
    n_steps = cfg.total_iterations // m
    if batch_plan is not None:
        batch_plan = np.asarray(batch_plan, dtype=np.int64)
        if batch_plan.shape != (n_steps, b):
            raise ConfigError(f"batch_plan must have shape ({n_steps}, {b})")

    ws = [model.init_params(stream(cfg.seed, STREAM_INIT))] * len(datasets)
    stats = [None] * len(datasets)
    yield 0, 0, 0.0, None, tuple(ws), None, None
    for t in range(1, n_steps + 1):
        idx = batch_plan[t - 1] if batch_plan is not None else batch_indices(cfg.seed, t, n, b)
        batches = [(dataset.X[idx], dataset.y[idx]) for dataset in datasets]
        aw = step_size(cfg.schedule, t)
        if rule == FREE:
            deltas = [pset.sample_uniform(stream(cfg.seed, STREAM_DELTA, t), size=b)] * len(datasets)
            for i in range(1, m + 1):
                for j, (X, y) in enumerate(batches):
                    w, deltas[j], stats[j] = free_inner_iteration(
                        model, X, y, ws[j], deltas[j], aw, cfg.resolved_attack_lr, pset, lam=lam
                    )
                    ws[j] = _require_finite(w, (t - 1) * m + i, j)
                yield t, i, aw, idx, tuple(ws), tuple(deltas), tuple(stats)
            continue
        if rule == FAST:
            delta0 = pset.sample_uniform(stream(cfg.seed, STREAM_DELTA, t), size=b)
        for j, (X, y) in enumerate(batches):
            if rule == VANILLA:
                w, stats[j] = vanilla_batch_step(
                    model, X, y, ws[j], aw, pset, cfg.inner_attack, stream(cfg.seed, STREAM_ATTACK, t), lam=lam
                )
            else:
                w, stats[j] = fast_batch_step(model, X, y, ws[j], aw, cfg.resolved_fast_step, pset, delta0)
            ws[j] = _require_finite(w, t, j)
        yield t, 1, aw, idx, tuple(ws), None, tuple(stats)


class _Tracker:
    def __init__(self, algorithm, seed, w0, snapshot_at=None):
        self.records = []
        self.low = w0.copy()
        self.high = w0.copy()
        self.oracle = 0
        self.forward = 0
        self.algorithm = algorithm
        self.seed = seed
        self.snapshot_at = frozenset(int(t) for t in snapshot_at) if snapshot_at else frozenset()
        self.snapshots = {}

    def push(self, w, t, step, iteration, alpha_w, batch, stats):
        np.minimum(self.low, w, out=self.low)
        np.maximum(self.high, w, out=self.high)
        self.oracle += stats["oracle_calls"]
        self.forward += stats["forward_calls"]
        if t in self.snapshot_at:
            self.snapshots[t] = w.copy()
        self.records.append(
            StepRecord(
                t=t,
                step=step,
                iteration=iteration,
                alpha_w=alpha_w,
                batch=np.asarray(batch).copy(),
                grad_w_norm=stats["grad_w_norm"],
                min_grad_delta_norm=stats["min_grad_delta_norm"],
                loss=stats["loss"],
            )
        )

    def trace(self, w):
        return TrainTrace(
            algorithm=self.algorithm,
            seed=self.seed,
            records=self.records,
            w_final=w.copy(),
            w_low=self.low,
            w_high=self.high,
            oracle_calls=self.oracle,
            forward_calls=self.forward,
            snapshots=self.snapshots,
        )


def train(model: SmoothModel, dataset: Dataset, cfg: TrainConfig, snapshot_at=None):
    """Run ``cfg.algorithm`` on one dataset; returns (final weights, TrainTrace).

    ``snapshot_at`` collects weight copies at the given global update
    indices into ``trace.snapshots`` for checkpoint evaluation.
    """
    updates = lockstep(model, [dataset], cfg)
    (w,) = next(updates)[4]
    tracker = _Tracker(cfg.algorithm, cfg.seed, w, snapshot_at)
    for update, (t, i, aw, idx, (w,), _, (stats,)) in enumerate(updates, start=1):
        tracker.push(w, update, t, i, aw, idx, stats)
    return w, tracker.trace(w)
