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
``lockstep`` builds the initialization stream with ``stream``; it derives
the keys of every step's batch and perturbation or attack stream in one
``philox_keys`` call and re-keys one generator per stream kind at each
step, which draws exactly what ``stream`` would at that address.

Mini-batches are drawn uniformly WITH replacement over sample indices at
every step, so the probability a fixed index appears in the step-t batch
is at most b/n, the union-bound direction the divergence analysis needs.

Free and free-TRADES compute the weight gradient and the per-sample
perturbation gradients from one shared evaluation of the loss at the
current (w, delta), a single backpropagation state, then apply the weight
descent and perturbation ascent updates simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DimensionError, _count, _int64s, _real
from .models import AttackOracle, Dataset, SmoothModel, _log_softmax, _log_softmax_arrays
from .rng import _check_seed, keyed_stream, philox_keys, stream
from .threat import AttackConfig, PerturbationSet, _row_norms, ascend_rows, pgd_attack_batch

__all__ = [
    "StepSchedule",
    "TrainConfig",
    "TrainTrace",
    "step_size",
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
        if not (math.isfinite(_real(self.c, "schedule constant c")) and self.c > 0):
            raise ConfigError("schedule constant c must be positive")
        _count(self.m, "schedule m", 1)

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
    """One training run. ``oracle_per_update`` and ``forward_per_update``
    state what a weight update costs, once: ``train`` counts by them."""

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
        _count(self.batch_size, "batch_size", 1)
        _count(self.total_iterations, "total_iterations", 0)
        _count(self.free_steps, "free_steps", 1)
        _check_seed(self.seed, "train.seed")
        for name in ("attack_lr", "fast_step"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(_real(value, name)) and value >= 0):
                raise ConfigError(f"{name} must be nonnegative, got {value}")
        if self.total_iterations % self.inner_steps != 0:
            raise ConfigError(
                f"total_iterations={self.total_iterations} must be divisible by free_steps={self.free_steps}"
            )
        if self.rule == FREE and self.schedule.kind == "vanishing_c_over_mt" and self.schedule.m != self.free_steps:
            raise ConfigError(f"c/(m t) schedule m={self.schedule.m} must equal free_steps={self.free_steps}")
        lam = self.trades_lambda
        if lam is None and self.algorithm != self.rule:
            raise ConfigError("trades_lambda must be a positive float for TRADES variants")
        if lam is not None and not (math.isfinite(_real(lam, "trades_lambda")) and lam > 0):
            raise ConfigError(f"trades_lambda must be positive and finite, got {lam}")

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
        attack = self.inner_attack
        return {VANILLA: attack.steps * attack.restarts + 1, FAST: 2, FREE: 1}[self.rule]

    @property
    def forward_per_update(self) -> int:
        """Restart-scoring evaluations per weight update (vanilla, restarts > 1)."""
        restarts = self.inner_attack.restarts
        return restarts if self.rule == VANILLA and restarts > 1 else 0

    @property
    def resolved_attack_lr(self) -> float:
        return self.attack_lr if self.attack_lr is not None else self.pset.radius

    @property
    def resolved_fast_step(self) -> float:
        return self.fast_step if self.fast_step is not None else default_fast_step(self.pset)

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


@dataclass
class TrainTrace:
    """One row per weight update u (``t`` = u + 1 in ``to_records``) of the
    run ``cfg``: the outer step, the inner iteration, the step size, the
    batch indices (U, b), the weight-gradient norm, the smallest per-sample
    perturbation-gradient norm and the mean batch loss."""

    cfg: TrainConfig
    step: np.ndarray  # (U,)
    iteration: np.ndarray  # (U,)
    alpha_w: np.ndarray  # (U,)
    batch: np.ndarray  # (U, b)
    grad_w_norm: np.ndarray  # (U,)
    min_grad_delta: np.ndarray  # (U,)
    loss: np.ndarray  # (U,)
    w_final: np.ndarray
    w_low: np.ndarray  # per-coordinate envelope of visited weights
    w_high: np.ndarray
    snapshots: dict = field(default_factory=dict)  # update index -> weight copy

    @property
    def oracle_calls(self) -> int:
        return len(self) * self.cfg.oracle_per_update

    @property
    def forward_calls(self) -> int:
        return len(self) * self.cfg.forward_per_update

    def __len__(self):
        return len(self.step)

    def min_grad_delta_norm(self) -> float:
        return float(self.min_grad_delta.min()) if len(self) else float("inf")

    def to_records(self):
        """Line-delimited record stream: one dict per weight update."""
        for u in range(len(self)):
            yield {
                "t": u + 1,
                "step": int(self.step[u]),
                "iteration": int(self.iteration[u]),
                "alpha_w": float(self.alpha_w[u]),
                "batch": "|".join(str(int(i)) for i in self.batch[u]),
                "grad_w_norm": float(self.grad_w_norm[u]),
                "min_grad_delta_norm": float(self.min_grad_delta[u]),
                "loss": float(self.loss[u]),
            }


def batch_indices(seed: int, t: int, n: int, b: int) -> np.ndarray:
    """The step-t mini-batch: b indices uniform with replacement, a pure
    function of (seed, t). ``lockstep`` draws the same indices through its
    re-keyed batch generator."""
    return stream(seed, STREAM_BATCH, t).integers(0, n, size=b)


# ---------------------------------------------------------------------------
# TRADES surrogate
# ---------------------------------------------------------------------------


def trades_batch_loss_and_grads(
    model: SmoothModel,
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    deltas: np.ndarray,
    lam: float,
    *,
    checked: bool = True,
):
    """Clean cross-entropy plus (1/lam) times the KL divergence from the
    clean to the perturbed predictive distribution, with analytic gradients:
    the full oracle of a ``_TradesAttack`` bound for the call.

    Returns ``(losses, mean_grad_w, grad_deltas)`` like the plain loss, and
    takes the same run axis; the perturbation gradient flows only through
    the perturbed forward pass. ``checked=False`` skips the input checks,
    for inputs that ``lockstep`` validated and a ``lam`` that
    ``TrainConfig`` did.
    """
    D = deltas
    if checked:
        if lam is None or lam <= 0:
            raise ConfigError("trades_lambda must be positive")
        w, X = model._inputs(w, X, None)
        y = model._check_labels(y, X.shape[:-1])
        D = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
        if D.shape != X.shape:
            raise DimensionError("deltas shape must match inputs")
    return _TradesAttack(model, X, y, lam).point(w).full(D)


class _TradesAttack(AttackOracle):
    """The oracles of the TRADES surrogate: bound, re-pointed and called
    like the plain ``AttackOracle``. The clean pass does not depend on the
    perturbations, so it has a pass of its own, bound to a copy of the
    rows, which ``point`` runs once; the perturbation gradient
    ``(exp(lq) - p) / lam`` flows through the perturbed pass only.
    ``full(D)`` is the full oracle, ``trades_batch_loss_and_grads``: the
    clean logits gradient pulls back through the clean pass, and the two
    weight gradients are summed."""

    def __init__(self, model, X, y, lam, rows=None):
        super().__init__(model, X, y, rows)
        self.lam = lam
        self._Uc = np.empty(self.X.shape)
        self._Zc, self._clean_forward, _, self._clean_full_grad = model._bound_pass(self.w, self._Uc)
        self._p, self._ce = np.empty(self._Z.shape), np.empty(self._raw.shape)
        self._clean = _log_softmax_arrays(self._Zc, self._p)  # lp in its first array
        self._Gc, self._diff, self._kl = np.empty(self._Z.shape), np.empty(self._Z.shape), np.empty(self._raw.shape)

    def _clean_pass(self):
        np.copyto(self._Uc, self.X)
        self._clean_forward(self._Uc)
        self._spent = False  # until a backward writes over the pass

    def point(self, w, idx=None):
        super().point(w, idx)
        self._clean_pass()
        lp = _log_softmax(self._Zc, self._clean)
        np.exp(lp, out=self._p)
        self._label_losses(lp, self._ce)
        return self

    def _head(self, losses):
        lq = _log_softmax(self._Z, self._ls)
        G, p, lam = self._G, self._p, self.lam
        raw = None
        if losses:  # ce + kl / lam, kl = (p * (lp - lq)).sum(axis=-1); full reads lp - lq and kl
            np.multiply(p, np.subtract(self._clean[0], lq, out=self._diff), out=G)
            kl = np.add.reduce(G, axis=-1, keepdims=True, out=self._kl)
            raw = np.add(self._ce, np.divide(kl, lam, out=self._raw), out=self._raw)
        np.subtract(np.exp(lq, out=G), p, out=G)
        return np.divide(G, lam, out=G), raw

    def full(self, D):
        values, Ga = self._evaluate(D, True)
        # the clean logits gradient p - onehot + p * (diff - kl) / lam, the
        # softmax Jacobian at p applied to diff = lp - lq, rescaled as Ga was
        p, diff = self._p, self._diff
        jac = np.multiply(p, np.subtract(diff, self._kl, out=diff), out=diff)
        Gc = np.add(np.subtract(p, self.onehot, out=self._Gc), np.divide(jac, self.lam, out=jac), out=self._Gc)
        if self.bounded:
            np.multiply(Gc, self._scale, out=Gc)
        if self._spent:
            self._clean_pass()
        gw, _ = self._clean_full_grad(Gc)
        self._spent = True
        gw_a, gU = self._full_grad(Ga)
        gw = np.add(gw, gw_a, out=gw)
        return values, np.divide(gw, Ga.shape[-2], out=gw), gU


def _bind_attack(model, X, y, lam, rows=None) -> AttackOracle:
    """The inner attack's oracle on the plain loss (``lam`` None) or on the
    TRADES surrogate, bound to ``X``, ``y`` as ``AttackOracle`` is."""
    if lam is None:
        return model.attack_oracle(X, y, rows)
    return _TradesAttack(model, X, y, lam, rows)


# ---------------------------------------------------------------------------
# single-step building blocks (the updates lockstep applies)
# ---------------------------------------------------------------------------
#
# Each step takes its rows from a binding (``_bind_attack``) pointed at
# ``(w, X, y)``: one run (``w`` (P,), ``X`` (B, d), ``y`` (B,)) or a stack of
# runs on the models' run axis (``w`` (R, P), ``X`` (R, B, d), ``y`` (R, B));
# the perturbations are (B, d) or (R, B, d) to match, and the stats are
# ``_stats``' arrays, shaped like the run axis. ``lockstep`` binds once per
# run, always on the run axis, and re-points the binding at every update.
# Nothing here checks its inputs: they are lockstep's, validated on entry,
# and the TRADES weight step runs its full oracle with ``checked=False``.


def _full_grads(model, w, oracle, D, lam):
    """``(losses, mean_grad_w, grad_delta)`` at ``(w, X + D)`` on the rows of
    ``oracle``: the plain loss through ``oracle``, whose gradients live until
    its next call, or the TRADES surrogate when ``lam`` is set."""
    if lam is not None:
        # a surrogate bound for the call, not the binding's own ``full``: the
        # benchmark's tracer counts oracle calls at trades_batch_loss_and_grads
        # and at batch_loss_and_grads only, and bench/run.py divides by that
        # count unguarded, so seq-train would read zero calls and crash
        # (ROADMAP items 1 and 9)
        return trades_batch_loss_and_grads(model, w, oracle.X, oracle.y, D, lam, checked=False)
    return oracle.full(D)


def _stats(losses, mean_gw, norms):
    """Step statistics ``(loss, grad_w_norm, min_grad_delta)``, each shaped
    like the run axis, from the losses, the mean weight gradient and the
    row norms (..., B, 1) of the perturbation gradients. The loss mean and
    the smallest row norm reduce along each run's own last axis, and the
    weight-gradient norm is the square root of each run's ``g.dot(g)`` (a
    matmul takes the same dot product per run), so every run gets the
    numbers of the unstacked step bit for bit. The reductions are the ufuncs
    that ``mean`` and ``np.linalg.norm`` run, minus their dispatch."""
    loss = np.add.reduce(losses, axis=-1) / losses.shape[-1]
    gw_norm = np.sqrt(np.matmul(mean_gw[..., None, :], mean_gw[..., :, None])[..., 0, 0])
    return loss, gw_norm, np.minimum.reduce(norms[..., 0], axis=-1)


def vanilla_batch_step(model, attack, w, alpha_w, pset, attack_cfg, attack_rng, lam=None):
    """Attack every sample in the batch, then one weight step at the
    attacked points. ``attack`` is the inner attack's oracle
    (``_bind_attack`` with ``lam``) pointed at ``(w, X, y)``; on the plain
    loss it also serves the weight step. Returns (new_w, stats)."""
    deltas = pgd_attack_batch(model, w, attack.X, attack.y, pset, attack_cfg, attack_rng, loss_grad_fn=attack)
    losses, mean_gw, Gd = _full_grads(model, w, attack, deltas, lam)
    return w - alpha_w * mean_gw, _stats(losses, mean_gw, _row_norms(Gd))


def fast_batch_step(oracle, w, alpha_w, fast_step_size, pset, delta_start):
    """One projected attack step from a random start, then one weight step.
    The rescaling identity is applied to the start-point gradients, so they
    give the stats' min perturbation-gradient norm. ``oracle`` is the plain
    loss's binding pointed at ``(w, X, y)``. Returns (new_w, stats)."""
    _, Gd0 = oracle(delta_start, losses=False)
    norms = _row_norms(Gd0)  # before the weight step's call writes over Gd0
    deltas = ascend_rows(delta_start, Gd0, fast_step_size, pset, norms)
    losses, mean_gw, _ = oracle.full(deltas)
    return w - alpha_w * mean_gw, _stats(losses, mean_gw, norms)


def free_inner_iteration(model, oracle, w, deltas, alpha_w, alpha_delta, pset, lam=None):
    """One simultaneous update: both gradients from a single evaluation at
    the pre-update (w, deltas), then descend w and ascend deltas together.
    ``oracle`` is the plain loss's binding pointed at ``(w, X, y)``; with
    ``lam`` set it supplies the rows of the TRADES surrogate.

    Returns (new_w, new_deltas, stats)."""
    losses, mean_gw, Gd = _full_grads(model, w, oracle, deltas, lam)
    norms = _row_norms(Gd)
    new_w = w - alpha_w * mean_gw
    new_deltas = ascend_rows(deltas, Gd, alpha_delta, pset, norms)
    return new_w, new_deltas, _stats(losses, mean_gw, norms)


# ---------------------------------------------------------------------------
# the lockstep loop
# ---------------------------------------------------------------------------


def _validate(model: SmoothModel, dataset: Dataset, cfg: TrainConfig):
    if dataset.input_dim != model.input_dim or dataset.input_dim != cfg.pset.dim:
        raise DimensionError("model, dataset, and perturbation set disagree on the input dimension")
    if cfg.batch_size > dataset.n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {dataset.n}")
    model._check_labels(dataset.y, (dataset.n,))  # the gradient oracles trust labels from here on


def _require_finite(W: np.ndarray, update: int) -> None:
    """``W`` is the stack of every trajectory's weights (R, P)."""
    if not np.isfinite(W).all():
        trajectory = int(np.argmin(np.isfinite(W).all(axis=-1)))
        raise FloatingPointError(f"update {update} made the weights of trajectory {trajectory} non-finite")


def lockstep(model: SmoothModel, datasets, cfg: TrainConfig, batch_plan: np.ndarray | None = None):
    """Advance one trajectory per dataset through one randomness plan.

    All trajectories share the initialization, the batch indices, the
    perturbation starts and the attack restarts, so trajectories on equal
    datasets stay equal float for float. ``batch_plan`` (n_steps, b)
    overrides the batch-index stream, which lets tests pin exactly when a
    given index is drawn.

    The trajectories ride the models' run axis, one run per dataset
    (``train`` is one run): one oracle call per step serves them all, and
    each shared draw is made once. Each trajectory equals the unstacked
    steps on its own dataset bit for bit.

    The first item yielded is the shared initialization; each later item
    follows one weight update of every trajectory:
    ``(step, iteration, alpha_w, batch, W, D, stats)``, where ``W`` (R, P)
    stacks the trajectories' weights, ``D`` (R, b, d) the free rule's
    carried perturbations (None under the other rules), and ``stats`` is
    ``(loss, grad_w_norm, min_grad_delta)``, arrays (R,). Every array is
    yielded as the loop made it and never written to afterwards, so an
    item stays valid after the loop moves on. The initialization item has
    step 0 and no batch or stats.

    Raises ``FloatingPointError`` at the first update that makes a
    trajectory's weights non-finite, naming the update and the trajectory.
    """
    datasets = list(datasets)
    if not datasets:
        raise DimensionError("lockstep needs at least one dataset")
    for dataset in datasets:
        _validate(model, dataset, cfg)
    n, b, m, rule, pset, lam = datasets[0].n, cfg.batch_size, cfg.inner_steps, cfg.rule, cfg.pset, cfg.lam
    if any(dataset.n != n for dataset in datasets):
        raise DimensionError("lockstep datasets must have equal size")
    n_steps = cfg.total_iterations // m
    if batch_plan is not None:
        batch_plan = _int64s(batch_plan, "batch_plan", ConfigError)
        if batch_plan.shape != (n_steps, b):
            raise ConfigError(f"batch_plan must have shape ({n_steps}, {b})")
        if batch_plan.size and not (0 <= batch_plan.min() and batch_plan.max() < n):
            raise ConfigError(f"batch_plan indices must lie in [0, {n})")
    runs = len(datasets)

    def shared(draw):  # one draw, copied to every trajectory
        out = np.empty((runs,) + draw.shape)
        out[...] = draw
        return out

    # every step's keys at once, then one re-keyed generator per stream kind
    draw = STREAM_ATTACK if rule == VANILLA else STREAM_DELTA
    kinds = [draw] if batch_plan is not None else [STREAM_BATCH, draw]
    steps = np.arange(1, n_steps + 1)
    paths = np.column_stack([np.repeat(kinds, n_steps), np.tile(steps, len(kinds))])
    keys = philox_keys(cfg.seed, paths).reshape(len(kinds), n_steps, 2)
    draw_rng = keyed_stream(keys[-1])
    batch_rng = keyed_stream(keys[0]) if batch_plan is None else None

    # bound once, then re-pointed at each update's weights and rows: the
    # plain loss's oracles, or the vanilla rule's attack on the TRADES surrogate
    X_all = np.stack([dataset.X for dataset in datasets])
    y_all = np.stack([dataset.y for dataset in datasets])
    oracle = _bind_attack(model, X_all, y_all, lam if rule == VANILLA else None, rows=b)
    W = np.stack([model.init_params(stream(cfg.seed, STREAM_INIT))] * runs)
    yield 0, 0, 0.0, None, W, None, None
    for t in range(1, n_steps + 1):
        idx = batch_plan[t - 1] if batch_plan is not None else batch_rng(t - 1).integers(0, n, size=b)
        oracle.point(W, idx)
        aw = step_size(cfg.schedule, t)
        if rule == FREE:
            D = shared(pset.sample_uniform(draw_rng(t - 1), size=b))
            for i in range(1, m + 1):
                if i > 1:
                    oracle.point(W)
                W, D, stats = free_inner_iteration(model, oracle, W, D, aw, cfg.resolved_attack_lr, pset, lam)
                _require_finite(W, (t - 1) * m + i)
                yield t, i, aw, idx, W, D, stats
            continue
        if rule == VANILLA:
            W, stats = vanilla_batch_step(model, oracle, W, aw, pset, cfg.inner_attack, draw_rng(t - 1), lam)
        else:
            delta0 = shared(pset.sample_uniform(draw_rng(t - 1), size=b))
            W, stats = fast_batch_step(oracle, W, aw, cfg.resolved_fast_step, pset, delta0)
        _require_finite(W, t)
        yield t, 1, aw, idx, W, None, stats


def train(model: SmoothModel, dataset: Dataset, cfg: TrainConfig, snapshot_at=None, *, on_snapshot=None):
    """Run ``cfg.algorithm`` on one dataset; returns (final weights, TrainTrace).

    ``snapshot_at`` collects weight copies at the given global update
    indices into ``trace.snapshots`` for checkpoint evaluation.
    ``on_snapshot(update, w)`` is called with each copy right after it is
    stored, so a caller can start on a checkpoint while training goes on.
    """
    updates = lockstep(model, [dataset], cfg)
    w = next(updates)[4][0]
    U = cfg.total_iterations
    step = np.zeros(U, dtype=np.int64)
    iteration = np.zeros(U, dtype=np.int64)
    alpha_w = np.zeros(U)
    batch = np.zeros((U, cfg.batch_size), dtype=np.int64)
    grad_w_norm = np.zeros(U)
    min_grad_delta = np.zeros(U)
    loss = np.zeros(U)
    w_low, w_high = w.copy(), w.copy()
    marks = set() if snapshot_at is None else {int(t) for t in snapshot_at}
    snapshots = {}
    for u, (t, i, aw, idx, W, _, (lo, gw, mgd)) in enumerate(updates):
        w = W[0]
        step[u] = t
        iteration[u] = i
        alpha_w[u] = aw
        batch[u] = idx
        loss[u], grad_w_norm[u], min_grad_delta[u] = lo[0], gw[0], mgd[0]
        np.minimum(w_low, w, out=w_low)
        np.maximum(w_high, w, out=w_high)
        if u + 1 in marks:
            snapshots[u + 1] = w.copy()
            if on_snapshot is not None:
                on_snapshot(u + 1, snapshots[u + 1])
    return w, TrainTrace(
        cfg=cfg,
        step=step,
        iteration=iteration,
        alpha_w=alpha_w,
        batch=batch,
        grad_w_norm=grad_w_norm,
        min_grad_delta=min_grad_delta,
        loss=loss,
        w_final=w.copy(),
        w_low=w_low,
        w_high=w_high,
        snapshots=snapshots,
    )
