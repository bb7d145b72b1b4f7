"""Small smooth classifiers with hand-written analytic gradients.

Each model maps a flat float64 weight vector ``w`` and a perturbed input
``x + delta`` to class logits; the training loss is softmax cross-entropy.
Activations are C-infinity (tanh hidden units, softmax head), so the loss
is continuously differentiable in ``(w, delta)`` and finite-difference
checks converge cleanly. Model objects are immutable architecture
descriptions; every operation is a pure function of its inputs.

The core primitive is ``logits_and_vjp``: a batched forward pass returning
the logits plus a closure that pulls an upstream logits gradient back to
(total weight gradient, per-row input gradient). All loss variants (plain
adversarial loss, bounded squashed loss, the consistency surrogate in
``trainers``) are built on it, which is what lets simultaneous-update
algorithms obtain both gradients from one evaluation point. An attack needs
only the input gradient, so the closure can skip the weight gradient, and
``attack_loss_and_grad`` is the unchecked oracle built on that.

An optional bounded-loss mode squashes the cross-entropy through
``u -> u / (1 + u)`` so loss values lie in [0, 1]; the squashing is smooth
and its chain rule is applied analytically. Off by default; turn it on for
stability-bound experiments that need the boundedness hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "LabeledSample",
    "Dataset",
    "SmoothModel",
    "SoftmaxLinear",
    "TwoLayerTanhMLP",
    "ScalarLogistic",
    "make_model",
    "batch_grads",
    "finite_diff_report",
]


@dataclass(frozen=True)
class LabeledSample:
    """A feature vector and its class index."""

    x: np.ndarray
    y: int


class Dataset:
    """A fixed design matrix ``X`` of shape (n, d) with integer labels ``y``."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DimensionError("X must be a nonempty (n, d) matrix")
        if y.shape != (X.shape[0],):
            raise DimensionError("y must have one label per row of X")
        if not np.isfinite(X).all():
            raise ValueError("X contains non-finite entries")
        self.X = X
        self.y = y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    def sample(self, i: int) -> LabeledSample:
        return LabeledSample(x=self.X[i].copy(), y=int(self.y[i]))

    def samples(self) -> list[LabeledSample]:
        return [self.sample(i) for i in range(self.n)]

    def replace_sample(self, i: int, s: LabeledSample) -> "Dataset":
        """A copy of the dataset with row ``i`` replaced."""
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for dataset of size {self.n}")
        if np.asarray(s.x).shape != (self.input_dim,):
            raise DimensionError("replacement sample has wrong input dimension")
        X = self.X.copy()
        y = self.y.copy()
        X[i] = s.x
        y[i] = s.y
        return Dataset(X, y)

    @classmethod
    def from_samples(cls, samples) -> "Dataset":
        X = np.stack([np.asarray(s.x, dtype=np.float64) for s in samples])
        y = np.array([s.y for s in samples], dtype=np.int64)
        return cls(X, y)


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    # the ufunc reductions are what Z.max and .sum call, minus their dispatch
    s = Z - np.maximum.reduce(Z, axis=1, keepdims=True)
    return s - np.log(np.add.reduce(np.exp(s), axis=1, keepdims=True))


def _softmax(Z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(Z))


def _softmax_head(Z: np.ndarray, y: np.ndarray, bounded: bool):
    """Per-row cross-entropy of logits ``Z`` (squashed when ``bounded``) and
    its gradient with respect to ``Z``. Returns ``(losses (B,), G (B, C))``."""
    rows = np.arange(Z.shape[0])
    LS = _log_softmax(Z)
    raw = -LS[rows, y]
    G = np.exp(LS)
    G[rows, y] -= 1.0
    if bounded:
        G *= (1.0 / (1.0 + raw) ** 2)[:, None]
        return raw / (1.0 + raw), G
    return raw, G


class SmoothModel:
    """Base class: shared loss head, gradient assembly, and conveniences.

    Subclasses set ``kind``, ``input_dim``, ``class_count``, ``param_dim``,
    ``bounded`` and implement ``logits_and_vjp`` plus ``_init_scales``.
    """

    kind: str
    input_dim: int
    class_count: int
    param_dim: int
    hidden_dim: int | None
    bounded: bool

    # -- architecture-specific ------------------------------------------------

    def logits_and_vjp(self, w: np.ndarray, U: np.ndarray):
        """Forward pass on perturbed inputs ``U`` of shape (B, d).

        Returns ``(Z, vjp)`` where ``Z`` is (B, C) and ``vjp(G)`` maps an
        upstream (B, C) logits gradient to ``(grad_w_total, grad_U)`` with
        shapes (param_dim,) and (B, d). ``grad_w_total`` sums over rows;
        rows of ``grad_U`` are independent per-sample input gradients.
        ``vjp(G, weights=False)`` skips the weight gradient and returns
        ``(None, grad_U)`` with the same ``grad_U``.
        """
        raise NotImplementedError

    def _init_scales(self) -> np.ndarray:
        """Per-coordinate init stddev (1/sqrt(fan_in) for weights, 0 for biases)."""
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------------

    def _check_w(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.param_dim,):
            raise DimensionError(f"weight vector must have shape ({self.param_dim},), got {w.shape}")
        return w

    def _check_labels(self, y, rows: int) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        if y.shape != (rows,):
            raise DimensionError("labels and inputs disagree on batch size")
        if np.any(y < 0) or np.any(y >= self.class_count):
            raise ValueError("label out of range")
        return y

    def _perturbed(self, X: np.ndarray, deltas) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise DimensionError(f"inputs must have dimension {self.input_dim}, got {X.shape[1]}")
        if deltas is None:
            return X
        D = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
        if D.shape != X.shape:
            raise DimensionError(f"deltas shape {D.shape} does not match inputs {X.shape}")
        return X + D

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Gaussian init with stddev 1/sqrt(fan_in) per weight matrix, zero biases."""
        return rng.standard_normal(self.param_dim) * self._init_scales()

    def with_bounded(self, bounded: bool) -> "SmoothModel":
        clone = type(self)(**self._ctor_args())
        clone.bounded = bool(bounded)
        return clone

    def _ctor_args(self) -> dict:
        raise NotImplementedError

    def logits_batch(self, w: np.ndarray, X: np.ndarray, deltas=None) -> np.ndarray:
        w = self._check_w(w)
        U = self._perturbed(X, deltas)
        Z, _ = self.logits_and_vjp(w, U)
        return Z

    def predict_batch(self, w: np.ndarray, X: np.ndarray, deltas=None) -> np.ndarray:
        return self.logits_batch(w, X, deltas).argmax(axis=1)

    def loss_batch(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas=None) -> np.ndarray:
        """Per-sample loss values, shape (B,)."""
        Z = self.logits_batch(w, X, deltas)
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        raw = -_log_softmax(Z)[np.arange(Z.shape[0]), y]
        return raw / (1.0 + raw) if self.bounded else raw

    def batch_loss_and_grads(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas=None):
        """One shared evaluation yielding losses, mean weight gradient, and
        per-sample perturbation gradients.

        Returns ``(losses (B,), mean_grad_w (param_dim,), grad_delta (B, d))``.
        """
        w = self._check_w(w)
        U = self._perturbed(X, deltas)
        y = self._check_labels(y, U.shape[0])
        Z, vjp = self.logits_and_vjp(w, U)
        losses, G = _softmax_head(Z, y, self.bounded)
        gw_total, gU = vjp(G)
        return losses, gw_total / Z.shape[0], gU

    def attack_loss_and_grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas: np.ndarray):
        """The attack-only oracle: per-sample losses and perturbation
        gradients at ``X + deltas``, equal bit for bit to the first and last
        outputs of ``batch_loss_and_grads``, without the weight gradient.

        Nothing is checked: ``w`` must be a float64 (param_dim,) vector,
        ``X`` and ``deltas`` float64 (B, input_dim) matrices and ``y`` B
        in-range labels. ``pgd_attack_batch`` validates them once on entry.
        Returns ``(losses (B,), grad_delta (B, d))``.
        """
        Z, vjp = self.logits_and_vjp(w, X + deltas)
        losses, G = _softmax_head(Z, y, self.bounded)
        return losses, vjp(G, weights=False)[1]

    # -- single-sample operations --------------------------------------------

    def loss_value(self, w: np.ndarray, delta: np.ndarray, sample: LabeledSample) -> float:
        return float(self.loss_batch(w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :])[0])

    def grad_w(self, w: np.ndarray, delta: np.ndarray, sample: LabeledSample) -> np.ndarray:
        _, gw, _ = self.batch_loss_and_grads(w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :])
        return gw

    def grad_delta(self, w: np.ndarray, delta: np.ndarray, sample: LabeledSample) -> np.ndarray:
        _, _, gd = self.batch_loss_and_grads(w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :])
        return gd[0]


class SoftmaxLinear(SmoothModel):
    """Linear logits ``W(x + delta) + b`` with softmax cross-entropy."""

    def __init__(self, input_dim: int, class_count: int = 2, bounded: bool = False):
        if input_dim < 1 or class_count < 2:
            raise DimensionError("need input_dim >= 1 and class_count >= 2")
        self.kind = "softmax_linear"
        self.input_dim = int(input_dim)
        self.class_count = int(class_count)
        self.hidden_dim = None
        self.param_dim = self.class_count * self.input_dim + self.class_count
        self.bounded = bool(bounded)

    def _ctor_args(self):
        return dict(input_dim=self.input_dim, class_count=self.class_count, bounded=self.bounded)

    def unpack(self, w: np.ndarray):
        C, d = self.class_count, self.input_dim
        return w[: C * d].reshape(C, d), w[C * d :]

    def logits_and_vjp(self, w, U):
        W, b = self.unpack(w)
        Z = U @ W.T + b

        def vjp(G, weights=True):
            gU = G @ W
            if not weights:
                return None, gU
            return np.concatenate([(G.T @ U).ravel(), G.sum(axis=0)]), gU

        return Z, vjp

    def _init_scales(self):
        s = np.zeros(self.param_dim)
        s[: self.class_count * self.input_dim] = 1.0 / np.sqrt(self.input_dim)
        return s


class TwoLayerTanhMLP(SmoothModel):
    """One tanh hidden layer followed by a linear softmax head."""

    def __init__(self, input_dim: int, hidden_dim: int = 16, class_count: int = 2, bounded: bool = False):
        if input_dim < 1 or hidden_dim < 1 or class_count < 2:
            raise DimensionError("need input_dim, hidden_dim >= 1 and class_count >= 2")
        self.kind = "mlp"
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.class_count = int(class_count)
        d, h, C = self.input_dim, self.hidden_dim, self.class_count
        self.param_dim = h * d + h + C * h + C
        self.bounded = bool(bounded)

    def _ctor_args(self):
        return dict(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            class_count=self.class_count,
            bounded=self.bounded,
        )

    def unpack(self, w: np.ndarray):
        d, h, C = self.input_dim, self.hidden_dim, self.class_count
        i = 0
        W1 = w[i : i + h * d].reshape(h, d)
        i += h * d
        b1 = w[i : i + h]
        i += h
        W2 = w[i : i + C * h].reshape(C, h)
        i += C * h
        b2 = w[i : i + C]
        return W1, b1, W2, b2

    def logits_and_vjp(self, w, U):
        W1, b1, W2, b2 = self.unpack(w)
        H = np.tanh(U @ W1.T + b1)
        Z = H @ W2.T + b2

        def vjp(G, weights=True):
            gA = (G @ W2) * (1.0 - H * H)  # tanh'
            gU = gA @ W1
            if not weights:
                return None, gU
            gw = [(gA.T @ U).ravel(), gA.sum(axis=0), (G.T @ H).ravel(), G.sum(axis=0)]
            return np.concatenate(gw), gU

        return Z, vjp

    def _init_scales(self):
        d, h, C = self.input_dim, self.hidden_dim, self.class_count
        s = np.zeros(self.param_dim)
        s[: h * d] = 1.0 / np.sqrt(d)
        s[h * d + h : h * d + h + C * h] = 1.0 / np.sqrt(h)
        return s


class ScalarLogistic(SmoothModel):
    """Binary logistic model ``sigma(w . (x + delta))`` with zero bias.

    Represented with two-class logits ``[0, w . u]`` so the shared softmax
    head applies; at w = 0 the loss is ln 2.
    """

    def __init__(self, input_dim: int = 1, bounded: bool = False):
        if input_dim < 1:
            raise DimensionError("need input_dim >= 1")
        self.kind = "scalar_logistic"
        self.input_dim = int(input_dim)
        self.class_count = 2
        self.hidden_dim = None
        self.param_dim = self.input_dim
        self.bounded = bool(bounded)

    def _ctor_args(self):
        return dict(input_dim=self.input_dim, bounded=self.bounded)

    def logits_and_vjp(self, w, U):
        z = U @ w
        Z = np.stack([np.zeros_like(z), z], axis=1)

        def vjp(G, weights=True):
            g1 = G[:, 1]
            return (g1 @ U if weights else None), np.outer(g1, w)

        return Z, vjp

    def _init_scales(self):
        return np.full(self.param_dim, 1.0 / np.sqrt(self.input_dim))


def make_model(kind: str, input_dim: int, class_count: int = 2, hidden_dim: int = 16, bounded: bool = False) -> SmoothModel:
    if kind == "softmax_linear":
        return SoftmaxLinear(input_dim, class_count, bounded)
    if kind == "mlp":
        return TwoLayerTanhMLP(input_dim, hidden_dim, class_count, bounded)
    if kind == "scalar_logistic":
        return ScalarLogistic(input_dim, bounded)
    raise ValueError(f"unknown model kind {kind!r}")


def batch_grads(model: SmoothModel, w: np.ndarray, deltas, batch):
    """Mean weight gradient and per-sample perturbation gradients for a batch.

    ``deltas`` is a sequence of perturbations matching ``batch``, a sequence
    of labeled samples. Returns ``(mean_grad_w, [grad_delta_j ...])``.
    """
    batch = list(batch)
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    if len(deltas) != len(batch):
        raise DimensionError(f"{len(deltas)} deltas for {len(batch)} samples")
    if not batch:
        raise DimensionError("batch must be nonempty")
    X = np.stack([s.x for s in batch])
    y = np.array([s.y for s in batch], dtype=np.int64)
    D = np.stack(deltas)
    _, mean_gw, Gd = model.batch_loss_and_grads(w, X, y, D)
    return mean_gw, [Gd[i].copy() for i in range(Gd.shape[0])]


def _central_diff(f, v: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(v)
    for i in range(v.size):
        vp = v.copy()
        vm = v.copy()
        vp[i] += h
        vm[i] -= h
        g[i] = (f(vp) - f(vm)) / (2.0 * h)
    return g


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return float(np.linalg.norm(a - b) / denom)


def finite_diff_report(model: SmoothModel, trials: int, h: float, rng: np.random.Generator) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients (in both w and delta) over random configurations.

    ``trials=0`` returns 0 by the empty-max convention.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    worst = 0.0
    for _ in range(int(trials)):
        w = model.init_params(rng) + 0.5 * rng.standard_normal(model.param_dim)
        delta = 0.3 * rng.standard_normal(model.input_dim)
        sample = LabeledSample(x=rng.standard_normal(model.input_dim), y=int(rng.integers(model.class_count)))
        gw = model.grad_w(w, delta, sample)
        gd = model.grad_delta(w, delta, sample)
        fd_w = _central_diff(lambda v: model.loss_value(v, delta, sample), w, h)
        fd_d = _central_diff(lambda v: model.loss_value(w, v, sample), delta, h)
        worst = max(worst, _rel_err(gw, fd_w), _rel_err(gd, fd_d))
    return worst
