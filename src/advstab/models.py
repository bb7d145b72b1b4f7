"""Small smooth classifiers with hand-written analytic gradients.

Each model maps a flat float64 weight vector ``w`` and a perturbed input
``x + delta`` to class logits; the training loss is softmax cross-entropy.
Activations are C-infinity (tanh hidden units, softmax head), so the loss
is continuously differentiable in ``(w, delta)`` and finite-difference
checks converge cleanly. Model objects are immutable architecture
descriptions; every operation is a pure function of its inputs, except
that an ``AttackOracle`` writes into the arrays it owns.

The core primitive is ``logits_and_vjp``: a batched forward pass returning
the logits plus a closure that pulls an upstream logits gradient back to
(total weight gradient, per-row input gradient). All loss variants (plain
adversarial loss, bounded squashed loss, the consistency surrogate in
``trainers``) are built on it, which is what lets simultaneous-update
algorithms obtain both gradients from one evaluation point. An attack needs
only the input gradient, so the closure can skip the weight gradient.
``attack_oracle(X, y, rows)`` binds the plain loss's unchecked oracles, an
``AttackOracle``, once: it owns the weights, the rows and their one-hot
labels, the gradients and the model's views of all of them, so
``point(w, idx)`` re-points it at new weights and rows by copying. Called,
it is the attack-only oracle: an attack step allocates no array of the
batch's size and computes no losses unless asked. ``full(D)`` is the full
oracle, whose backward step writes the weight gradient block by block into
the array it owns; the training steps take both from one binding.
``batch_loss_and_grads`` is the direct full oracle and checks its inputs
unless told ``checked=False``.

Run axis. Every batched operation also accepts a leading run axis: weights
of shape (..., param_dim) and inputs of shape (..., B, d) with the same
leading shape, and labels of shape (..., B). One NumPy call then advances
R same-shape runs, and run r of the stack equals that run alone bit for
bit: the matrix products are taken per run, and every reduction runs along
the same axis as in the unstacked case. Without a run axis the operations
are exactly the single-run ones.

An optional bounded-loss mode squashes the cross-entropy through
``u -> u / (1 + u)`` so loss values lie in [0, 1]; the squashing is smooth
and its chain rule is applied analytically. Off by default; turn it on for
stability-bound experiments that need the boundedness hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

__all__ = [
    "LabeledSample",
    "Dataset",
    "SmoothModel",
    "SoftmaxLinear",
    "TwoLayerTanhMLP",
    "ScalarLogistic",
    "AttackOracle",
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


def _log_softmax(Z: np.ndarray, out=None) -> np.ndarray:
    """Log-softmax over the last axis, into ``out`` when given: the arrays
    of ``_log_softmax_arrays(Z, E)``, written over on every call."""
    LS, E, m, cols = out or (None, None, None, None)
    if Z.shape[-1] == 2:
        # by columns: a max rounds nothing and a sum of two terms rounds once
        # in any order, so these are the bits of the reductions below
        z0, z1, e0, e1 = cols or (Z[..., :1], Z[..., 1:], None, None)
        m = np.maximum(z0, z1, out=m)
        LS = np.subtract(Z, m, out=LS)
        E = np.exp(LS, out=E)
        if cols is None:
            e0, e1 = E[..., :1], E[..., 1:]
        t = np.add(e0, e1, out=m)
    else:
        # the ufunc reductions are what Z.max and .sum call, minus their dispatch
        m = np.maximum.reduce(Z, axis=-1, keepdims=True, out=m)
        LS = np.subtract(Z, m, out=LS)
        t = np.add.reduce(np.exp(LS, out=E), axis=-1, keepdims=True, out=m)
    return np.subtract(LS, np.log(t, out=t), out=LS)


def _log_softmax_arrays(Z: np.ndarray, E: np.ndarray):
    """``out`` for ``_log_softmax`` of the logits array ``Z``: the result,
    the exponentials (``E``, scratch), the row max and sum, and for two
    classes the column views of ``Z`` and ``E``, built once."""
    cols = (Z[..., :1], Z[..., 1:], E[..., :1], E[..., 1:]) if Z.shape[-1] == 2 else None
    return np.empty(Z.shape), E, np.empty(Z.shape[:-1] + (1,)), cols


def _label_rows(A: np.ndarray, y: np.ndarray):
    """``A`` as rows (N, C) and the index of each row's label entry. A
    stack (..., B, C) is flattened, to a view of ``A`` when it is
    contiguous."""
    if A.ndim > 2:
        A = A.reshape(-1, A.shape[-1])
    y = y.reshape(-1)
    return A, (np.arange(y.size), y)


def _logit_losses(Z: np.ndarray, y: np.ndarray, bounded: bool) -> np.ndarray:
    """Per-row cross-entropy of logits ``Z`` (..., B, C) at labels ``y``
    (..., B), squashed when ``bounded``."""
    LS, at = _label_rows(_log_softmax(Z), y)
    raw = -LS[at]
    if Z.ndim > 2:
        raw = raw.reshape(y.shape)
    return raw / (1.0 + raw) if bounded else raw


def _softmax_head(Z: np.ndarray, y: np.ndarray, bounded: bool):
    """Per-row cross-entropy of logits ``Z`` (squashed when ``bounded``) and
    its gradient with respect to ``Z``, computed on the flattened rows.
    Returns ``(losses (..., B), G (..., B, C))``."""
    LS, at = _label_rows(_log_softmax(Z), y)
    raw = -LS[at]
    G = np.exp(LS)
    G[at] -= 1.0
    if bounded:
        G *= (1.0 / (1.0 + raw) ** 2)[:, None]
        raw = raw / (1.0 + raw)
    if Z.ndim > 2:
        return raw.reshape(y.shape), G.reshape(Z.shape)
    return raw, G


class SmoothModel:
    """Base class: shared loss head, gradient assembly, and conveniences.

    Subclasses set ``kind``, ``input_dim``, ``class_count``, ``param_dim``,
    ``bounded`` and implement ``logits_and_vjp``, ``_init_scales`` and, to
    be attacked, ``_bound_pass``.
    """

    kind: str
    input_dim: int
    class_count: int
    param_dim: int
    hidden_dim: int | None
    bounded: bool

    # -- architecture-specific ------------------------------------------------

    def logits_and_vjp(self, w: np.ndarray, U: np.ndarray):
        """Forward pass on perturbed inputs ``U`` of shape (..., B, d) with
        weights ``w`` of shape (..., param_dim), the same leading run shape.

        Returns ``(Z, vjp)`` where ``Z`` is (..., B, C) and ``vjp(G)`` maps an
        upstream (..., B, C) logits gradient to ``(grad_w_total, grad_U)``
        with shapes (..., param_dim) and (..., B, d). ``grad_w_total`` sums
        over the rows of each run; rows of ``grad_U`` are independent
        per-sample input gradients. ``vjp(G, weights=False)`` skips the
        weight gradient and returns ``(None, grad_U)`` with the same
        ``grad_U``. Run r of a stack equals the unstacked call on run r bit
        for bit.
        """
        raise NotImplementedError

    def _init_scales(self) -> np.ndarray:
        """Per-coordinate init stddev (1/sqrt(fan_in) for weights, 0 for biases)."""
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------------

    def _check_w(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.ndim < 1 or w.shape[-1] != self.param_dim:
            raise DimensionError(f"weight vector must have shape (..., {self.param_dim}), got {w.shape}")
        return w

    def _check_labels(self, y, shape: tuple) -> np.ndarray:
        """Integer labels of the given shape (the inputs' shape minus the
        feature axis), each in ``[0, class_count)``."""
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        if y.shape != shape:
            raise DimensionError("labels and inputs disagree on batch size")
        if (y < 0).any() or (y >= self.class_count).any():
            raise ValueError("label out of range")
        return y

    def _perturbed(self, X: np.ndarray, deltas) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[-1] != self.input_dim:
            raise DimensionError(f"inputs must have dimension {self.input_dim}, got {X.shape[-1]}")
        if deltas is None:
            return X
        D = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
        if D.shape != X.shape:
            raise DimensionError(f"deltas shape {D.shape} does not match inputs {X.shape}")
        return X + D

    def _inputs(self, w, X, deltas):
        """Checked weights and perturbed inputs, agreeing on the run axis."""
        w = self._check_w(w)
        U = self._perturbed(X, deltas)
        if w.shape[:-1] != U.shape[:-2]:
            raise DimensionError(f"weights {w.shape} and inputs {U.shape} disagree on the run axis")
        return w, U

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
        w, U = self._inputs(w, X, deltas)
        Z, _ = self.logits_and_vjp(w, U)
        return Z

    def predict_batch(self, w: np.ndarray, X: np.ndarray, deltas=None) -> np.ndarray:
        return self.logits_batch(w, X, deltas).argmax(axis=-1)

    def loss_batch(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas=None) -> np.ndarray:
        """Per-sample loss values, shape (..., B)."""
        w, U = self._inputs(w, X, deltas)
        y = self._check_labels(y, U.shape[:-1])
        Z, _ = self.logits_and_vjp(w, U)
        return _logit_losses(Z, y, self.bounded)

    def batch_loss_and_grads(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas=None, *, checked: bool = True):
        """One shared evaluation yielding losses, mean weight gradient, and
        per-sample perturbation gradients.

        Returns ``(losses (..., B), mean_grad_w (..., param_dim), grad_delta
        (..., B, d))``; the mean is over the B rows of each run.

        ``checked=False`` skips the input checks: ``w``, ``X`` and
        ``deltas`` (or None) must then be float64 arrays agreeing on the run
        axis and ``y`` in-range int64 labels of the inputs' shape. The
        training steps pass it, since ``trainers.lockstep`` validated their
        inputs on entry.
        """
        if checked:
            w, X = self._inputs(w, X, deltas)
            y = self._check_labels(y, X.shape[:-1])
        elif deltas is not None:
            X = X + deltas
        Z, vjp = self.logits_and_vjp(w, X)
        losses, G = _softmax_head(Z, y, self.bounded)
        gw_total, gU = vjp(G)
        return losses, gw_total / Z.shape[-2], gU

    def attack_oracle(self, X: np.ndarray, y: np.ndarray, rows: int | None = None) -> "AttackOracle":
        """The attack-only oracle of this model bound to the rows ``X``,
        ``y``, or to ``rows`` of them at a time (see ``AttackOracle``)."""
        return AttackOracle(self, X, y, rows)

    def _bound_pass(self, w: np.ndarray, U: np.ndarray):
        """``logits_and_vjp`` bound to the weight array ``w`` and the input
        array ``U`` (..., B, d), for ``AttackOracle``, which owns both and
        writes new values into them. Returns ``(Z, forward, input_grad,
        full_grad)``: ``forward(V)`` writes the logits at ``V`` (``U``'s
        shape) into ``Z``; ``input_grad(G)`` writes the input gradient at
        the last forward's point over ``U`` and returns it; ``full_grad(G)``
        first writes the total weight gradient into an array of its own
        (..., param_dim), block by block, then the input gradient over
        ``U``, and returns both. Views of ``w`` and of the weight gradient
        are built here, once."""
        raise NotImplementedError

    # -- single-sample operations --------------------------------------------

    def loss_value(self, w: np.ndarray, delta: np.ndarray, sample: LabeledSample) -> float:
        return float(self.loss_batch(w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :])[0])

    def grad_w(self, w: np.ndarray, delta: np.ndarray, sample: LabeledSample) -> np.ndarray:
        _, gw, _ = self.batch_loss_and_grads(w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :])
        return gw

    def grad_delta(self, w: np.ndarray, delta: np.ndarray, sample: LabeledSample) -> np.ndarray:
        _, _, gd = self.batch_loss_and_grads(w, sample.x[None, :], [sample.y], np.asarray(delta)[None, :])
        return gd[0]


class AttackOracle:
    """The gradient oracles of a model, bound once and re-pointed by copying.

    ``oracle(D, losses=True) -> (losses (..., B), grad_delta (..., B, d))``
    at ``X + D`` is the attack-only oracle: the first and last outputs of
    ``batch_loss_and_grads`` bit for bit, without the weight gradient. An
    attack step passes ``losses=False`` and gets ``(None, grad_delta)``:
    the losses are computed only for the bounded rescale. ``full(D)`` is
    the full oracle, all three outputs. Every call writes into arrays the
    oracle owns, so the gradients are valid until the next call; the
    losses, when asked for, are an array of their own.

    Bound to ``X`` (..., n, d) and ``y`` (..., n) with ``rows=None``, the
    oracle attacks those rows; ``point(w)`` sets its weights. With
    ``rows=b`` it owns b rows, their labels and their one-hot labels,
    taken from the pool ``X``, ``y`` by ``point(w, idx)`` (idx (b,) in
    ``[0, n)``), and ``X`` and ``y`` are its own copies. Nothing is
    checked: the inputs are float64 arrays and in-range int64 labels with
    the same leading run shape as ``w`` (..., param_dim), and ``D`` may be
    a broadcast view. ``point`` returns the oracle.
    """

    def __init__(self, model: SmoothModel, X: np.ndarray, y: np.ndarray, rows: int | None = None):
        lead, C = X.shape[:-2], model.class_count
        onehot = (y[..., None] == np.arange(C)) * 1.0
        if rows is None:
            self._pool = None
            self.X, self.y, self.onehot = X, y, onehot
        else:
            self._pool = X, y, onehot
            self.X = np.empty(lead + (rows, X.shape[-1]))
            self.y = np.empty(lead + (rows,), dtype=np.int64)
            self.onehot = np.empty(lead + (rows, C))
        self.bounded = model.bounded
        self.w = np.empty(lead + (model.param_dim,))
        self._U = np.empty(self.X.shape)
        self._Z, self._forward, self._input_grad, self._full_grad = model._bound_pass(self.w, self._U)
        self._G = np.empty(self._Z.shape)
        self._ls = _log_softmax_arrays(self._Z, self._G)
        # each row's label entry in the flattened logits, and the losses
        self._label_starts = np.arange(self.y.size) * C
        self._at = np.empty(self.y.size, dtype=np.intp)
        self._raw, self._scale = np.empty(self.y.shape + (1,)), np.empty(self.y.shape + (1,))
        if rows is None:
            self._locate_labels()

    def _locate_labels(self):
        np.add(self._label_starts, self.y.reshape(-1), out=self._at)

    def point(self, w: np.ndarray, idx: np.ndarray | None = None) -> "AttackOracle":
        np.copyto(self.w, w)
        if idx is not None:
            X, y, onehot = self._pool
            # clip, not raise: the indices are in range, and raise buffers ``out``
            np.take(X, idx, axis=-2, out=self.X, mode="clip")
            np.take(y, idx, axis=-1, out=self.y, mode="clip")
            np.take(onehot, idx, axis=-2, out=self.onehot, mode="clip")
            self._locate_labels()
        return self

    def _label_losses(self, LS: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``-LS`` at each row's label, ``out`` (..., B, 1)."""
        np.take(LS.reshape(-1), self._at, out=out.reshape(-1), mode="clip")
        return np.negative(out, out=out)

    def _head(self, losses: bool):
        """The logits gradient in ``_G``, and the unsquashed losses (..., B, 1)
        when ``losses``, else None."""
        LS = _log_softmax(self._Z, self._ls)
        raw = self._label_losses(LS, self._raw) if losses else None
        G = np.exp(LS, out=self._G)
        # the one-hot subtracts 1.0 at the label and 0.0, exactly, elsewhere
        return np.subtract(G, self.onehot, out=G), raw

    def _evaluate(self, D: np.ndarray, losses: bool):
        """The forward pass at ``X + D`` and the head: the losses (None
        unless asked) and the logits gradient, rescaled when bounded."""
        self._forward(np.add(self.X, D, out=self._U))
        G, raw = self._head(losses or self.bounded)
        if self.bounded:
            s = np.add(1.0, raw, out=self._scale)
            np.divide(1.0, np.multiply(s, s, out=s), out=s)
            np.multiply(G, s, out=G)
            values = (raw / (1.0 + raw))[..., 0] if losses else None
        else:
            values = raw[..., 0].copy() if losses else None
        return values, G

    def __call__(self, D: np.ndarray, losses: bool = True):
        values, G = self._evaluate(D, losses)
        return values, self._input_grad(G)

    def full(self, D: np.ndarray):
        """The full oracle of the plain loss at ``X + D``: ``(losses (..., B),
        mean_grad_w (..., param_dim), grad_delta (..., B, d))``, equal to
        ``batch_loss_and_grads`` bit for bit. Both gradients are written
        into arrays the oracle owns, valid until the next call."""
        values, G = self._evaluate(D, True)
        gw, gU = self._full_grad(G)
        return values, np.divide(gw, G.shape[-2], out=gw), gU


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
        return w[..., : C * d].reshape(w.shape[:-1] + (C, d)), w[..., C * d :]

    def logits_and_vjp(self, w, U):
        W, b = self.unpack(w)
        Z = U @ W.swapaxes(-1, -2) + b[..., None, :]

        def vjp(G, weights=True):
            gU = G @ W
            if not weights:
                return None, gU
            gW = (G.swapaxes(-1, -2) @ U).reshape(G.shape[:-2] + (-1,))
            return np.concatenate([gW, G.sum(axis=-2)], axis=-1), gU

        return Z, vjp

    def _bound_pass(self, w, U):
        W, b = self.unpack(w)
        WT, b = W.swapaxes(-1, -2), b[..., None, :]
        Z, gw = np.empty(U.shape[:-1] + (self.class_count,)), np.empty(w.shape)
        gW, gb = self.unpack(gw)

        def forward(V):
            np.add(np.matmul(V, WT, out=Z), b, out=Z)

        def full_grad(G):
            np.matmul(G.swapaxes(-1, -2), U, out=gW)  # before U holds the input gradient
            np.add.reduce(G, axis=-2, out=gb)
            return gw, np.matmul(G, W, out=U)

        return Z, forward, lambda G: np.matmul(G, W, out=U), full_grad

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
        lead = w.shape[:-1]
        i = 0
        W1 = w[..., i : i + h * d].reshape(lead + (h, d))
        i += h * d
        b1 = w[..., i : i + h]
        i += h
        W2 = w[..., i : i + C * h].reshape(lead + (C, h))
        i += C * h
        b2 = w[..., i : i + C]
        return W1, b1, W2, b2

    def _views(self, w: np.ndarray):
        """The unpacked weights with the transposes and bias rows the passes
        take: ``(W1, W1^T, b1 row, W2, W2^T, b2 row)``, views of ``w``."""
        W1, b1, W2, b2 = self.unpack(w)
        return W1, W1.swapaxes(-1, -2), b1[..., None, :], W2, W2.swapaxes(-1, -2), b2[..., None, :]

    def logits_and_vjp(self, w, U):
        views = self._views(w)
        H, Z = _mlp_forward(views, U)

        def vjp(G, weights=True):
            gA = _mlp_hidden_grad(views, G, H)
            gU = gA @ views[0]
            if not weights:
                return None, gU
            lead = G.shape[:-2] + (-1,)
            gw = [
                (gA.swapaxes(-1, -2) @ U).reshape(lead),
                gA.sum(axis=-2),
                (G.swapaxes(-1, -2) @ H).reshape(lead),
                G.sum(axis=-2),
            ]
            return np.concatenate(gw, axis=-1), gU

        return Z, vjp

    def _bound_pass(self, w, U):
        # the activations, logits, their gradients and the weight gradient allocated once
        views, lead = self._views(w), U.shape[:-1]
        H, Z, A = np.empty(lead + (self.hidden_dim,)), np.empty(lead + (self.class_count,)), np.empty(lead + (self.hidden_dim,))
        W1, gw = views[0], np.empty(w.shape)
        gW1, gb1, gW2, gb2 = self.unpack(gw)

        def forward(V):
            _mlp_forward(views, V, H, Z)

        def input_grad(G):
            return np.matmul(_mlp_hidden_grad(views, G, H, A), W1, out=U)

        def full_grad(G):
            # G^T H before tanh' is written over H, gA^T U before gA W1 over U
            np.matmul(G.swapaxes(-1, -2), H, out=gW2)
            np.add.reduce(G, axis=-2, out=gb2)
            gA = _mlp_hidden_grad(views, G, H, A)
            np.matmul(gA.swapaxes(-1, -2), U, out=gW1)
            np.add.reduce(gA, axis=-2, out=gb1)
            return gw, np.matmul(gA, W1, out=U)

        return Z, forward, input_grad, full_grad

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
        z = (U @ w[..., None])[..., 0]
        Z = np.stack([np.zeros_like(z), z], axis=-1)

        def vjp(G, weights=True):
            g1 = G[..., 1]
            gU = g1[..., None] * w[..., None, :]  # the outer product per run
            return ((g1[..., None, :] @ U)[..., 0, :] if weights else None), gU

        return Z, vjp

    def _bound_pass(self, w, U):
        lead = U.shape[:-1]
        Z, z, gw = np.zeros(lead + (2,)), np.empty(lead + (1,)), np.empty(w.shape)
        z1, w_col, w_row, gw_row = Z[..., 1:], w[..., None], w[..., None, :], gw[..., None, :]

        def forward(V):
            np.copyto(z1, np.matmul(V, w_col, out=z))

        def input_grad(G):
            return np.multiply(G[..., 1:], w_row, out=U)

        def full_grad(G):
            np.matmul(G[..., 1][..., None, :], U, out=gw_row)  # before U holds the input gradient
            return gw, input_grad(G)

        return Z, forward, input_grad, full_grad

    def _init_scales(self):
        return np.full(self.param_dim, 1.0 / np.sqrt(self.input_dim))


def _mlp_forward(views, U, H=None, Z=None):
    """Hidden activations and logits of the tanh MLP at ``U``, written into
    ``H`` and ``Z`` when given, in the operand order of
    ``tanh(U @ W1^T + b1) @ W2^T + b2``: the same bits either way."""
    _, W1T, b1, _, W2T, b2 = views
    H = np.matmul(U, W1T, out=H)
    H += b1
    np.tanh(H, out=H)
    Z = np.matmul(H, W2T, out=Z)
    Z += b2
    return H, Z


def _mlp_hidden_grad(views, G, H, A=None):
    """The gradient at the hidden pre-activations, ``(G @ W2) * tanh'``.
    With ``A`` the pass is done with ``H``: tanh' is written over it and the
    gradient into ``A``."""
    W2 = views[3]
    d = np.multiply(H, H, out=None if A is None else H)
    np.subtract(1.0, d, out=d)  # tanh'
    gA = np.matmul(G, W2, out=A)
    gA *= d
    return gA


def make_model(kind: str, input_dim: int, class_count: int = 2, hidden_dim: int = 16, bounded: bool = False) -> SmoothModel:
    if kind == "softmax_linear":
        return SoftmaxLinear(input_dim, class_count, bounded)
    if kind == "mlp":
        return TwoLayerTanhMLP(input_dim, hidden_dim, class_count, bounded)
    if kind == "scalar_logistic":
        if class_count != 2:
            raise ConfigError(f"scalar_logistic has 2 classes, got class_count={class_count}")
        return ScalarLogistic(input_dim, bounded)
    raise ConfigError(f"unknown model kind {kind!r}")


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
