"""Small smooth classifiers with hand-written analytic gradients.

Each model maps a flat float64 weight vector ``w`` and a perturbed input
``x + delta`` to class logits; the training loss is softmax cross-entropy.
Activations are C-infinity (tanh hidden units, softmax head), so the loss
is continuously differentiable in ``(w, delta)`` and finite-difference
checks converge cleanly. Model objects are immutable architecture
descriptions; every operation is a pure function of its inputs, except
that a bound pass and an ``AttackOracle`` write into the arrays they own.

The one primitive is each model's ``_bound_pass(w, U)``: its forward and
backward pass, bound to a weight array and an input array (..., B, d). It
returns the logits array and three functions: ``forward(V)`` writes the
logits at ``V`` into it, ``input_grad(G)`` pulls an upstream logits
gradient back to the per-row input gradient, written over ``U``, and
``full_grad(G)`` first writes the total weight gradient into an array of its
own, then the input gradient. Every loss is built on it, which is what lets
simultaneous-update algorithms obtain both gradients from one evaluation
point. ``logits_batch`` and ``loss_batch`` run one forward.
``attack_oracle(X, y, rows)`` binds the plain loss's unchecked oracles, an
``AttackOracle``, once: it owns the weights, the rows and their one-hot
labels, the gradients and the model's views of all of them, so
``point(w, idx)`` re-points it at new weights and rows by copying. Called,
it is the attack-only oracle: an attack step allocates no array of the
batch's size and computes no losses unless asked. ``full(D)`` is the full
oracle; the training steps take both from one binding.
``batch_loss_and_grads`` is the full oracle of a binding made for the one
call, and checks its inputs. The TRADES surrogate's oracle (``trainers``)
binds a second pass for the clean inputs.

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

from .errors import ConfigError, DimensionError, _count, _int64s

__all__ = [
    "LabeledSample",
    "Dataset",
    "SmoothModel",
    "SoftmaxLinear",
    "TwoLayerTanhMLP",
    "ScalarLogistic",
    "AttackOracle",
    "make_model",
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
        y = _int64s(y, "labels")
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

    def _row(self, i) -> int:
        """``i`` as a row index in [0, n), or an ``IndexError``; a bool is no index."""
        if _count(i, "index", 0, IndexError) >= self.n:
            raise IndexError(f"index {i} out of range for dataset of size {self.n}")
        return int(i)

    def sample(self, i: int) -> LabeledSample:
        i = self._row(i)
        return LabeledSample(x=self.X[i].copy(), y=int(self.y[i]))

    def samples(self) -> list[LabeledSample]:
        return [self.sample(i) for i in range(self.n)]

    def replace_sample(self, i: int, s: LabeledSample) -> "Dataset":
        """A copy of the dataset with row ``i`` replaced."""
        i = self._row(i)
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


def _logit_losses(Z: np.ndarray, y: np.ndarray, bounded: bool) -> np.ndarray:
    """Per-row cross-entropy of logits ``Z`` (..., B, C) at labels ``y``
    (..., B), squashed when ``bounded``; a stack is taken as its rows."""
    LS = _log_softmax(Z).reshape(-1, Z.shape[-1])
    raw = -LS[np.arange(y.size), y.reshape(-1)].reshape(y.shape)
    return raw / (1.0 + raw) if bounded else raw


class SmoothModel:
    """Base class: shared loss head, gradient assembly, and conveniences.

    Subclasses set ``kind``, ``input_dim``, ``class_count``, ``param_dim``,
    ``bounded`` and implement ``_bound_pass``, their one forward and
    backward pass, and ``_init_scales``.
    """

    kind: str
    input_dim: int
    class_count: int
    param_dim: int
    hidden_dim: int | None
    bounded: bool

    # -- architecture-specific ------------------------------------------------

    def _bound_pass(self, w: np.ndarray, U: np.ndarray):
        """The forward and backward pass bound to the weight array ``w``
        (..., param_dim) and the input array ``U`` (..., B, d), the same
        leading run shape; the caller owns both and may write new values
        into them. Returns ``(Z, forward, input_grad, full_grad)``:
        ``forward(V)`` writes the logits at ``V`` (``U``'s shape) into ``Z``
        (..., B, C); ``input_grad(G)`` pulls an upstream logits gradient back
        to the per-row input gradients at the last forward's point, written
        over ``U``, and returns them; ``full_grad(G)`` first writes the
        total weight gradient, summed over the rows of each run, into an
        array of its own (..., param_dim), block by block, then the input
        gradient over ``U``, and returns both. Views of ``w`` and of the
        weight gradient are built here, once. Run r of a stack equals the
        unstacked pass on run r bit for bit."""
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
        y = np.atleast_1d(_int64s(y, "labels"))
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

    def _logits(self, w: np.ndarray, U: np.ndarray) -> np.ndarray:
        """The logits at ``U``: one forward of a pass bound for the call."""
        Z, forward, _, _ = self._bound_pass(w, U)
        forward(U)
        return Z

    def logits_batch(self, w: np.ndarray, X: np.ndarray, deltas=None) -> np.ndarray:
        return self._logits(*self._inputs(w, X, deltas))

    def predict_batch(self, w: np.ndarray, X: np.ndarray, deltas=None) -> np.ndarray:
        return self.logits_batch(w, X, deltas).argmax(axis=-1)

    def loss_batch(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas=None) -> np.ndarray:
        """Per-sample loss values, shape (..., B)."""
        w, U = self._inputs(w, X, deltas)
        y = self._check_labels(y, U.shape[:-1])
        return _logit_losses(self._logits(w, U), y, self.bounded)

    def batch_loss_and_grads(self, w: np.ndarray, X: np.ndarray, y: np.ndarray, deltas=None):
        """One shared evaluation yielding losses, mean weight gradient, and
        per-sample perturbation gradients: the full oracle of an
        ``AttackOracle`` bound for the call, after the inputs are checked.
        The training steps take the full oracle of ``lockstep``'s own
        binding instead.

        Returns ``(losses (..., B), mean_grad_w (..., param_dim), grad_delta
        (..., B, d))``; the mean is over the B rows of each run.
        """
        w, U = self._inputs(w, X, deltas)
        y = self._check_labels(y, U.shape[:-1])
        # U + -0.0 is U bit for bit, signed zeros included
        return self.attack_oracle(U, y).point(w).full(-0.0)

    def attack_oracle(self, X: np.ndarray, y: np.ndarray, rows: int | None = None) -> "AttackOracle":
        """The attack-only oracle of this model bound to the rows ``X``,
        ``y``, or to ``rows`` of them at a time (see ``AttackOracle``)."""
        return AttackOracle(self, X, y, rows)


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
        mean_grad_w (..., param_dim), grad_delta (..., B, d))``; on a
        binding made for one call it is ``batch_loss_and_grads``. Both
        gradients are written into arrays the oracle owns, valid until the
        next call."""
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

    def unpack(self, w: np.ndarray):
        C, d = self.class_count, self.input_dim
        return w[..., : C * d].reshape(w.shape[:-1] + (C, d)), w[..., C * d :]

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

    def _bound_pass(self, w, U):
        # the activations, logits, their gradients and the weight gradient
        # allocated once, and the weight views with the transposes and bias
        # rows the passes take
        W1, b1, W2, b2 = self.unpack(w)
        W1T, b1, W2T, b2 = W1.swapaxes(-1, -2), b1[..., None, :], W2.swapaxes(-1, -2), b2[..., None, :]
        lead = U.shape[:-1]
        H, A = np.empty(lead + (self.hidden_dim,)), np.empty(lead + (self.hidden_dim,))
        Z, gw = np.empty(lead + (self.class_count,)), np.empty(w.shape)
        gW1, gb1, gW2, gb2 = self.unpack(gw)

        def forward(V):
            # tanh(V @ W1^T + b1) @ W2^T + b2, in that operand order
            np.tanh(np.add(np.matmul(V, W1T, out=H), b1, out=H), out=H)
            np.add(np.matmul(H, W2T, out=Z), b2, out=Z)

        def hidden_grad(G):
            # (G @ W2) * tanh' at the hidden pre-activations, into A; the
            # pass is done with H, and tanh' is written over it
            d = np.subtract(1.0, np.multiply(H, H, out=H), out=H)
            return np.multiply(np.matmul(G, W2, out=A), d, out=A)

        def full_grad(G):
            # G^T H before tanh' is written over H, gA^T U before gA W1 over U
            np.matmul(G.swapaxes(-1, -2), H, out=gW2)
            np.add.reduce(G, axis=-2, out=gb2)
            gA = hidden_grad(G)
            np.matmul(gA.swapaxes(-1, -2), U, out=gW1)
            np.add.reduce(gA, axis=-2, out=gb1)
            return gw, np.matmul(gA, W1, out=U)

        return Z, forward, lambda G: np.matmul(hidden_grad(G), W1, out=U), full_grad

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
        X, y = rng.standard_normal(model.input_dim)[None], [int(rng.integers(model.class_count))]
        _, gw, gd = model.batch_loss_and_grads(w, X, y, delta[None])
        fd_w = _central_diff(lambda v: float(model.loss_batch(v, X, y, delta[None])[0]), w, h)
        fd_d = _central_diff(lambda v: float(model.loss_batch(w, X, y, v[None])[0]), delta, h)
        worst = max(worst, _rel_err(gw, fd_w), _rel_err(gd[0], fd_d))
    return worst
