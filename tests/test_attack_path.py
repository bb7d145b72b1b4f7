"""The lean attack path against reference copies of the code it replaced.

The attack-only oracle, the TRADES attack objective and the one-norm
ascent step do the same arithmetic as the full-gradient code they replace,
only less of it, so every comparison here is exact (``np.array_equal``),
not up to a tolerance.
"""

import numpy as np
import pytest

from advstab.models import ScalarLogistic, SoftmaxLinear, TwoLayerTanhMLP, _log_softmax
from advstab.rng import sample_uniform_l2_ball, stream
from advstab.threat import PerturbationSet, ascend_rows
from advstab.trainers import _trades_attack_objective, trades_batch_loss_and_grads

# -- reference copies -----------------------------------------------------------


def _ref_logits_and_vjp(model, w, U):
    """Forward pass and full VJP, as each model computed them before the
    VJP could skip the weight gradient."""
    if model.kind == "softmax_linear":
        W, b = model.unpack(w)
        Z = U @ W.T + b

        def vjp(G):
            return np.concatenate([(G.T @ U).ravel(), G.sum(axis=0)]), G @ W

        return Z, vjp
    if model.kind == "mlp":
        W1, b1, W2, b2 = model.unpack(w)
        H = np.tanh(U @ W1.T + b1)
        Z = H @ W2.T + b2

        def vjp(G):
            gW2 = G.T @ H
            gb2 = G.sum(axis=0)
            gH = G @ W2
            gA = gH * (1.0 - H * H)
            gW1 = gA.T @ U
            gb1 = gA.sum(axis=0)
            gU = gA @ W1
            return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2]), gU

        return Z, vjp
    z = U @ w

    def vjp(G):
        g1 = G[:, 1]
        return g1 @ U, np.outer(g1, w)

    return np.stack([np.zeros_like(z), z], axis=1), vjp


def _ref_loss_and_grads(model, w, X, y, D):
    """The full oracle: losses, mean weight gradient, perturbation gradients."""
    Z, vjp = _ref_logits_and_vjp(model, w, X + D)
    B = Z.shape[0]
    LS = _log_softmax(Z)
    raw = -LS[np.arange(B), y]
    G = np.exp(LS)
    G[np.arange(B), y] -= 1.0
    if model.bounded:
        losses = raw / (1.0 + raw)
        G *= (1.0 / (1.0 + raw) ** 2)[:, None]
    else:
        losses = raw
    gw_total, gU = vjp(G)
    return losses, gw_total / B, gU


def _ref_trades(model, w, X, y, D, lam):
    """The TRADES surrogate with both passes and both weight VJPs."""
    B = X.shape[0]
    Zc, vjp_c = _ref_logits_and_vjp(model, w, X)
    Za, vjp_a = _ref_logits_and_vjp(model, w, X + D)
    lp = _log_softmax(Zc)
    lq = _log_softmax(Za)
    p = np.exp(lp)
    q = np.exp(lq)
    ce = -lp[np.arange(B), y]
    kl = (p * (lp - lq)).sum(axis=1)
    raw = ce + kl / lam
    Gc = p.copy()
    Gc[np.arange(B), y] -= 1.0
    diff = lp - lq
    jac = p * (diff - (p * diff).sum(axis=1, keepdims=True))
    Gc += jac / lam
    Ga = (q - p) / lam
    if model.bounded:
        losses = raw / (1.0 + raw)
        scale = (1.0 / (1.0 + raw) ** 2)[:, None]
        Gc = Gc * scale
        Ga = Ga * scale
    else:
        losses = raw
    gw_c, _ = vjp_c(Gc)
    gw_a, gU_a = vjp_a(Ga)
    return losses, (gw_c + gw_a) / B, gU_a


def _ref_ascend(D, Gd, step, pset):
    """The masked projected-ascent step: zero-gradient rows stay put."""
    live = np.linalg.norm(Gd, axis=1) > 0.0
    if not live.any():
        return D
    G = Gd[live]
    if pset.norm == "l2":
        extreme = pset.radius * G / np.linalg.norm(G, axis=1, keepdims=True)
    else:
        extreme = np.where(G >= 0.0, pset.radius, -pset.radius)
    stepped = D[live] + step * extreme
    if pset.norm == "l2":
        norms = np.linalg.norm(stepped, axis=1, keepdims=True)
        scale = np.ones_like(norms)
        over = norms[:, 0] > pset.radius
        scale[over] = pset.radius / norms[over]
        projected = stepped * scale
    else:
        projected = np.clip(stepped, -pset.radius, pset.radius)
    out = D.copy()
    out[live] = projected
    return out


# -- oracles --------------------------------------------------------------------

MODELS = [
    lambda bounded: SoftmaxLinear(input_dim=6, class_count=3, bounded=bounded),
    lambda bounded: TwoLayerTanhMLP(input_dim=6, hidden_dim=5, class_count=3, bounded=bounded),
    lambda bounded: ScalarLogistic(input_dim=6, bounded=bounded),
]


def _batches(model, seed, B=9):
    """Random evaluation points at small and large weight scales, so both
    smooth and saturated softmax heads are exercised."""
    rng = stream(seed, 0)
    for scale in (0.5, 8.0):
        w = model.init_params(rng) + scale * rng.standard_normal(model.param_dim)
        X = rng.standard_normal((B, model.input_dim))
        y = rng.integers(model.class_count, size=B)
        D = 0.4 * rng.standard_normal((B, model.input_dim))
        yield w, X, y, D


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("make", MODELS)
def test_attack_only_oracle_equals_full_oracle_bit_for_bit(make, bounded):
    model = make(bounded)
    for w, X, y, D in _batches(model, 300):
        ref_losses, ref_gw, ref_gd = _ref_loss_and_grads(model, w, X, y, D)
        losses, gd = model.attack_loss_and_grad(w, X, y, D)
        assert np.array_equal(losses, ref_losses) and np.array_equal(gd, ref_gd)
        full = model.batch_loss_and_grads(w, X, y, D)
        for got, want in zip(full, (ref_losses, ref_gw, ref_gd)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("make", MODELS)
def test_trades_attack_objective_equals_full_surrogate_bit_for_bit(make, bounded):
    model = make(bounded)
    for lam in (0.7, 3.0):
        for w, X, y, D in _batches(model, 301):
            ref_losses, ref_gw, ref_gd = _ref_trades(model, w, X, y, D, lam)
            objective = _trades_attack_objective(model, w, X, y, lam)
            for D_k in (D, 0.5 * D, D):  # the hoisted clean pass serves every call
                want = _ref_trades(model, w, X, y, D_k, lam)
                losses, gd = objective(D_k)
                assert np.array_equal(losses, want[0]) and np.array_equal(gd, want[2])
            full = trades_batch_loss_and_grads(model, w, X, y, D, lam)
            for got, want in zip(full, (ref_losses, ref_gw, ref_gd)):
                assert np.array_equal(got, want)


# -- ascent step ----------------------------------------------------------------


@pytest.mark.parametrize("radius", [0.7, 0.0])
@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_ascend_rows_equals_masked_step_bit_for_bit(norm, radius):
    pset = PerturbationSet(norm, radius, 4)
    rng = stream(302, 0)
    for trial in range(30):
        D = pset.sample_uniform(rng, size=8)
        G = rng.standard_normal((8, 4)) * 10.0 ** rng.uniform(-6, 3, size=(8, 1))
        if trial % 3 == 1:
            G[rng.random(8) < 0.4] = 0.0  # some rows exactly zero
        elif trial % 3 == 2:
            G[rng.random((8, 4)) < 0.5] = 0.0  # zero entries, mostly in live rows
        for rate in (0.05, 0.7, 3.0):
            assert np.array_equal(ascend_rows(D, G, rate, pset), _ref_ascend(D, G, rate, pset))


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_ascend_rows_zero_gradient_and_zero_rate_return_unchanged_copies(norm):
    pset = PerturbationSet(norm, 0.7, 4)
    D = pset.sample_uniform(stream(303, 0), size=5)
    G = stream(303, 1).standard_normal((5, 4))
    for out in (ascend_rows(D, np.zeros_like(G), 0.5, pset), ascend_rows(D, G, 0.0, pset)):
        assert np.array_equal(out, D) and out is not D
    out = ascend_rows(D, G, 0.5, pset)
    assert not np.array_equal(out, D)


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_ascend_rows_writes_to_neither_input(norm):
    pset = PerturbationSet(norm, 0.7, 4)
    rng = stream(304, 0)
    start = pset.sample_uniform(rng, size=6)
    D = np.broadcast_to(start, (3, 6, 4))  # a read-only view, as in a shared attack start
    G = rng.standard_normal((3, 6, 4))
    G[1, 2] = 0.0  # the masked path too
    for g in (G, G[0]):
        d = D if g.ndim == 3 else start
        d_before, g_before = d.copy(), g.copy()
        for rate in (0.0, 0.5):
            out = ascend_rows(d, g, rate, pset)
            assert not np.shares_memory(out, d) and not np.shares_memory(out, g)
        assert np.array_equal(d, d_before) and np.array_equal(g, g_before)


def _ref_l2_ball(rng, dim, radius, size):
    """The L2 ball draw as it was computed through ``np.linalg.norm``."""
    n = 1 if size is None else int(size)
    g = rng.standard_normal((n, dim))
    u = rng.random((n, 1))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    out = (g / norms) * (radius * u ** (1.0 / dim))
    return out[0] if size is None else out


@pytest.mark.parametrize("dim", [1, 3, 20])
def test_ball_draws_equal_the_linalg_norm_reference(dim):
    for radius in (0.0, 0.5, 3.0):
        pset = PerturbationSet("l2", radius, dim)
        for size in (None, 1, 7):
            for draw in (lambda rng: sample_uniform_l2_ball(rng, dim, radius, size), lambda rng: pset.sample_uniform(rng, size)):
                got, want = stream(305, dim, size or 0), stream(305, dim, size or 0)
                for _ in range(3):
                    assert np.array_equal(draw(got), _ref_l2_ball(want, dim, radius, size))
                assert got.random() == want.random()  # the same draws were consumed
