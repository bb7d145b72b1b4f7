"""The lean attack path against reference copies of the code it replaced.

The bound attack-only and full oracles (plain and TRADES, fresh or
re-pointed), the one-norm ascent step, the in-place attack loop and the
two-class log-softmax do the same arithmetic as the code they replace,
only less of it or into arrays they own, so every comparison here is
exact (``np.array_equal``), not up to a tolerance.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from advstab.models import ScalarLogistic, SoftmaxLinear, TwoLayerTanhMLP, _log_softmax
from advstab.rng import sample_uniform_l2_ball, stream
from advstab.threat import AttackConfig, PerturbationSet, _ascend_in_place, ascend_rows, pgd_attack_batch, project_rows
from advstab.trainers import _bind_attack, trades_batch_loss_and_grads

# -- reference copies -----------------------------------------------------------


def _ref_log_softmax(Z):
    """The log-softmax by reductions over the class axis, for any class count."""
    s = Z - np.maximum.reduce(Z, axis=-1, keepdims=True)
    return s - np.log(np.add.reduce(np.exp(s), axis=-1, keepdims=True))


def _ref_logits_and_vjp(model, w, U):
    """Forward pass and full VJP, as each model computed them before its
    pass was bound to arrays of its own."""
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
    LS = _ref_log_softmax(Z)
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
    lp = _ref_log_softmax(Zc)
    lq = _ref_log_softmax(Za)
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


def _per_run(fn, *arrays):
    """``fn`` on one run, applied run by run when the last array is a stack
    (R, B, d), and restacked."""
    if arrays[-1].ndim == 2:
        return fn(*arrays)
    outs = [fn(*run) for run in zip(*arrays)]
    return tuple(np.stack(parts) for parts in zip(*outs)) if isinstance(outs[0], tuple) else np.stack(outs)


def _ref_pgd(model, w, X, y, pset, cfg, rng, loss_grad_fn=None):
    """The attack loop as it ran before it stepped in place: a new iterate
    per step from the masked ascent step, over the full reference oracle."""
    if loss_grad_fn is None:

        def loss_grad_fn(D):
            losses, _, Gd = _per_run(lambda *run: _ref_loss_and_grads(model, *run), w, X, y, D)
            return losses, Gd

    step = cfg.resolved_step(pset)
    best_delta = None
    best_loss = None
    for _ in range(cfg.restarts):
        if cfg.init == "zero":
            D = np.zeros(X.shape)
        else:
            D = pset.sample_uniform(rng, size=X.shape[-2])
            if D.shape != X.shape:  # one start shared by every run
                D = np.broadcast_to(D, X.shape)
        for _ in range(cfg.steps):
            G = loss_grad_fn(D)[1]
            D = _per_run(lambda d, g: _ref_ascend(d, g, step, pset), np.broadcast_to(D, X.shape), G)
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
        losses, _, gd = model.batch_loss_and_grads(w, X, y, D)
        assert np.array_equal(losses, ref_losses) and np.array_equal(gd, ref_gd)
        oracle = model.attack_oracle(X, y).point(w)
        for D_k in (D, 0.5 * D, D):  # the bound arrays serve every call
            want = _ref_loss_and_grads(model, w, X, y, D_k)
            losses, gd = oracle(D_k)
            assert np.array_equal(losses, want[0]) and np.array_equal(gd, want[2])
            none, gd = oracle(D_k, losses=False)
            assert none is None and np.array_equal(gd, want[2])
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
            objective = _bind_attack(model, X, y, lam).point(w)
            for D_k in (D, 0.5 * D, D):  # the hoisted clean pass serves every call
                want = _ref_trades(model, w, X, y, D_k, lam)
                losses, gd = objective(D_k)
                assert np.array_equal(losses, want[0]) and np.array_equal(gd, want[2])
                none, gd = objective(D_k, losses=False)
                assert none is None and np.array_equal(gd, want[2])
            full = trades_batch_loss_and_grads(model, w, X, y, D, lam)
            for got, want in zip(full, (ref_losses, ref_gw, ref_gd)):
                assert np.array_equal(got, want)


# -- the attack loop -------------------------------------------------------------

ATTACKS = [
    AttackConfig(steps=3, step_size=step, init=init, restarts=restarts)
    for init, restarts, step in itertools.product(("zero", "uniform"), (1, 2), (None, 0.5))
]


def _attack_inputs(model, seed, R, B=9):
    """Weights, inputs and labels for one attack, or a stack of R. The
    first two rows of each run lie so far out, with the label the model
    predicts there, that their softmax saturates and their input gradient
    is exactly zero."""
    rng = stream(seed, R or 0)
    lead = () if R is None else (R,)
    w = model.init_params(rng) + rng.standard_normal(lead + (model.param_dim,))
    X = rng.standard_normal(lead + (B, model.input_dim))
    X[..., :2, :] *= 1e6
    y = model.predict_batch(w, X)
    y[..., 2:] = rng.integers(model.class_count, size=lead + (B - 2,))
    G = model.batch_loss_and_grads(w, X, y, np.zeros(X.shape))[2]
    assert (np.abs(G[..., :2, :]) == 0.0).all() and (np.abs(G[..., 2:, :]).max(axis=-1) > 0.0).all()
    return w, X, y


def _psets(dim):
    return [PerturbationSet(norm, radius, dim) for norm, radius in (("l2", 0.4), ("linf", 0.15), ("l2", 0.0), ("linf", 0.0))]


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("make", MODELS)
def test_pgd_attack_equals_the_reference_loop_bit_for_bit(make, bounded):
    # radius 0 makes the default step 0; R = 1, 2, 3 share one broadcast start
    model = make(bounded)
    for R in (None, 1, 2, 3):
        w, X, y = _attack_inputs(model, 310, R)
        for pset in _psets(model.input_dim):
            for cfg in ATTACKS:
                got = pgd_attack_batch(model, w, X, y, pset, cfg, stream(311, 0))
                want = _ref_pgd(model, w, X, y, pset, cfg, stream(311, 0))
                assert np.array_equal(got, want), (R, pset, cfg)


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("make", MODELS)
def test_pgd_attack_on_the_trades_objective_equals_the_reference_loop(make, bounded):
    model = make(bounded)
    for R in (None, 2):
        w, X, y = _attack_inputs(model, 312, R)
        objective = _bind_attack(model, X, y, 0.7).point(w)

        def reference(D, losses=True):
            return _per_run(lambda *run: _ref_trades(model, *run, 0.7), w, X, y, D)[::2]

        for pset in _psets(model.input_dim)[:2]:
            for cfg in ATTACKS:
                got = pgd_attack_batch(model, w, X, y, pset, cfg, stream(313, 0), loss_grad_fn=objective)
                want = _ref_pgd(model, w, X, y, pset, cfg, stream(313, 0), loss_grad_fn=reference)
                assert np.array_equal(got, want), (R, pset, cfg)


@pytest.mark.parametrize("make", MODELS)
def test_attack_writes_to_neither_its_inputs_nor_its_start(make):
    model = make(False)
    w, X, y = _attack_inputs(model, 314, 3)
    for a in (w, X, y):
        a.setflags(write=False)  # any write raises
    pset = PerturbationSet("l2", 0.4, model.input_dim)
    start = pset.sample_uniform(stream(315, 0), size=X.shape[-2])
    start.setflags(write=False)
    shared = np.broadcast_to(start, X.shape)
    oracle = model.attack_oracle(X, y).point(w)
    objective = _bind_attack(model, X, y, 0.7).point(w)
    for D in (shared, np.zeros(X.shape)):
        before = D.copy()
        for fn in (oracle, objective, lambda D: oracle.full(D)[::2], lambda D: model.batch_loss_and_grads(w, X, y, D)[::2]):
            _, G = fn(D)
            assert not np.shares_memory(G, D) and not np.shares_memory(G, X)
        assert np.array_equal(D, before)
    seen = []

    def recording(D, losses=True):
        seen.append(D.copy())
        return oracle(D, losses)

    for cfg in ATTACKS:
        out = pgd_attack_batch(model, w, X, y, pset, cfg, stream(315, 0), loss_grad_fn=recording)
        assert not np.shares_memory(out, X)
        if cfg.init == "uniform":  # the first iterate is the shared draw, copied
            assert np.array_equal(seen[0], shared)
        seen.clear()
    assert np.array_equal(start, pset.sample_uniform(stream(315, 0), size=X.shape[-2]))


def test_attack_steps_ask_for_the_gradient_only():
    model = MODELS[1](False)
    w, X, y = _attack_inputs(model, 317, None)
    oracle, asked = model.attack_oracle(X, y).point(w), []

    def recording(D, losses=True):
        asked.append(losses)
        return oracle(D, losses)

    for restarts in (1, 2):
        asked.clear()
        cfg = AttackConfig(steps=3, restarts=restarts)
        pgd_attack_batch(model, w, X, y, PerturbationSet("l2", 0.4, 6), cfg, stream(317, 1), loss_grad_fn=recording)
        assert asked == ([False] * 3 + [True] * (restarts > 1)) * restarts  # only restart scoring reads losses


def _pool(model, seed, R, B=9):
    """A pool of 2B rows for a binding of B rows, and three (w, idx) points:
    the first B rows, the same inputs with every label moved to the next
    class, then a mix of both halves with repeats. Each point has weights
    of its own, so a stale weight, row or one-hot array shows."""
    w, X, y = _attack_inputs(model, seed, R, B)
    rng = stream(seed, 1)
    X_pool = np.concatenate([X, X], axis=-2)
    y_pool = np.concatenate([y, (y + 1) % model.class_count], axis=-1)
    points = [
        (w, np.arange(B)),
        (w + 0.5 * rng.standard_normal(w.shape), np.arange(B, 2 * B)),
        (w - 0.5 * rng.standard_normal(w.shape), rng.integers(0, 2 * B, size=B)),
    ]
    return X_pool, y_pool, points


@pytest.mark.parametrize("lam", [None, 0.7])
@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("make", MODELS)
def test_a_re_pointed_binding_equals_the_reference_at_every_point(make, bounded, lam):
    model = make(bounded)
    for R in (None, 2):
        X_pool, y_pool, points = _pool(model, 320, R)
        oracle = _bind_attack(model, X_pool, y_pool, lam, rows=X_pool.shape[-2] // 2)
        for w, idx in points:
            oracle.point(w, idx)
            X, y = np.take(X_pool, idx, axis=-2), np.take(y_pool, idx, axis=-1)
            assert np.array_equal(oracle.X, X) and np.array_equal(oracle.y, y)
            full = _ref_loss_and_grads if lam is None else lambda *args: _ref_trades(*args, lam)

            def reference(D, losses=True):
                return _per_run(lambda *run: full(model, *run), w, X, y, D)[::2]

            D = 0.3 * stream(321, 0).standard_normal(X.shape)
            want = reference(D)
            losses, gd = oracle(D)
            assert np.array_equal(losses, want[0]) and np.array_equal(gd, want[1])
            for pset in _psets(model.input_dim):
                for cfg in ATTACKS:
                    got = pgd_attack_batch(model, w, oracle.X, oracle.y, pset, cfg, stream(322, 0), loss_grad_fn=oracle)
                    want = _ref_pgd(model, w, X, y, pset, cfg, stream(322, 0), loss_grad_fn=reference)
                    assert np.array_equal(got, want), (R, pset, cfg)


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("make", MODELS)
def test_the_bound_full_oracle_equals_the_reference_at_every_point(make, bounded):
    # the plain loss (lam None) and the TRADES surrogate
    model = make(bounded)
    for lam, R, B in itertools.product((None, 0.7, 3.0), (None, 2), (9, 25)):
        full = _ref_loss_and_grads if lam is None else lambda *args: _ref_trades(*args, lam)
        X_pool, y_pool, points = _pool(model, 324, R, B)
        oracle = _bind_attack(model, X_pool, y_pool, lam, rows=B)
        for w, idx in points:  # fresh weights and rows, the labels of the second flipped
            oracle.point(w, idx)
            X, y = np.take(X_pool, idx, axis=-2), np.take(y_pool, idx, axis=-1)
            rng = stream(325, B)
            for scale in (0.3, 0.0, 0.3):  # the second full call at one point too
                D = scale * rng.standard_normal(X.shape)
                want = _per_run(lambda *run: full(model, *run), w, X, y, D)
                got = oracle.full(D)
                assert all(np.array_equal(g, r) for g, r in zip(got, want)), (lam, R, B, scale)
                oracle(rng.standard_normal(X.shape), losses=False)  # an attack call between full calls
        # a binding to the rows themselves, as a step without lockstep's makes,
        # and the direct full oracle, which binds one for the call
        w, idx = points[1]
        X, y = np.take(X_pool, idx, axis=-2), np.take(y_pool, idx, axis=-1)
        D = 0.3 * stream(326, B).standard_normal(X.shape)
        want = _per_run(lambda *run: full(model, *run), w, X, y, D)
        direct = model.batch_loss_and_grads(w, X, y, D) if lam is None else trades_batch_loss_and_grads(model, w, X, y, D, lam)
        for got in (_bind_attack(model, X, y, lam).point(w).full(D), direct):
            assert all(np.array_equal(g, r) for g, r in zip(got, want)), (lam, R, B)


SIZED_MODELS = [
    lambda d, bounded: SoftmaxLinear(input_dim=d, class_count=3, bounded=bounded),
    lambda d, bounded: TwoLayerTanhMLP(input_dim=d, hidden_dim=16, class_count=3, bounded=bounded),
    lambda d, bounded: ScalarLogistic(input_dim=d, bounded=bounded),
]


@pytest.mark.parametrize("rows, dim", [(25, 1000), (2500, 20)])
@pytest.mark.parametrize("lam", [None, 0.7])
@pytest.mark.parametrize("make", SIZED_MODELS)
def test_an_attack_step_allocates_no_array_of_the_batch_size(make, lam, rows, dim):
    # NumPy reports its arrays to tracemalloc, so an array of the batch's
    # size made by a step would show in the peak. A broadcasting ufunc
    # call also takes buffers of up to 8192 elements for its iterator; the
    # batch here has more (d = 1000 at 25 rows), so those stay below it.
    for bounded in (False, True):
        model = make(dim, bounded)
        rng = stream(323, rows)
        w = model.init_params(rng)
        X = rng.standard_normal((rows, dim))
        y = rng.integers(model.class_count, size=rows)
        oracle = _bind_attack(model, X, y, lam).point(w)
        for pset in (PerturbationSet("l2", 0.4, dim), PerturbationSet("linf", 0.15, dim)):
            D, scratch = pset.sample_uniform(rng, size=rows), np.empty(X.shape)
            _ascend_in_place(D, oracle(D, losses=False)[1], 0.1, pset, scratch)  # warm up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(10):
                    _ascend_in_place(D, oracle(D, losses=False)[1], 0.1, pset, scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base < X.nbytes, (bounded, pset.norm, peak - base)


# -- log-softmax ----------------------------------------------------------------


@pytest.mark.parametrize("C", [2, 3])
def test_log_softmax_equals_the_reductions_bit_for_bit(C):
    rng = stream(316, C)
    special = [0.0, -0.0, 1.0, -1.0, 36.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    Z = np.vstack(
        [
            np.array(list(itertools.product(special, repeat=C))),  # ties, signed zeros, +-inf and NaN in every slot
            rng.uniform(-800.0, 800.0, size=(400, C)),
            rng.standard_normal((400, C)),
            np.round(rng.standard_normal((400, C))),  # ties among finite values
        ]
    )
    with np.errstate(all="ignore"):
        for stack in (Z, Z.reshape(2, -1, C)):
            got, want = _log_softmax(stack), _ref_log_softmax(stack)
            assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


@pytest.mark.parametrize("radius", [0.7, 0.0])
def test_l2_projection_equals_the_masked_factor_bit_for_bit(radius):
    # rows inside, on and outside the ball, zero rows, and rows with an
    # infinite or NaN entry, whose factor the masked form left at 1.0 or 0.0
    pset = PerturbationSet("l2", radius, 3)
    rng = stream(306, 0)
    G = rng.standard_normal((12, 3)) * np.array([[0.1], [0.5], [1.0], [3.0]]).repeat(3, axis=0)
    G[3] = 0.0
    G[4, 1], G[5, 2], G[6] = np.inf, np.nan, [radius, 0.0, 0.0]
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    scale = np.ones_like(norms)
    with np.errstate(invalid="ignore"):
        over = norms[:, 0] > radius
        scale[over] = radius / norms[over]
        want = G * scale
        for got in (project_rows(G, pset), project_rows(G.copy(), pset, out=np.empty(G.shape))):
            assert np.array_equal(got, want, equal_nan=True)


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
