"""The run-axis contract: run r of a stack equals that run alone, bit for bit.

Models, attacks and training steps take a leading run axis (weights (R, P),
inputs (R, B, d), labels (R, B)); ``lockstep`` stacks the trajectories of
several datasets on it, and the constant estimators stack chunks of probes.
Every comparison here is ``np.array_equal`` or ``==`` on floats.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advstab import bounds
from advstab.bounds import RegionSampler, TrajectorySampler, estimate_lipschitz, estimate_smoothness
from advstab.errors import DimensionError
from advstab.models import Dataset, SmoothModel, make_model
from advstab.rng import stream
from advstab.threat import AttackConfig, PerturbationSet, ascend_rows, pgd_attack_batch
from advstab.trainers import (
    RULES,
    StepSchedule,
    TrainConfig,
    _bind_attack,
    lockstep,
    trades_batch_loss_and_grads,
)

KINDS = ["softmax_linear", "mlp", "scalar_logistic"]
RUNS = [1, 2, 3, 64]
DIM = 4


def _model(kind, bounded):
    classes = 2 if kind == "scalar_logistic" else 3
    return make_model(kind, input_dim=DIM, class_count=classes, hidden_dim=5, bounded=bounded)


def _stack(model, R, B=6, seed=0):
    rng = stream(700 + seed, R)
    W = np.stack([model.init_params(rng) + 0.5 * rng.standard_normal(model.param_dim) for _ in range(R)])
    X = rng.standard_normal((R, B, DIM))
    y = rng.integers(0, model.class_count, size=(R, B))
    D = 0.3 * rng.standard_normal((R, B, DIM))
    return W, X, y, D


def _same(stacked, alone):
    """Equal bit for bit, outputs of any nesting of tuples and arrays."""
    if isinstance(alone, (tuple, list)):
        return len(stacked) == len(alone) and all(_same(s, a) for s, a in zip(stacked, alone))
    if alone is None:
        return stacked is None
    return np.array_equal(stacked, alone) and np.shape(stacked) == np.shape(alone)


def _runs_equal(stacked_fn, alone_fn, R):
    stacked = stacked_fn()
    for r in range(R):
        alone = alone_fn(r)
        picked = tuple(None if s is None else s[r] for s in stacked)
        assert _same(picked, alone), f"run {r} of {R} differs"


# -- models --------------------------------------------------------------------


@pytest.mark.parametrize("R", RUNS)
@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_model_oracles_per_run_equal_run_alone(kind, bounded, R):
    model = _model(kind, bounded)
    W, X, y, D = _stack(model, R)
    cases = [
        (lambda: model.batch_loss_and_grads(W, X, y, D), lambda r: model.batch_loss_and_grads(W[r], X[r], y[r], D[r])),
        (lambda: model.attack_oracle(X, y).point(W).full(D), lambda r: model.attack_oracle(X[r], y[r]).point(W[r]).full(D[r])),
        (lambda: (model.loss_batch(W, X, y, D),), lambda r: (model.loss_batch(W[r], X[r], y[r], D[r]),)),
        (lambda: (model.logits_batch(W, X, D),), lambda r: (model.logits_batch(W[r], X[r], D[r]),)),
        (lambda: (model.predict_batch(W, X, D),), lambda r: (model.predict_batch(W[r], X[r], D[r]),)),
        (
            lambda: trades_batch_loss_and_grads(model, W, X, y, D, 0.7),
            lambda r: trades_batch_loss_and_grads(model, W[r], X[r], y[r], D[r], 0.7),
        ),
        (lambda: model.attack_oracle(X, y).point(W)(D), lambda r: model.attack_oracle(X[r], y[r]).point(W[r])(D[r])),
        (
            lambda: _bind_attack(model, X, y, 0.7).point(W)(D),
            lambda r: _bind_attack(model, X[r], y[r], 0.7).point(W[r])(D[r]),
        ),
    ]
    for stacked_fn, alone_fn in cases:
        _runs_equal(stacked_fn, alone_fn, R)


def test_stacked_weights_and_inputs_must_agree_on_the_run_axis():
    model = _model("mlp", False)
    W, X, y, D = _stack(model, 3)
    with pytest.raises(DimensionError, match="run axis"):
        model.batch_loss_and_grads(W[:2], X, y, D)
    with pytest.raises(DimensionError, match="run axis"):
        model.batch_loss_and_grads(W[0], X, y, D)
    with pytest.raises(DimensionError):
        model.batch_loss_and_grads(W, X, y[:, :-1], D)


# -- attacks -------------------------------------------------------------------


@pytest.mark.parametrize("R", RUNS)
@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_ascend_rows_per_run_equals_run_alone(norm, R):
    pset = PerturbationSet(norm, 0.7, DIM)
    rng = stream(720, R)
    for trial in range(4):
        D = pset.sample_uniform(rng, size=R * 5).reshape(R, 5, DIM)
        G = rng.standard_normal((R, 5, DIM))
        if trial == 1:
            G[rng.random((R, 5)) < 0.4] = 0.0  # some rows exactly zero
        elif trial == 2:
            G[:] = 0.0  # every row of every run
        elif trial == 3:
            G[0] = 0.0  # one run with no live row
        for rate in (0.0, 0.05, 3.0):
            out = ascend_rows(D, G, rate, pset)
            for r in range(R):
                assert np.array_equal(out[r], ascend_rows(D[r], G[r], rate, pset))
            # a shared start broadcast over the runs gives the same steps
            shared = ascend_rows(np.broadcast_to(D[0], D.shape), G, rate, pset)
            for r in range(R):
                assert np.array_equal(shared[r], ascend_rows(D[0], G[r], rate, pset))


@pytest.mark.parametrize("R", RUNS)
@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_pgd_attack_per_run_equals_run_alone(kind, bounded, R):
    model = _model(kind, bounded)
    W, X, y, _ = _stack(model, R)
    for norm, radius in (("l2", 0.4), ("linf", 0.15)):
        pset = PerturbationSet(norm, radius, DIM)
        for cfg in (AttackConfig(steps=3, init="uniform"), AttackConfig(steps=2, init="zero", restarts=2, step_size=0.1)):
            out = pgd_attack_batch(model, W, X, y, pset, cfg, stream(721, R))
            for r in range(R):
                alone = pgd_attack_batch(model, W[r], X[r], y[r], pset, cfg, stream(721, R))
                assert np.array_equal(out[r], alone)


# -- lockstep ------------------------------------------------------------------


def _datasets(model, R, n=10, seed=0):
    rng = stream(730 + seed, R)
    base = rng.standard_normal((n, DIM))
    labels = rng.integers(0, model.class_count, size=n)
    out = []
    for r in range(R):
        X, y = base.copy(), labels.copy()
        i = r % n  # each dataset differs from the first in at most one row
        if r:
            X[i] = rng.standard_normal(DIM)
            y[i] = rng.integers(0, model.class_count)
        out.append(Dataset(X, y))
    return out


def _copy(item):
    if isinstance(item, tuple):
        return tuple(_copy(x) for x in item)
    return item.copy() if isinstance(item, np.ndarray) else item


def _updates(model, datasets, cfg):
    """``lockstep``'s items, each array copied as it is yielded."""
    return [_copy(item) for item in lockstep(model, datasets, cfg)]


def _assert_lockstep_runs_equal(model, datasets, cfg):
    stacked = _updates(model, datasets, cfg)
    # every yielded array keeps its value after the loop moves on
    assert _same(list(lockstep(model, datasets, cfg)), stacked)
    for r, dataset in enumerate(datasets):
        alone = _updates(model, [dataset], cfg)
        assert len(stacked) == len(alone)
        for s, a in zip(stacked, alone):
            assert s[:3] == a[:3] and _same(s[3], a[3])
            assert _same(s[4][r], a[4][0])
            assert (s[5] is None) == (a[5] is None) and (s[5] is None or _same(s[5][r], a[5][0]))
            assert (s[6] is None) == (a[6] is None) and (s[6] is None or _same([c[r] for c in s[6]], [c[0] for c in a[6]]))


def _lockstep_cfg(algorithm, norm, T=4):
    pset = PerturbationSet(norm, 0.4 if norm == "l2" else 0.15, DIM)
    lam = 0.7 if RULES[algorithm] != algorithm else None
    attack = AttackConfig(steps=2, init="uniform", restarts=2)
    return TrainConfig(algorithm, pset, StepSchedule("constant", 0.3), 4, T, 9, free_steps=2, trades_lambda=lam, inner_attack=attack)


@pytest.mark.parametrize("algorithm", list(RULES))
@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_lockstep_trajectories_equal_single_dataset_runs(kind, bounded, algorithm):
    model = _model(kind, bounded)
    for norm in ("l2", "linf"):
        _assert_lockstep_runs_equal(model, _datasets(model, 3), _lockstep_cfg(algorithm, norm))


@pytest.mark.parametrize("R", RUNS)
@pytest.mark.parametrize("algorithm", list(RULES))
def test_lockstep_any_run_count(algorithm, R):
    model = _model("mlp", False)
    _assert_lockstep_runs_equal(model, _datasets(model, R, n=8), _lockstep_cfg(algorithm, "l2", T=2))


# -- constant estimators ---------------------------------------------------------


def _joint_grad(model, w, delta, x, y):
    _, gw, gd = model.batch_loss_and_grads(w, x[None, :], [y], np.asarray(delta)[None, :])
    return gw, gd[0]


def _ref_draw(sampler, rng):
    """One probe as the samplers drew it before they drew chunks: each
    probe's generator calls and arithmetic together."""
    if isinstance(sampler, TrajectorySampler):
        i = int(rng.integers(sampler.w_points.shape[0]))
        w = sampler.w_points[i] + sampler.jitter * rng.standard_normal(sampler.w_points.shape[1])
    else:
        w = rng.uniform(sampler.w_low, sampler.w_high)
    delta = sampler.pset.sample_uniform(rng)
    j = int(rng.integers(sampler.X.shape[0]))
    return w, delta, sampler.X[j], int(sampler.y[j])


def _ref_lipschitz(model, sampler, probes, rng):
    """The probe-by-probe loop the chunked estimator replaced."""
    L = Lw = 0.0
    for _ in range(int(probes)):
        w, delta, x, y = _ref_draw(sampler, rng)
        gw, gd = _joint_grad(model, w, delta, x, y)
        nw = float(np.linalg.norm(gw))
        L = max(L, float(np.sqrt(nw * nw + np.dot(gd, gd))))
        Lw = max(Lw, nw)
    return L, Lw


def _ref_smoothness(model, sampler, probes, pair_scale, rng, power_iters):
    """The probe-by-probe loop the chunked estimator replaced."""
    beta = 0.0
    for _ in range(int(probes)):
        w, delta, x, y = _ref_draw(sampler, rng)
        dim = w.size + delta.size
        gw1, gd1 = _joint_grad(model, w, delta, x, y)
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        for _ in range(1 + int(power_iters)):
            w2 = w + pair_scale * v[: w.size]
            d2 = delta + pair_scale * v[w.size :]
            gw2, gd2 = _joint_grad(model, w2, d2, x, y)
            diff = np.concatenate([gw2 - gw1, gd2 - gd1])
            nrm = float(np.linalg.norm(diff))
            beta = max(beta, nrm / pair_scale)
            if nrm == 0.0:
                break
            v = diff / nrm
    return beta


class HalfFlatModel(SmoothModel):
    """Logits ``[0, (w . u) * [x_0 > 0]]``: the loss is flat in (w, delta) on
    samples with ``x_0 <= 0``, so those probes see an exactly zero gradient
    change and stop their power iteration while the others go on."""

    def __init__(self):
        self.kind = "half_flat"
        self.input_dim = self.param_dim = DIM
        self.class_count = 2
        self.hidden_dim = None
        self.bounded = False

    def _bound_pass(self, w, U):
        Z, gate = np.zeros(U.shape[:-1] + (2,)), np.empty(U.shape[:-1] + (1,))

        def forward(V):
            gate[...] = (V[..., :1] > 0.0) * 1.0  # V = x + delta; the region keeps delta small
            Z[..., 1:] = (V @ w[..., None]) * gate

        def input_grad(G):
            U[...] = G[..., 1:] * gate * w[..., None, :]
            return U

        def full_grad(G):
            gw = ((G[..., 1:] * gate).swapaxes(-1, -2) @ U)[..., 0, :]  # before U holds the input gradient
            return gw, input_grad(G)

        return Z, forward, input_grad, full_grad


def _samplers(model):
    """Both samplers, each over both norms at a positive radius and at
    radius 0; the first is the L2 box."""
    rng = stream(740, model.param_dim)
    X = rng.standard_normal((30, DIM))
    X[:, 0] += np.sign(X[:, 0])  # keep |x_0| > 1 past the small perturbations
    y = rng.integers(0, model.class_count, size=30)
    P = model.param_dim
    w_points = rng.standard_normal((3, P))
    samplers = []
    for norm, radius in (("l2", 0.3), ("linf", 0.2), ("l2", 0.0), ("linf", 0.0)):
        pset = PerturbationSet(norm, radius, DIM)
        samplers.append(RegionSampler(w_low=-np.ones(P), w_high=np.ones(P), pset=pset, X=X, y=y))
        samplers.append(TrajectorySampler(w_points=w_points, jitter=0.05, pset=pset, X=X, y=y))
    return samplers


def _state(rng):
    """The generator's whole state, comparable with ``==``."""
    s = rng.bit_generator.state
    return tuple(s["state"]["counter"]), tuple(s["state"]["key"]), tuple(s["buffer"]), s["buffer_pos"], s["has_uint32"], s["uinteger"]


@pytest.mark.parametrize("directions", [False, True])
def test_a_chunk_draw_equals_single_draws_and_leaves_the_generator_there(directions):
    model = _model("mlp", False)
    P = model.param_dim
    for sampler in _samplers(model):
        for k in (1, 2, 5, 32):
            chunk_rng, one_rng, ref_rng = stream(744, k), stream(744, k), stream(744, k)
            chunk = sampler.draw(chunk_rng, size=k, directions=directions)
            ones, refs = [], []
            for _ in range(k):
                ones.append(sampler.draw(one_rng, directions=directions))
                refs.append(_ref_draw(sampler, ref_rng) + ((ref_rng.standard_normal(P + DIM),) if directions else ()))
            assert len(chunk) == len(ones[0]) == len(refs[0]) == 4 + directions
            for col, one, ref in zip(chunk, zip(*ones), zip(*refs)):
                assert col.shape[0] == k and np.array_equal(col, np.array(one)) and np.array_equal(col, np.array(ref))
            assert isinstance(ones[0][3], int)
            assert _state(chunk_rng) == _state(one_rng) == _state(ref_rng)
            assert chunk_rng.random() == ref_rng.random()


@pytest.mark.parametrize("probes", [2, 31, 32, 33, 63, 64, 65, 200])
@pytest.mark.parametrize("kind", ["mlp", "scalar_logistic", "half_flat"])
def test_estimators_equal_probe_by_probe_reference(kind, probes):
    assert bounds.PROBE_CHUNK == 32  # the probe counts straddle one and two chunks
    model = HalfFlatModel() if kind == "half_flat" else _model(kind, bounded=kind == "mlp")
    for sampler in _samplers(model):
        with np.errstate(all="raise"):  # a stopped probe must not go on as 0/0
            got = estimate_lipschitz(model, sampler, probes, stream(741, probes))
            assert got == _ref_lipschitz(model, sampler, probes, stream(741, probes))
            for power_iters in (0, 3):
                args = (model, sampler, probes, 1e-3)
                got = estimate_smoothness(*args, stream(742, probes), power_iters=power_iters)
                assert got == _ref_smoothness(*args, stream(742, probes), power_iters)


class HalfNanModel(HalfFlatModel):
    """``HalfFlatModel`` whose gradients are NaN where it is flat, so a NaN
    probe norm meets the estimators' running max."""

    def _bound_pass(self, w, U):
        Z, forward, input_grad, full_grad = super()._bound_pass(w, U)
        flat = np.empty(U.shape[:-1] + (1,), dtype=bool)

        def nan_forward(V):
            np.less_equal(V[..., :1], 0.0, out=flat)
            forward(V)

        def nan_input_grad(G):
            gU = input_grad(G)
            np.copyto(gU, np.nan, where=flat)
            return gU

        def nan_full_grad(G):
            gw, gU = full_grad(G)
            np.copyto(gU, np.nan, where=flat)
            return np.where(flat.any(axis=-2), np.nan, gw), gU

        return Z, nan_forward, nan_input_grad, nan_full_grad


def test_a_nan_probe_never_wins_the_running_max():
    model = HalfNanModel()
    sampler = _samplers(model)[0]
    with np.errstate(all="raise"):
        got = estimate_lipschitz(model, sampler, 100, stream(745, 0))
        assert got == _ref_lipschitz(model, sampler, 100, stream(745, 0))
        assert all(np.isfinite(got)) and min(got) > 0.0
        for power_iters in (0, 2):
            got = estimate_smoothness(model, sampler, 100, 1e-3, stream(746, 0), power_iters=power_iters)
            assert got == _ref_smoothness(model, sampler, 100, 1e-3, stream(746, 0), power_iters)
            assert np.isfinite(got) and got > 0.0


def test_half_flat_model_mixes_stopped_and_running_probes():
    # the done mask is exercised: some probes stop at the first iterate,
    # others keep a nonzero gradient change
    model = HalfFlatModel()
    sampler = _samplers(model)[0]
    rng = stream(743, 0)
    norms = []
    for _ in range(40):
        w, delta, x, y = sampler.draw(rng)
        v = rng.standard_normal(2 * DIM)
        g1 = np.concatenate(_joint_grad(model, w, delta, x, y))
        g2 = np.concatenate(_joint_grad(model, w + 1e-3 * v[:DIM], delta + 1e-3 * v[DIM:], x, y))
        norms.append(np.linalg.norm(g2 - g1))
    assert 0.0 in norms and max(norms) > 0.0


# -- BLAS threads ------------------------------------------------------------------

_STACK_CHECK = """
import numpy as np
from advstab.models import make_model
from advstab.rng import stream
for kind in ("softmax_linear", "mlp", "scalar_logistic"):
    model = make_model(kind, input_dim=20, class_count=2, hidden_dim=16)
    for R in (1, 2, 3, 64):
        rng = stream(750, R)
        W = np.stack([model.init_params(rng) for _ in range(R)])
        X = rng.standard_normal((R, 25, 20))
        y = rng.integers(0, 2, size=(R, 25))
        D = 0.3 * rng.standard_normal((R, 25, 20))
        out = model.batch_loss_and_grads(W, X, y, D)
        for r in range(R):
            alone = model.batch_loss_and_grads(W[r], X[r], y[r], D[r])
            assert all(np.array_equal(s[r], a) for s, a in zip(out, alone)), (kind, R, r)
print("stack ok")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stack_equals_runs_alone_under_blas_threads(threads):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _STACK_CHECK], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stack ok"
