from dataclasses import replace

import numpy as np
import pytest

from advstab.errors import ConfigError
from advstab.models import Dataset, LabeledSample, SoftmaxLinear, TwoLayerTanhMLP
from advstab.rng import stream
from advstab.stability import coupled_run, make_neighbor
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet
from advstab.trainers import (
    STREAM_DELTA,
    STREAM_INIT,
    StepSchedule,
    TrainConfig,
    batch_indices,
    fast_batch_step,
    free_inner_iteration,
    step_size,
    trades_batch_loss_and_grads,
    trades_surrogate_loss,
    train,
    vanilla_batch_step,
)


def _data(n=30, dim=5, seed=3):
    spec = SyntheticSpec("two_gaussians", n_train=n, n_test=10, dim=dim, noise=1.0, seed=seed)
    return make_synthetic(spec)[0]


def _mlp(dim=5):
    return TwoLayerTanhMLP(input_dim=dim, hidden_dim=4, class_count=2)


# -- schedules ---------------------------------------------------------------


def test_step_size_values():
    assert step_size(StepSchedule("vanishing_c_over_t", c=0.1), 1) == 0.1
    assert step_size(StepSchedule("vanishing_c_over_t", c=0.1), 4) == 0.025
    assert step_size(StepSchedule("vanishing_c_over_mt", c=0.6, m=3), 2) == pytest.approx(0.1)
    assert step_size(StepSchedule("constant", c=0.5), 17) == 0.5


def test_step_size_rejects_zero_step_index():
    with pytest.raises(ConfigError):
        step_size(StepSchedule("constant", c=0.5), 0)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        StepSchedule("linear", c=0.1)
    with pytest.raises(ConfigError):
        StepSchedule("constant", c=0.0)


# -- config ------------------------------------------------------------------


def _cfg(algorithm, eps=0.3, T=20, seed=5, dim=5, **kw):
    pset = PerturbationSet("l2", eps, dim)
    defaults = dict(
        schedule=StepSchedule("vanishing_c_over_t", c=0.5),
        batch_size=8,
        total_iterations=T,
        seed=seed,
        inner_attack=AttackConfig(steps=3, step_size=1.0),
    )
    defaults.update(kw)
    return TrainConfig(algorithm, pset, **defaults)


def test_free_requires_divisible_iterations():
    with pytest.raises(ConfigError):
        _cfg("free", T=10, free_steps=4)


def test_trades_requires_lambda():
    with pytest.raises(ConfigError):
        _cfg("free_trades", T=8, free_steps=4)


def test_free_rejects_schedule_m_other_than_free_steps():
    for algorithm, kw in (("free", {}), ("free_trades", dict(trades_lambda=0.5))):
        with pytest.raises(ConfigError):
            _cfg(algorithm, T=8, free_steps=4, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=2), **kw)
        _cfg(algorithm, T=8, free_steps=4, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=4), **kw)
    # the c/(m t) schedule's m binds only the free rule
    _cfg("vanilla", schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=2))


def test_rule_properties_derive_from_algorithm():
    expected = {
        "vanilla": ("vanilla", None, 1, 4),
        "trades_seq": ("vanilla", 0.5, 1, 4),
        "fast": ("fast", None, 1, 2),
        "free": ("free", None, 4, 1),
        "free_trades": ("free", 0.5, 4, 1),
    }
    for algorithm, facts in expected.items():
        cfg = _cfg(algorithm, T=8, free_steps=4, trades_lambda=0.5)
        assert (cfg.rule, cfg.lam, cfg.inner_steps, cfg.oracle_per_update) == facts, algorithm
        with pytest.raises(TypeError):
            replace(cfg, rule="free")


def test_batch_larger_than_dataset_rejected():
    data = _data(n=5)
    cfg = _cfg("vanilla", T=2, batch_size=8)
    with pytest.raises(ConfigError):
        train(_mlp(), data, cfg)


# -- determinism and accounting ----------------------------------------------


def test_same_seed_bit_identical():
    data = _data()
    for algorithm, kw in (
        ("vanilla", {}),
        ("fast", {}),
        ("free", dict(free_steps=4)),
        ("free_trades", dict(free_steps=4, trades_lambda=0.5)),
    ):
        cfg = _cfg(algorithm, T=12, **kw)
        w1, tr1 = train(_mlp(), data, cfg)
        w2, tr2 = train(_mlp(), data, cfg)
        assert np.array_equal(w1, w2)
        assert [r.loss for r in tr1.records] == [r.loss for r in tr2.records]


def test_update_count_accounting():
    data = _data()
    for algorithm, kw, expected in (
        ("vanilla", {}, 12),
        ("fast", {}, 12),
        ("free", dict(free_steps=4), 12),
        ("free_trades", dict(free_steps=3, trades_lambda=1.0), 12),
    ):
        cfg = _cfg(algorithm, T=12, **kw)
        _, trace = train(_mlp(), data, cfg)
        assert len(trace.records) == expected
        assert [r.t for r in trace.records] == list(range(1, 13))


def test_oracle_call_accounting():
    data = _data()
    K = 3
    cfg_v = _cfg("vanilla", T=10, inner_attack=AttackConfig(steps=K, step_size=1.0))
    _, tr_v = train(_mlp(), data, cfg_v)
    assert tr_v.oracle_calls == 10 * (K + 1)
    cfg_f = _cfg("free", T=12, free_steps=4)
    _, tr_f = train(_mlp(), data, cfg_f)
    assert tr_f.oracle_calls == 12
    cfg_s = _cfg("fast", T=10)
    _, tr_s = train(_mlp(), data, cfg_s)
    assert tr_s.oracle_calls == 20


def test_t_zero_returns_initialization():
    data = _data()
    model = _mlp()
    cfg = _cfg("vanilla", T=0)
    w, trace = train(model, data, cfg)
    assert np.array_equal(w, model.init_params(stream(cfg.seed, STREAM_INIT)))
    assert len(trace.records) == 0


def test_batch_stream_is_pure_function_of_seed():
    a = batch_indices(9, 4, 30, 8)
    b = batch_indices(9, 4, 30, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, batch_indices(9, 5, 30, 8))


# -- collapse identities -----------------------------------------------------


def test_eps_zero_collapse_all_algorithms_match_plain_sgd():
    data = _data()
    model = _mlp()
    p0 = PerturbationSet("l2", 0.0, 5)
    sched_t = StepSchedule("vanishing_c_over_t", c=0.4)
    sched_mt = StepSchedule("vanishing_c_over_mt", c=0.4, m=1)
    seed = 13
    T = 15
    cfg_v = TrainConfig("vanilla", p0, sched_t, 6, T, seed, inner_attack=AttackConfig(steps=2, step_size=1.0))
    cfg_s = TrainConfig("fast", p0, sched_t, 6, T, seed)
    cfg_f = TrainConfig("free", p0, sched_mt, 6, T, seed, free_steps=1)
    cfg_ft = TrainConfig("free_trades", p0, sched_mt, 6, T, seed, free_steps=1, trades_lambda=3.0)

    # explicit plain-SGD reference through the same plan
    w = model.init_params(stream(seed, STREAM_INIT))
    for t in range(1, T + 1):
        idx = batch_indices(seed, t, data.n, 6)
        _, gw, _ = model.batch_loss_and_grads(w, data.X[idx], data.y[idx], np.zeros((6, 5)))
        w = w - step_size(sched_t, t) * gw

    for cfg in (cfg_v, cfg_s, cfg_f, cfg_ft):
        got, _ = train(model, data, cfg)
        assert np.array_equal(got, w), cfg.algorithm


def test_free_m1_is_one_simultaneous_update_per_step():
    data = _data()
    model = _mlp()
    cfg = _cfg("free", T=6, free_steps=1, schedule=StepSchedule("constant", c=0.3))
    w, trace = train(model, data, cfg)
    # replay by hand with the shared building block
    w_ref = model.init_params(stream(cfg.seed, STREAM_INIT))
    for t in range(1, 7):
        idx = batch_indices(cfg.seed, t, data.n, cfg.batch_size)
        deltas = cfg.pset.sample_uniform(stream(cfg.seed, STREAM_DELTA, t), size=cfg.batch_size)
        w_ref, _, _ = free_inner_iteration(
            model, data.X[idx], data.y[idx], w_ref, deltas, 0.3, cfg.resolved_attack_lr, cfg.pset
        )
    assert np.array_equal(w, w_ref)


def test_free_zero_attack_rate_keeps_deltas_at_init():
    data = _data()
    model = _mlp()
    pset = PerturbationSet("l2", 0.3, 5)
    rng = stream(77, 0)
    w = model.init_params(rng)
    X, y = data.X[:6], data.y[:6]
    deltas = pset.sample_uniform(stream(77, 1), size=6)
    w2, new_deltas, _ = free_inner_iteration(model, X, y, w, deltas, 0.2, 0.0, pset)
    assert np.array_equal(new_deltas, deltas)
    # and the weight update is plain SGD at the perturbed points
    _, gw, _ = model.batch_loss_and_grads(w, X, y, deltas)
    assert np.array_equal(w2, w - 0.2 * gw)


def test_free_m4_vs_m2_both_reach_T_updates():
    data = _data()
    a = _cfg("free", T=8, free_steps=4)
    b = _cfg("free", T=8, free_steps=2)
    _, tr_a = train(_mlp(), data, a)
    _, tr_b = train(_mlp(), data, b)
    assert len(tr_a.records) == len(tr_b.records) == 8
    assert [r.loss for r in tr_a.records] != [r.loss for r in tr_b.records]


# -- fast --------------------------------------------------------------------


def test_fast_single_sample_matches_hand_formula():
    model = SoftmaxLinear(input_dim=4, class_count=2)
    rng = stream(80, 0)
    w = model.init_params(rng) + rng.standard_normal(model.param_dim)
    pset = PerturbationSet("l2", 0.5, 4)
    X = rng.standard_normal((1, 4))
    y = np.array([1])
    delta0 = pset.sample_uniform(stream(80, 1), size=1)
    step = 0.3
    w2, _ = fast_batch_step(model, X, y, w, 0.1, step, pset, delta0)
    _, _, G0 = model.batch_loss_and_grads(w, X, y, delta0)
    g = G0[0]
    stepped = delta0[0] + step * pset.radius * g / np.linalg.norm(g)
    nrm = np.linalg.norm(stepped)
    if nrm > pset.radius:
        stepped = stepped * pset.radius / nrm
    _, gw, _ = model.batch_loss_and_grads(w, X, y, stepped[None, :])
    assert np.abs(w2 - (w - 0.1 * gw)).max() < 1e-12


def test_fast_equals_single_step_vanilla_given_same_start():
    # one attack iteration from the same random start is the same update
    model = _mlp()
    data = _data()
    pset = PerturbationSet("l2", 0.4, 5)
    rng = stream(81, 0)
    w = model.init_params(rng)
    X, y = data.X[:6], data.y[:6]
    delta0 = pset.sample_uniform(stream(81, 1), size=6)
    step = pset.radius / 4
    w_fast, _ = fast_batch_step(model, X, y, w, 0.2, step, pset, delta0)

    class PinnedInit:
        def sample_uniform(self, rng_, size=None):
            return delta0.copy()

        norm = pset.norm
        radius = pset.radius
        dim = pset.dim

    w_van, _ = vanilla_batch_step(
        model, X, y, w, 0.2, PinnedInit(), AttackConfig(steps=1, step_size=step, init="uniform"), stream(0, 0)
    )
    assert np.array_equal(w_fast, w_van)


# -- TRADES ------------------------------------------------------------------


def test_trades_zero_delta_consistency_term_vanishes():
    model = _mlp()
    rng = stream(82, 0)
    w = model.init_params(rng)
    s = LabeledSample(x=rng.standard_normal(5), y=1)
    clean = model.loss_value(w, np.zeros(5), s)
    assert trades_surrogate_loss(model, w, np.zeros(5), s, lam=2.0) == pytest.approx(clean, abs=1e-15)


def test_trades_lambda_limit_recovers_clean_loss():
    model = _mlp()
    rng = stream(83, 0)
    w = model.init_params(rng)
    s = LabeledSample(x=rng.standard_normal(5), y=0)
    delta = 0.2 * rng.standard_normal(5)
    clean = model.loss_value(w, np.zeros(5), s)
    assert trades_surrogate_loss(model, w, delta, s, lam=1e9) == pytest.approx(clean, abs=1e-6)


def test_trades_gradients_match_finite_differences():
    model = TwoLayerTanhMLP(input_dim=4, hidden_dim=3, class_count=3)
    rng = stream(84, 0)
    lam = 0.7
    for _ in range(5):
        w = model.init_params(rng) + 0.3 * rng.standard_normal(model.param_dim)
        x = rng.standard_normal(4)
        y = int(rng.integers(3))
        delta = 0.15 * rng.standard_normal(4)
        s = LabeledSample(x=x, y=y)
        _, gw, gd = trades_batch_loss_and_grads(model, w, x[None, :], [y], delta[None, :], lam)

        def f_w(v):
            return trades_surrogate_loss(model, v, delta, s, lam)

        def f_d(v):
            return trades_surrogate_loss(model, w, v, s, lam)

        for g, f, v in ((gw, f_w, w), (gd[0], f_d, delta)):
            fd = np.array([(f(_bump(v, i, 1e-6)) - f(_bump(v, i, -1e-6))) / 2e-6 for i in range(v.size)])
            denom = max(np.linalg.norm(fd), np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(np.asarray(g) - fd) / denom < 1e-6


def _bump(v, i, h):
    out = np.asarray(v, dtype=float).copy()
    out[i] += h
    return out


def test_trades_rejects_bad_lambda():
    model = _mlp()
    s = LabeledSample(x=np.zeros(5), y=0)
    with pytest.raises(ConfigError):
        trades_surrogate_loss(model, np.zeros(model.param_dim), np.zeros(5), s, lam=0.0)


def test_free_trades_m1_zero_rate_is_sgd_on_fixed_delta_surrogate():
    data = _data()
    model = _mlp()
    pset = PerturbationSet("l2", 0.3, 5)
    sched = StepSchedule("constant", c=0.2)
    seed, lam, T = 23, 0.8, 6
    cfg = TrainConfig("free_trades", pset, sched, 6, T, seed, free_steps=1, trades_lambda=lam, attack_lr=0.0)
    w_got, _ = train(model, data, cfg)
    w = model.init_params(stream(seed, STREAM_INIT))
    for t in range(1, T + 1):
        idx = batch_indices(seed, t, data.n, 6)
        deltas = pset.sample_uniform(stream(seed, STREAM_DELTA, t), size=6)
        _, gw, _ = trades_batch_loss_and_grads(model, w, data.X[idx], data.y[idx], deltas, lam)
        w = w - 0.2 * gw
    assert np.array_equal(w_got, w)


def test_free_trades_lambda_limit_tracks_clean_sgd():
    data = _data()
    model = _mlp()
    pset = PerturbationSet("l2", 0.3, 5)
    sched = StepSchedule("vanishing_c_over_mt", c=0.4, m=1)
    seed = 19
    cfg = TrainConfig("free_trades", pset, sched, 6, 15, seed, free_steps=1, trades_lambda=1e9, attack_lr=0.0)
    w_ft, _ = train(model, data, cfg)
    # clean SGD through the same plan
    w = model.init_params(stream(seed, STREAM_INIT))
    for t in range(1, 16):
        idx = batch_indices(seed, t, data.n, 6)
        _, gw, _ = model.batch_loss_and_grads(w, data.X[idx], data.y[idx])
        w = w - step_size(sched, t) * gw
    assert np.linalg.norm(w_ft - w) < 1e-4


# -- simultaneity and probes --------------------------------------------------


class CountingModel:
    """Wrapper counting gradient evaluations and their evaluation points:
    full-oracle calls in ``calls``, attack-only calls in ``attack_calls``,
    and the order of both kinds in ``kinds``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.attack_calls = []
        self.kinds = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def batch_loss_and_grads(self, w, X, y, deltas=None):
        self.calls.append((w.copy(), None if deltas is None else np.asarray(deltas).copy()))
        self.kinds.append("full")
        return self.inner.batch_loss_and_grads(w, X, y, deltas)

    def attack_loss_and_grad(self, w, X, y, deltas):
        self.attack_calls.append((w.copy(), np.asarray(deltas).copy()))
        self.kinds.append("attack")
        return self.inner.attack_loss_and_grad(w, X, y, deltas)


def test_free_uses_one_evaluation_per_inner_iteration():
    data = _data()
    probe = CountingModel(_mlp())
    cfg = _cfg("free", T=8, free_steps=4)
    train(probe, data, cfg)
    assert len(probe.calls) == 8
    assert probe.attack_calls == []


def test_simultaneity_gradients_share_evaluation_point():
    # the perturbation used for the weight gradient is the pre-update one
    data = _data()
    model = _mlp()
    probe = CountingModel(model)
    pset = PerturbationSet("l2", 0.3, 5)
    rng = stream(85, 0)
    w = model.init_params(rng)
    deltas = pset.sample_uniform(stream(85, 1), size=6)
    w2, d2, _ = free_inner_iteration(probe, data.X[:6], data.y[:6], w, deltas, 0.2, 0.5, pset)
    assert len(probe.calls) == 1
    w_seen, d_seen = probe.calls[0]
    assert np.array_equal(w_seen, w) and np.array_equal(d_seen, deltas)
    assert not np.array_equal(d2, deltas)  # the update did move


def test_vanilla_oracle_calls_per_step_is_K_plus_1():
    data = _data()
    probe = CountingModel(_mlp())
    K = 4
    cfg = _cfg("vanilla", T=5, inner_attack=AttackConfig(steps=K, step_size=1.0))
    train(probe, data, cfg)
    # per step: K attack-only calls, then the one full call for the weight step
    assert probe.kinds == (["attack"] * K + ["full"]) * 5


def test_fast_oracle_calls_per_step_are_one_attack_only_and_one_full():
    data = _data()
    probe = CountingModel(_mlp())
    train(probe, data, _cfg("fast", T=5))
    assert probe.kinds == ["attack", "full"] * 5


def test_stored_deltas_stay_feasible_along_free_runs():
    data = _data()
    model = _mlp()
    pset = PerturbationSet("l2", 0.25, 5)
    rng = stream(86, 0)
    w = model.init_params(rng)
    deltas = pset.sample_uniform(stream(86, 1), size=6)
    for _ in range(25):
        w, deltas, _ = free_inner_iteration(model, data.X[:6], data.y[:6], w, deltas, 0.1, 0.8, pset)
        assert (np.linalg.norm(deltas, axis=1) <= pset.radius + 1e-12).all()


def test_trace_serialization_fields():
    data = _data()
    cfg = _cfg("free", T=8, free_steps=4)
    _, trace = train(_mlp(), data, cfg)
    rows = list(trace.to_records())
    assert len(rows) == 8
    assert set(rows[0]) == {"t", "step", "iteration", "alpha_w", "batch", "grad_w_norm", "min_grad_delta_norm", "loss"}
    assert rows[0]["batch"].count("|") == cfg.batch_size - 1


def test_linf_training_end_to_end():
    # no hidden L2 assumptions in the loops: deterministic, feasible, and
    # descending under an L-infinity ball
    data = _data()
    model = _mlp()
    pset = PerturbationSet("linf", 0.1, 5)
    for algorithm, kw in (("vanilla", {}), ("fast", {}), ("free", dict(free_steps=4))):
        cfg = TrainConfig(
            algorithm,
            pset,
            StepSchedule("constant", c=0.3),
            8,
            24,
            9,
            inner_attack=AttackConfig(steps=3, step_size=1.0),
            **kw,
        )
        w1, tr1 = train(model, data, cfg)
        w2, _ = train(model, data, cfg)
        assert np.array_equal(w1, w2)
        assert tr1.records[-1].loss < tr1.records[0].loss


def test_descent_on_smooth_objective():
    # small radius, vanishing steps: the final loss drops below the initial
    # one for every seed probed
    data = _data(n=40)
    model = _mlp()
    for seed in range(20):
        cfg = _cfg("vanilla", eps=0.05, T=40, seed=seed, schedule=StepSchedule("constant", c=0.3))
        _, trace = train(model, data, cfg)
        assert trace.records[-1].loss < trace.records[0].loss


# -- validation at the training boundary --------------------------------------


@pytest.mark.parametrize("bad_label", [-1, 2])
@pytest.mark.parametrize("algorithm", ["vanilla", "fast", "free"])
def test_out_of_range_labels_rejected_before_any_oracle_call(bad_label, algorithm):
    data = _data()
    y = data.y.copy()
    y[3] = bad_label
    bad = Dataset(data.X, y)
    cfg = _cfg(algorithm, T=8, free_steps=4)
    probe = CountingModel(_mlp())
    with pytest.raises(ValueError, match="label"):
        train(probe, bad, cfg)
    # the good half of a pair does not hide a bad label in the other half
    with pytest.raises(ValueError, match="label"):
        coupled_run(probe, make_neighbor(data, 3, LabeledSample(x=data.X[3], y=bad_label)), cfg)
    assert probe.kinds == []


@pytest.mark.parametrize("algorithm", ["vanilla", "trades_seq", "fast", "free", "free_trades"])
def test_non_finite_weights_fail_fast_naming_update_and_trajectory(algorithm):
    data = _data()
    model = SoftmaxLinear(input_dim=5, class_count=2)
    cfg = _cfg(algorithm, T=40, free_steps=4, trades_lambda=1.0, schedule=StepSchedule("constant", c=1e308))
    pair = make_neighbor(data, 3, data.sample(4))
    with np.errstate(all="ignore"):
        for run in (lambda: train(model, data, cfg), lambda: coupled_run(model, pair, cfg)):
            with pytest.raises(FloatingPointError, match=r"update [1-3] made the weights of trajectory 0 non-finite"):
                run()
