from dataclasses import replace

import numpy as np
import pytest

from advstab import trainers
from advstab.bounds import estimate_psi
from advstab.errors import ConfigError, DimensionError
from advstab.models import Dataset, LabeledSample, SoftmaxLinear, TwoLayerTanhMLP
from advstab.rng import stream
from advstab.stability import coupled_run, make_neighbor
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet, ascend_rows
from advstab.trainers import (
    STREAM_ATTACK,
    STREAM_DELTA,
    STREAM_INIT,
    StepSchedule,
    TrainConfig,
    batch_indices,
    fast_batch_step,
    free_inner_iteration,
    lockstep,
    step_size,
    trades_batch_loss_and_grads,
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


def test_negative_attack_lr_rejected():
    with pytest.raises(ConfigError, match="attack_lr must be nonnegative, got -0.5"):
        _cfg("free", T=8, free_steps=4, attack_lr=-0.5)
    assert _cfg("free", T=8, free_steps=4, attack_lr=0.0).resolved_attack_lr == 0.0


def test_negative_fast_step_rejected():
    with pytest.raises(ConfigError, match="fast_step must be nonnegative, got -0.2"):
        _cfg("fast", fast_step=-0.2)
    assert _cfg("fast", fast_step=0.0).resolved_fast_step == 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: StepSchedule("constant", c=v),
        lambda v: _cfg("free", T=8, free_steps=4, attack_lr=v),
        lambda v: _cfg("fast", fast_step=v),
        lambda v: _cfg("free_trades", T=8, free_steps=4, trades_lambda=v),
    ],
    ids=["schedule.c", "attack_lr", "fast_step", "trades_lambda"],
)
def test_sign_checked_fields_reject_non_finite(make, value):
    with pytest.raises(ConfigError):
        make(value)


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
        assert np.array_equal(tr1.loss, tr2.loss)


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
        # every row is written: an unfilled row would read step 0
        m = kw.get("free_steps", 1)
        assert trace.step.tolist() == [u // m + 1 for u in range(expected)]
        assert trace.iteration.tolist() == [u % m + 1 for u in range(expected)]
        assert [r["t"] for r in trace.to_records()] == list(range(1, 13))


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
    assert len(trace) == 0


def test_batch_stream_is_pure_function_of_seed():
    a = batch_indices(9, 4, 30, 8)
    b = batch_indices(9, 4, 30, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, batch_indices(9, 5, 30, 8))


# -- the draws are the addressed ones ------------------------------------------
#
# lockstep re-keys one generator per stream kind from keys derived in bulk;
# these pin its draws to ``stream`` at each step's address.

ADDRESS_SEEDS = [5, 2**32 + 9]


@pytest.mark.parametrize("seed", ADDRESS_SEEDS)
@pytest.mark.parametrize("algorithm, kw", [("vanilla", {}), ("fast", {}), ("free", dict(free_steps=4))])
def test_batches_are_the_addressed_batches(algorithm, kw, seed):
    data = _data()
    cfg = _cfg(algorithm, T=12, seed=seed, **kw)
    _, trace = train(_mlp(), data, cfg)
    for u in range(len(trace)):
        assert np.array_equal(trace.batch[u], batch_indices(seed, int(trace.step[u]), data.n, cfg.batch_size))


@pytest.mark.parametrize("seed", ADDRESS_SEEDS)
def test_free_starts_are_the_addressed_draws(seed):
    # with a zero ascent rate the carried perturbations stay at each step's start
    data = _data()
    cfg = _cfg("free", T=12, seed=seed, free_steps=3, attack_lr=0.0)
    for t, i, _, _, _, deltas, _ in list(lockstep(_mlp(), [data], cfg))[1:]:
        want = cfg.pset.sample_uniform(stream(seed, STREAM_DELTA, t), size=cfg.batch_size)
        assert np.array_equal(deltas[0], want), (t, i)


@pytest.mark.parametrize("seed", ADDRESS_SEEDS)
@pytest.mark.parametrize("algorithm", ["vanilla", "trades_seq", "fast", "free", "free_trades"])
def test_attack_draws_are_the_addressed_draws(algorithm, seed):
    # an unstacked reference loop: each update on its own rows through a
    # fresh binding, each step's stream built at its address
    data, model = _data(), _mlp()
    attack = AttackConfig(steps=2, step_size=0.5, restarts=2)
    cfg = _cfg(algorithm, T=6, seed=seed, free_steps=3, trades_lambda=0.5, inner_attack=attack)
    w_ref, rows = model.init_params(stream(seed, STREAM_INIT)), []
    for t in range(1, 6 // cfg.inner_steps + 1):
        idx = batch_indices(seed, t, data.n, cfg.batch_size)
        X, y, aw = data.X[idx], data.y[idx], step_size(cfg.schedule, t)
        bind = trainers._bind_attack(model, X, y, cfg.lam).point
        if cfg.rule == "vanilla":
            rng = stream(seed, STREAM_ATTACK, t)
            w_ref, stats = vanilla_batch_step(model, bind(w_ref), w_ref, aw, cfg.pset, attack, rng, cfg.lam)
            rows.append(stats)
            continue
        deltas = cfg.pset.sample_uniform(stream(seed, STREAM_DELTA, t), size=cfg.batch_size)
        if cfg.rule == "fast":
            w_ref, stats = fast_batch_step(bind(w_ref), w_ref, aw, cfg.resolved_fast_step, cfg.pset, deltas)
            rows.append(stats)
            continue
        lr = cfg.resolved_attack_lr
        for _ in range(cfg.inner_steps):
            w_ref, deltas, stats = free_inner_iteration(model, bind(w_ref), w_ref, deltas, aw, lr, cfg.pset, cfg.lam)
            rows.append(stats)
    w, trace = train(model, data, cfg)
    assert np.array_equal(w, w_ref)
    for j, column in enumerate((trace.loss, trace.grad_w_norm, trace.min_grad_delta)):
        assert np.array_equal(column, [stats[j] for stats in rows]), j


def test_lockstep_needs_a_dataset():
    with pytest.raises(DimensionError, match="at least one dataset"):
        next(lockstep(_mlp(), [], _cfg("vanilla")))


@pytest.mark.parametrize("T", [8, 60])
@pytest.mark.parametrize("algorithm, kw", [("vanilla", {}), ("fast", {}), ("free", dict(free_steps=4))])
def test_training_builds_one_stream_per_run(monkeypatch, algorithm, kw, T):
    # only the initialization goes through stream(); the steps re-key
    built = []

    def counted(seed, *path):
        built.append(path)
        return stream(seed, *path)

    monkeypatch.setattr(trainers, "stream", counted)
    data = _data()
    cfg = _cfg(algorithm, T=T, inner_attack=AttackConfig(steps=1, step_size=1.0), **kw)
    train(_mlp(), data, cfg)
    assert built == [(STREAM_INIT,)]
    built.clear()
    coupled_run(_mlp(), make_neighbor(data, 3, data.sample(4)), cfg)
    assert built == [(STREAM_INIT,)]


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
        oracle = model.attack_oracle(data.X[idx], data.y[idx]).point(w_ref)
        w_ref, _, _ = free_inner_iteration(model, oracle, w_ref, deltas, 0.3, cfg.resolved_attack_lr, cfg.pset)
    assert np.array_equal(w, w_ref)


def test_free_zero_attack_rate_keeps_deltas_at_init():
    data = _data()
    model = _mlp()
    pset = PerturbationSet("l2", 0.3, 5)
    rng = stream(77, 0)
    w = model.init_params(rng)
    X, y = data.X[:6], data.y[:6]
    deltas = pset.sample_uniform(stream(77, 1), size=6)
    w2, new_deltas, _ = free_inner_iteration(model, model.attack_oracle(X, y).point(w), w, deltas, 0.2, 0.0, pset)
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
    assert tr_a.step.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]
    assert tr_b.step.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]
    assert not np.array_equal(tr_a.loss, tr_b.loss)


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
    w2, _ = fast_batch_step(model.attack_oracle(X, y).point(w), w, 0.1, step, pset, delta0)
    _, _, G0 = model.batch_loss_and_grads(w, X, y, delta0)
    g = G0[0]
    stepped = delta0[0] + step * pset.radius * g / np.linalg.norm(g)
    nrm = np.linalg.norm(stepped)
    if nrm > pset.radius:
        stepped = stepped * pset.radius / nrm
    _, gw, _ = model.batch_loss_and_grads(w, X, y, stepped[None, :])
    assert np.abs(w2 - (w - 0.1 * gw)).max() < 1e-12


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_fast_step_stats_come_from_the_start_gradient_and_the_weight_step(norm):
    # the start gradient lives in the binding only until the weight step's call
    model, data = _mlp(), _data()
    pset = PerturbationSet(norm, 0.4, 5)
    rng = stream(87, 0)
    w = model.init_params(rng) + 0.5 * rng.standard_normal(model.param_dim)
    X, y = data.X[:6], data.y[:6]
    delta0 = pset.sample_uniform(stream(87, 1), size=6)
    _, _, G0 = model.batch_loss_and_grads(w, X, y, delta0)
    losses, gw, _ = model.batch_loss_and_grads(w, X, y, ascend_rows(delta0, G0, 0.3, pset))
    want = (float(losses.mean()), float(np.linalg.norm(gw)), float(np.linalg.norm(G0, axis=1).min()))
    w2, stats = fast_batch_step(model.attack_oracle(X, y).point(w), w, 0.2, 0.3, pset, delta0)
    assert np.array_equal(w2, w - 0.2 * gw) and stats == want


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
    w_fast, _ = fast_batch_step(model.attack_oracle(X, y).point(w), w, 0.2, step, pset, delta0)

    class PinnedInit:
        def sample_uniform(self, rng_, size=None):
            return delta0.copy()

        norm = pset.norm
        radius = pset.radius
        dim = pset.dim

    w_van, _ = vanilla_batch_step(
        model, model.attack_oracle(X, y).point(w), w, 0.2, PinnedInit(), AttackConfig(steps=1, step_size=step, init="uniform"), stream(0, 0)
    )
    assert np.array_equal(w_fast, w_van)


# -- TRADES ------------------------------------------------------------------


def _clean_loss(model, w, s):
    """The clean loss at one sample: a batch of one row."""
    return float(model.loss_batch(w, s.x[None], [s.y], np.zeros((1, s.x.size)))[0])


def _trades_loss(model, w, delta, s, lam):
    """The surrogate loss at one sample: a batch of one row."""
    return float(trades_batch_loss_and_grads(model, w, s.x[None], [s.y], np.asarray(delta)[None], lam)[0][0])


def test_trades_zero_delta_consistency_term_vanishes():
    model = _mlp()
    rng = stream(82, 0)
    w = model.init_params(rng)
    s = LabeledSample(x=rng.standard_normal(5), y=1)
    clean = _clean_loss(model, w, s)
    assert _trades_loss(model, w, np.zeros(5), s, lam=2.0) == pytest.approx(clean, abs=1e-15)


def test_trades_lambda_limit_recovers_clean_loss():
    model = _mlp()
    rng = stream(83, 0)
    w = model.init_params(rng)
    s = LabeledSample(x=rng.standard_normal(5), y=0)
    delta = 0.2 * rng.standard_normal(5)
    clean = _clean_loss(model, w, s)
    assert _trades_loss(model, w, delta, s, lam=1e9) == pytest.approx(clean, abs=1e-6)


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
            return _trades_loss(model, v, delta, s, lam)

        def f_d(v):
            return _trades_loss(model, w, v, s, lam)

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
        _trades_loss(model, np.zeros(model.param_dim), np.zeros(5), s, lam=0.0)


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
    full-oracle calls (checked or unchecked, direct or through a bound
    oracle) in ``calls``, attack-only calls (through a bound oracle) in
    ``attack_calls``, and the order of both kinds in ``kinds``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.attack_calls = []
        self.kinds = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def batch_loss_and_grads(self, w, X, y, deltas=None, **checked):
        self.calls.append((w.copy(), None if deltas is None else np.asarray(deltas).copy()))
        self.kinds.append("full")
        return self.inner.batch_loss_and_grads(w, X, y, deltas, **checked)

    def attack_oracle(self, X, y, rows=None):
        oracle, probe = self.inner.attack_oracle(X, y, rows), self

        class Counted:
            """The bound oracle, counting each call at the weights it is pointed at."""

            def __getattr__(self, name):
                return getattr(oracle, name)

            def point(self, w, idx=None):
                oracle.point(w, idx)
                return self

            def __call__(self, deltas, losses=True):
                probe.attack_calls.append((oracle.w.copy(), np.asarray(deltas).copy()))
                probe.kinds.append("attack")
                return oracle(deltas, losses)

            def full(self, deltas):
                probe.calls.append((oracle.w.copy(), np.asarray(deltas).copy()))
                probe.kinds.append("full")
                return oracle.full(deltas)

        return Counted()


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
    w2, d2, _ = free_inner_iteration(probe, probe.attack_oracle(data.X[:6], data.y[:6]).point(w), w, deltas, 0.2, 0.5, pset)
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


@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize("algorithm, kw", [("vanilla", {}), ("fast", {}), ("free", dict(free_steps=4))])
def test_stated_cost_is_the_counted_cost(algorithm, kw, restarts):
    data, K, U = _data(), 3, 8
    cfg = _cfg(algorithm, T=U, inner_attack=AttackConfig(steps=K, step_size=1.0, restarts=restarts), **kw)
    oracle, forward = {"vanilla": (K * restarts + 1, restarts if restarts > 1 else 0), "fast": (2, 0), "free": (1, 0)}[algorithm]
    assert (cfg.oracle_per_update, cfg.forward_per_update) == (oracle, forward)
    # every call the model receives per update: attack steps, restart scoring and weight steps
    probe = CountingModel(_mlp())
    seen = [len(probe.kinds) for _ in lockstep(probe, [data], cfg)]
    assert np.diff(seen).tolist() == [oracle + forward] * U
    _, trace = train(_mlp(), data, cfg)
    assert (trace.oracle_calls, trace.forward_calls) == (U * oracle, U * forward)


def test_stored_deltas_stay_feasible_along_free_runs():
    data = _data()
    model = _mlp()
    pset = PerturbationSet("l2", 0.25, 5)
    rng = stream(86, 0)
    w = model.init_params(rng)
    deltas = pset.sample_uniform(stream(86, 1), size=6)
    oracle = model.attack_oracle(data.X[:6], data.y[:6])
    for _ in range(25):
        w, deltas, _ = free_inner_iteration(model, oracle.point(w), w, deltas, 0.1, 0.8, pset)
        assert (np.linalg.norm(deltas, axis=1) <= pset.radius + 1e-12).all()


def test_trace_serialization_fields():
    data = _data()
    cfg = _cfg("free", T=8, free_steps=4)
    _, trace = train(_mlp(), data, cfg)
    rows = list(trace.to_records())
    assert len(rows) == 8
    assert set(rows[0]) == {"t", "step", "iteration", "alpha_w", "batch", "grad_w_norm", "min_grad_delta_norm", "loss"}
    assert rows[0]["batch"].count("|") == cfg.batch_size - 1


@pytest.mark.parametrize(
    "algorithm, kw",
    [
        ("vanilla", {}),
        ("trades_seq", dict(trades_lambda=0.5)),
        ("fast", {}),
        ("free", dict(free_steps=4)),
        ("free_trades", dict(free_steps=4, trades_lambda=0.5)),
    ],
)
def test_trace_columns_hold_what_lockstep_yields(algorithm, kw):
    data, model = _data(), _mlp()
    cfg = _cfg(algorithm, T=8, **kw)
    _, trace = train(model, data, cfg, snapshot_at=np.array([2, 8]))
    updates = list(lockstep(model, [data], cfg))[1:]
    assert len(trace) == len(updates) == 8
    assert sorted(trace.snapshots) == [2, 8]
    for u, (t, i, aw, idx, (w,), _, (loss, gw, mgd)) in enumerate(updates):
        if u + 1 in trace.snapshots:
            assert np.array_equal(trace.snapshots[u + 1], w)
        assert (trace.step[u], trace.iteration[u], trace.alpha_w[u]) == (t, i, aw)
        assert np.array_equal(trace.batch[u], idx)
        assert trace.grad_w_norm[u] == gw[0]
        assert trace.min_grad_delta[u] == mgd[0]
        assert trace.loss[u] == loss[0]
    psi, psi_column = estimate_psi(trace), estimate_psi(trace.min_grad_delta)
    assert (psi.psi, psi.min_norm, psi.degenerate) == (psi_column.psi, psi_column.min_norm, psi_column.degenerate)
    assert np.array_equal(psi.series, psi_column.series)
    assert psi.min_norm == trace.min_grad_delta_norm()

    _, empty = train(model, data, _cfg(algorithm, T=0, **kw))
    for name in ("step", "iteration", "alpha_w", "grad_w_norm", "min_grad_delta", "loss"):
        assert getattr(empty, name).shape == (0,), name
    assert empty.batch.shape == (0, cfg.batch_size)
    assert empty.min_grad_delta_norm() == float("inf")
    assert list(empty.to_records()) == []


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
        assert tr1.loss[-1] < tr1.loss[0]


def test_descent_on_smooth_objective():
    # small radius, vanishing steps: the final loss drops below the initial
    # one for every seed probed
    data = _data(n=40)
    model = _mlp()
    for seed in range(20):
        cfg = _cfg("vanilla", eps=0.05, T=40, seed=seed, schedule=StepSchedule("constant", c=0.3))
        _, trace = train(model, data, cfg)
        assert trace.loss[-1] < trace.loss[0]


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


def test_the_attack_still_checks_its_inputs_by_default():
    data, model = _data(), _mlp()
    w, X, y = model.init_params(stream(91, 0)), data.X[:6], data.y[:6]
    pset, cfg = PerturbationSet("l2", 0.3, 5), AttackConfig(steps=2)
    with pytest.raises(ValueError, match="label"):
        trainers.pgd_attack_batch(model, w, X, np.full(6, 2), pset, cfg, stream(91, 1))
    with pytest.raises(DimensionError):
        trainers.pgd_attack_batch(model, w, X, y[:5], pset, cfg, stream(91, 1))
    with pytest.raises(DimensionError):
        trainers.pgd_attack_batch(model, w[:-1], X, y, pset, cfg, stream(91, 1))
    with pytest.raises(DimensionError):
        trainers.pgd_attack_batch(model, w, X, y, PerturbationSet("l2", 0.3, 4), cfg, stream(91, 1))
    # an attack on a given oracle reads only the shape of X, checked all the same
    oracle = model.attack_oracle(X, y).point(w)
    with pytest.raises(DimensionError, match="perturbation set dimension 4"):
        trainers.pgd_attack_batch(model, w, X, y, PerturbationSet("l2", 0.3, 4), cfg, stream(91, 1), loss_grad_fn=oracle)


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


@pytest.mark.parametrize("bad", [[-1, 0, 1], [0, 2, 1], [0, 1]])
def test_trades_oracle_checks_labels(bad):
    model = _mlp()
    rng = stream(61, 0)
    w = model.init_params(rng)
    X = rng.standard_normal((3, 5))
    D = 0.1 * rng.standard_normal((3, 5))
    with pytest.raises(ValueError, match="label" if len(bad) == 3 else "batch size"):
        trades_batch_loss_and_grads(model, w, X, bad, D, 1.0)
