from dataclasses import replace

import numpy as np
import pytest

from advstab.bounds import ConstantEstimates, RegionSampler, estimate_constants, estimate_lipschitz, estimate_psi
from advstab.errors import ConfigError, DimensionError, TraceError
from advstab.models import Dataset, LabeledSample, ScalarLogistic, SoftmaxLinear, TwoLayerTanhMLP, make_model
from advstab.rng import stream
from advstab.stability import (
    RULE_FACTS,
    coupled_run,
    estimate_uniform_stability,
    make_neighbor,
    verify_growth,
    verify_growth_fast,
    verify_growth_free,
    verify_growth_vanilla,
    verify_stepwise_expectation,
)
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet, pgd_attack_batch
from advstab.trainers import RULES, StepSchedule, TrainConfig, train


def _setup(n=30, dim=5, seed=3):
    spec = SyntheticSpec("two_gaussians", n_train=n, n_test=10, dim=dim, noise=1.0, seed=seed)
    data, _ = make_synthetic(spec)
    model = TwoLayerTanhMLP(input_dim=dim, hidden_dim=4, class_count=2)
    return data, model


def _vanilla_cfg(eps=0.3, T=25, seed=5, dim=5, b=6, **kw):
    return TrainConfig(
        "vanilla",
        PerturbationSet("l2", eps, dim),
        kw.pop("schedule", StepSchedule("vanishing_c_over_t", c=0.5)),
        b,
        T,
        seed,
        inner_attack=kw.pop("inner_attack", AttackConfig(steps=3, step_size=1.0)),
        **kw,
    )


def _replacement(dim=5, value=2.0, y=0):
    return LabeledSample(x=np.full(dim, value), y=y)


# -- neighbors ----------------------------------------------------------------


def test_make_neighbor_differs_exactly_once():
    data, _ = _setup()
    rng = stream(70, 0)
    rep = LabeledSample(x=rng.standard_normal(5), y=1)
    pair = make_neighbor(data, 7, rep)
    diff = [i for i in range(data.n) if not np.array_equal(pair.data_a.X[i], pair.data_b.X[i]) or pair.data_a.y[i] != pair.data_b.y[i]]
    assert diff == [7]
    assert pair.differing_index == 7


def test_make_neighbor_identity_replacement():
    data, _ = _setup()
    pair = make_neighbor(data, 0, data.sample(0))
    assert np.array_equal(pair.data_a.X, pair.data_b.X)


def test_make_neighbor_index_range():
    data, _ = _setup()
    with pytest.raises(IndexError):
        make_neighbor(data, data.n, data.sample(0))
    # True would select every row as a mask, and a float is no row index
    for bad in (-1, True, False, 2.0, np.float64(2.0), 2.5):
        for call in (lambda: make_neighbor(data, bad, data.sample(0)), lambda: data.replace_sample(bad, data.sample(0)), lambda: data.sample(bad)):
            with pytest.raises(IndexError, match="index must be an integer >= 0"):
                call()
    pair = make_neighbor(data, np.int64(2), _replacement())
    assert type(pair.differing_index) is int and pair.differing_index == 2
    changed = np.nonzero((pair.data_a.X != pair.data_b.X).any(axis=1))[0]
    assert changed.tolist() == [2] and data.sample(np.int64(2)).y == data.y[2]


def test_make_neighbor_single_sample_dataset():
    data = Dataset(np.ones((1, 2)), np.array([0]))
    pair = make_neighbor(data, 0, LabeledSample(x=np.zeros(2), y=1))
    assert pair.data_b.y[0] == 1 and np.array_equal(pair.data_b.X[0], np.zeros(2))


# -- coupling soundness --------------------------------------------------------


@pytest.mark.parametrize(
    "algorithm,kw",
    [
        ("vanilla", {}),
        ("fast", {}),
        ("free", dict(free_steps=4, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=4))),
        ("free_trades", dict(free_steps=4, trades_lambda=0.5, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=4))),
    ],
)
def test_trivial_pair_divergence_identically_zero(algorithm, kw):
    data, model = _setup()
    cfg = TrainConfig(
        algorithm,
        PerturbationSet("l2", 0.3, 5),
        kw.pop("schedule", StepSchedule("vanishing_c_over_t", c=0.5)),
        6,
        24,
        11,
        inner_attack=AttackConfig(steps=2, step_size=1.0),
        **kw,
    )
    pair = make_neighbor(data, 4, data.sample(4))
    trace = coupled_run(model, pair, cfg)
    assert (trace.d_w == 0.0).all()
    if trace.d_w_inner is not None:
        assert (trace.d_w_inner == 0.0).all()
        assert (trace.d_delta_inner == 0.0).all()


def test_divergence_zero_before_first_encounter():
    data, model = _setup()
    pair = make_neighbor(data, 2, _replacement())
    trace = coupled_run(model, pair, _vanilla_cfg(seed=23))
    first_enc = np.nonzero(trace.s_count > 0)[0]
    assert first_enc.size > 0
    t0 = first_enc[0] + 1
    assert (trace.d_w[:t0] == 0.0).all()
    assert trace.d_w[t0] > 0.0
    assert trace.first_divergence_step() == t0


def test_forced_plan_avoiding_differing_sample_keeps_zero():
    data, model = _setup()
    pair = make_neighbor(data, 0, _replacement())
    cfg = _vanilla_cfg(eps=0.0, T=10)
    plan = stream(99, 0).integers(1, data.n, size=(10, cfg.batch_size))  # never index 0
    trace = coupled_run(model, pair, cfg, batch_plan=plan)
    assert (trace.d_w == 0.0).all()
    assert (trace.s_count == 0).all()


def test_forced_plan_shape_validation():
    data, model = _setup()
    pair = make_neighbor(data, 0, _replacement())
    with pytest.raises(ConfigError):
        coupled_run(model, pair, _vanilla_cfg(T=10), batch_plan=np.zeros((3, 2), dtype=int))
    cfg = _vanilla_cfg(T=10)
    for bad in (-1, data.n):  # the attack takes its rows by index, so an index out of range fails here
        plan = np.zeros((10, cfg.batch_size), dtype=int)
        plan[4, 1] = bad
        with pytest.raises(ConfigError, match="batch_plan indices"):
            coupled_run(model, pair, cfg, batch_plan=plan)
    plan = np.zeros((10, cfg.batch_size))
    plan[4, 1] = 2.5  # not truncated to index 2
    with pytest.raises(ConfigError, match="^batch_plan must be integers, got 2.5$"):
        coupled_run(model, pair, cfg, batch_plan=plan)


def test_a_bool_batch_plan_is_rejected():
    data, model = _setup()
    cfg = _vanilla_cfg(T=10)
    with pytest.raises(ConfigError, match="^batch_plan must be integers, got bool$"):
        coupled_run(model, make_neighbor(data, 0, _replacement()), cfg, batch_plan=np.zeros((10, cfg.batch_size), dtype=bool))


@pytest.mark.parametrize("label", [0.7, True])
def test_a_replacement_label_is_checked_before_it_is_written(label):
    data, _ = _setup()
    x = data.X[0] + 1.0
    with pytest.raises(ValueError, match="^replacement label must be integers, got "):
        make_neighbor(data, 2, LabeledSample(x, y=label))
    pair = make_neighbor(data, 2, LabeledSample(x, y=np.int64(1)))
    assert pair.data_b.y[2] == 1 and pair.data_b.y.dtype == np.int64


def test_encounter_probability_union_bound():
    # empirical Pr(differing sample drawn by t0) <= b*t0/n + 3 SE
    data, model = _setup(n=50, dim=3)
    small = SoftmaxLinear(input_dim=3, class_count=2)
    runs = 120
    t0s = (5, 10, 20)
    firsts = []
    for k in range(runs):
        pair = make_neighbor(data, k % data.n, _replacement(dim=3, value=1.5, y=1))
        cfg = _vanilla_cfg(T=20, seed=1000 + k, dim=3, b=1, inner_attack=AttackConfig(steps=2, step_size=1.0))
        trace = coupled_run(small, pair, cfg)
        enc = np.nonzero(trace.s_count > 0)[0]
        firsts.append(enc[0] + 1 if enc.size else np.inf)
    firsts = np.array(firsts)
    for t0 in t0s:
        p_hat = (firsts <= t0).mean()
        bound = t0 / 50
        se = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / runs)
        assert p_hat <= bound + 3 * se


# -- growth verification --------------------------------------------------------


def _constants_for(model, data, cfg, trace):
    # probe at jittered points of a pilot trajectory: random-direction pair
    # quotients there track what the coupled difference dynamics encounter,
    # which keeps the 10x-deflation negative control meaningful
    from advstab.bounds import TrajectorySampler
    from advstab.trainers import train

    _, pilot = train(model, data, cfg, snapshot_at=range(1, cfg.total_iterations + 1))
    sampler = TrajectorySampler.from_traces([pilot], cfg.pset, data, jitter=0.05)
    psi = estimate_psi(trace).psi
    return estimate_constants(model, sampler, stream(7, 0), probes=600, psi=psi, power_iters=0)


def test_growth_vanilla_passes_with_inflated_constants():
    data, model = _setup()
    pair = make_neighbor(data, 3, _replacement())
    cfg = _vanilla_cfg(seed=31)
    trace = coupled_run(model, pair, cfg)
    consts = _constants_for(model, data, cfg, trace).inflated(1.1)
    rep = verify_growth_vanilla(trace, consts.beta, consts.lipschitz, cfg.pset.radius)
    assert rep.checked_absent > 0 and rep.checked_encounter > 0
    assert rep.violations_absent == 0
    assert rep.passed


def test_growth_vanilla_trivial_pair_no_violations():
    data, model = _setup()
    pair = make_neighbor(data, 3, data.sample(3))
    cfg = _vanilla_cfg(seed=32)
    trace = coupled_run(model, pair, cfg)
    rep = verify_growth_vanilla(trace, 1.0, 1.0, cfg.pset.radius)
    assert rep.violations_absent == 0 and rep.violations_encounter == 0


def test_growth_vanilla_deflated_constants_violate():
    data, model = _setup()
    pair = make_neighbor(data, 3, _replacement())
    cfg = _vanilla_cfg(seed=33, T=40)
    trace = coupled_run(model, pair, cfg)
    consts = _constants_for(model, data, cfg, trace)
    rep = verify_growth_vanilla(trace, consts.beta * 0.02, consts.lipschitz * 0.02, cfg.pset.radius)
    assert rep.violations_absent + rep.violations_encounter > 0


def test_growth_vanilla_rejects_nonpositive_constants():
    data, model = _setup()
    pair = make_neighbor(data, 3, _replacement())
    trace = coupled_run(model, pair, _vanilla_cfg(T=5))
    with pytest.raises(ConfigError):
        verify_growth_vanilla(trace, 0.0, 1.0, 0.3)


@pytest.mark.parametrize("beta, L", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf"))])
def test_growth_vanilla_rejects_non_finite_constants(beta, L):
    # a NaN constant compares false against every bound and would read as no violations
    data, model = _setup()
    trace = coupled_run(model, make_neighbor(data, 3, _replacement()), _vanilla_cfg(T=5))
    with pytest.raises(ConfigError):
        verify_growth_vanilla(trace, beta, L, 0.3)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -5.0])
@pytest.mark.parametrize("verifier", ["vanilla", "fast", "free", "stepwise"])
def test_growth_verifiers_reject_a_non_finite_or_negative_radius(verifier, eps):
    # a NaN radius compares false against every bound and would read as no violations
    data, model = _setup()
    pair = make_neighbor(data, 3, _replacement())
    fast = TrainConfig("fast", PerturbationSet("l2", 0.3, 5), StepSchedule("vanishing_c_over_t", c=0.5), 6, 5, 5)
    call = {
        "vanilla": lambda: verify_growth_vanilla(coupled_run(model, pair, _vanilla_cfg(T=5)), 1.0, 1.0, eps),
        "fast": lambda: verify_growth_fast(coupled_run(model, pair, fast), 1.0, 1.0, 1.0, eps),
        "free": lambda: verify_growth_free(coupled_run(model, pair, _free_cfg(T=8)), 1.0, 1.0, 1.0, eps),
        "stepwise": lambda: verify_stepwise_expectation([coupled_run(model, pair, _free_cfg(T=8))], 1.0, 1.0, 1.0, eps),
    }[verifier]
    with pytest.raises(ConfigError, match="eps must be nonnegative"):
        call()


def test_growth_vanilla_rejects_linf_traces():
    data, model = _setup()
    pair = make_neighbor(data, 3, _replacement())
    cfg = TrainConfig(
        "vanilla",
        PerturbationSet("linf", 0.1, 5),
        StepSchedule("vanishing_c_over_t", c=0.5),
        6,
        5,
        5,
        inner_attack=AttackConfig(steps=2, step_size=1.0),
    )
    trace = coupled_run(model, pair, cfg)
    with pytest.raises(ConfigError):
        verify_growth_vanilla(trace, 1.0, 1.0, 0.1)


def _free_cfg(T=32, m=4, seed=41, **kw):
    return TrainConfig(
        "free",
        PerturbationSet("l2", 0.3, 5),
        StepSchedule("vanishing_c_over_mt", c=0.5, m=m),
        6,
        T,
        seed,
        free_steps=m,
        **kw,
    )


def test_growth_free_iteration_and_stepwise_pass():
    data, model = _setup()
    pair = make_neighbor(data, 5, _replacement())
    cfg = _free_cfg()
    trace = coupled_run(model, pair, cfg)
    consts = _constants_for(model, data, cfg, trace)
    psi_hat = estimate_psi(trace).psi * 1.1
    rep = verify_growth_free(trace, consts.beta * 1.1, consts.lipschitz * 1.1, psi_hat, cfg.pset.radius)
    assert rep.checked_absent > 0
    assert rep.violations_absent == 0
    assert rep.stepwise_violations == 0


def test_growth_free_zero_attack_rate_reduces_to_weight_row():
    # with a zero ascent rate and shared perturbation draws the perturbation
    # distances stay exactly zero
    data, model = _setup()
    pair = make_neighbor(data, 5, _replacement())
    cfg = _free_cfg(attack_lr=0.0)
    trace = coupled_run(model, pair, cfg)
    enc_free = trace.s_count == 0
    assert (trace.d_delta_inner[enc_free] == 0.0).all()


def test_growth_free_m1_stepwise_factor_is_closed_form():
    from advstab.stability import closed_form_contraction

    assert closed_form_contraction(0.37, 2.2, 1) == pytest.approx(1.37, abs=1e-12)
    assert closed_form_contraction(0.0, 5.0, 7) == pytest.approx(1.0, abs=0)


def test_growth_free_requires_iteration_records():
    data, model = _setup()
    pair = make_neighbor(data, 5, _replacement())
    trace = coupled_run(model, pair, _vanilla_cfg(T=5))
    with pytest.raises(TraceError):
        verify_growth_free(trace, 1.0, 1.0, 1.0, 0.3)


def test_growth_free_deflated_constants_violate():
    data, model = _setup()
    pair = make_neighbor(data, 5, _replacement())
    cfg = _free_cfg(T=48, seed=47)
    # force an early encounter so divergence actually accumulates
    plan = stream(48, 0).integers(0, data.n, size=(12, 6))
    plan[0, 0] = 5
    trace = coupled_run(model, pair, cfg, batch_plan=plan)
    assert trace.d_w[-1] > 0
    consts = _constants_for(model, data, cfg, trace)
    psi_hat = estimate_psi(trace).psi
    rep = verify_growth_free(trace, consts.beta * 0.02, consts.lipschitz * 0.02, psi_hat, cfg.pset.radius)
    assert rep.violations_absent + rep.violations_encounter + rep.stepwise_violations > 0


def test_stepwise_expectation_across_runs():
    data, model = _setup()
    traces = []
    for k in range(10):
        pair = make_neighbor(data, k % data.n, _replacement())
        traces.append(coupled_run(model, pair, _free_cfg(T=24, seed=600 + k)))
    consts = _constants_for(model, data, _free_cfg(), traces[0])
    psi_hat = max(estimate_psi(tr).psi for tr in traces) * 1.1
    out = verify_stepwise_expectation(traces, consts.beta * 1.1, consts.lipschitz * 1.1, psi_hat, 0.3)
    assert out["checked"] == traces[0].n_steps
    assert out["violations"] == 0


def test_stepwise_expectation_rejects_a_non_free_or_mixed_family():
    data, model = _setup()
    pair = make_neighbor(data, 5, _replacement())
    free = coupled_run(model, pair, _free_cfg(T=16))
    vanilla = coupled_run(model, pair, _vanilla_cfg(T=4, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=4)))
    args = (1.0, 1.0, 1.0, 0.3)
    with pytest.raises(TraceError, match="trace 0: expected a free-rule trace, got 'vanilla'"):
        verify_stepwise_expectation([vanilla], *args)
    # the rule is checked before the schedule, so a c/t trace names its rule too
    with pytest.raises(TraceError, match="trace 0: expected a free-rule trace, got 'vanilla'"):
        verify_stepwise_expectation([coupled_run(model, pair, _vanilla_cfg(T=4))], *args)
    with pytest.raises(TraceError, match="trace 1: expected a free-rule trace, got 'vanilla'"):
        verify_stepwise_expectation([free, vanilla], *args)
    cfg = free.cfg
    mismatched = {
        "n": replace(free, n=free.n + 1),
        "cfg.batch_size": replace(free, cfg=replace(cfg, batch_size=cfg.batch_size + 1)),
        "cfg.inner_steps": coupled_run(model, pair, _free_cfg(T=16, m=2)),
        "n_steps": coupled_run(model, pair, _free_cfg(T=24)),
        "cfg.schedule": replace(free, cfg=replace(cfg, schedule=StepSchedule("vanishing_c_over_mt", c=0.7, m=4))),
        "cfg.resolved_attack_lr": replace(free, cfg=replace(cfg, attack_lr=2.0 * cfg.resolved_attack_lr)),
    }
    for name, other in mismatched.items():
        with pytest.raises(TraceError, match=f"trace 2 has {name}="):
            verify_stepwise_expectation([free, free, other], *args)
    assert verify_stepwise_expectation([free, free], *args)["runs"] == 2


def test_growth_fast_passes_and_reduces():
    data, model = _setup()
    pair = make_neighbor(data, 6, _replacement())
    cfg = TrainConfig("fast", PerturbationSet("l2", 0.3, 5), StepSchedule("vanishing_c_over_t", c=0.5), 6, 25, 51)
    trace = coupled_run(model, pair, cfg)
    consts = _constants_for(model, data, cfg, trace)
    psi_hat = estimate_psi(trace).psi * 1.1
    rep = verify_growth_fast(trace, consts.beta * 1.1, consts.lipschitz * 1.1, psi_hat, cfg.pset.radius)
    assert rep.violations_absent == 0

    # zero single-step size collapses the factor to the plain smoothness one
    rep0 = verify_growth_fast(replace(trace, cfg=replace(cfg, fast_step=0.0)), consts.beta * 1.1, consts.lipschitz * 1.1, psi_hat, cfg.pset.radius)
    a = trace.alpha_w[0]
    assert (1.0 + a * consts.beta * 1.1 * (1.0 + 0.0)) == pytest.approx(1.0 + a * consts.beta * 1.1, abs=0)
    assert rep0.checked_absent == rep.checked_absent


def test_growth_fast_trivial_pair_no_violations():
    data, model = _setup()
    pair = make_neighbor(data, 6, data.sample(6))
    cfg = TrainConfig("fast", PerturbationSet("l2", 0.3, 5), StepSchedule("vanishing_c_over_t", c=0.5), 6, 20, 52)
    trace = coupled_run(model, pair, cfg)
    rep = verify_growth_fast(trace, 1.0, 1.0, 1.0, 0.3)
    assert rep.violations_absent == 0 and rep.violations_encounter == 0


# -- the per-rule table -----------------------------------------------------------


def test_rule_facts_cover_every_rule_in_report_order():
    assert list(RULE_FACTS) == ["vanilla", "free", "fast"]
    assert set(RULE_FACTS) == set(RULES.values())


@pytest.mark.parametrize("algorithm", sorted(RULES))
def test_verify_growth_equals_the_rule_verifier(algorithm):
    data, model = _setup()
    pair = make_neighbor(data, 4, _replacement())
    pset = PerturbationSet("l2", 0.3, 5)
    trades = 0.5 if algorithm in ("trades_seq", "free_trades") else None
    cfg = TrainConfig(
        algorithm, pset, StepSchedule("vanishing_c_over_t", c=0.5), 6, 24, 61,
        free_steps=4, trades_lambda=trades, inner_attack=AttackConfig(steps=2, step_size=1.0),
    )
    tr = coupled_run(model, pair, cfg)
    assert tr.d_w[-1] > 0
    measured = ConstantEstimates(lipschitz=2.0, lipschitz_w=1.5, beta=3.0, psi=estimate_psi(tr).psi)
    deflated = replace(measured, beta=measured.beta * 0.1, lipschitz=measured.lipschitz * 0.1, lipschitz_w=measured.lipschitz_w * 0.1)
    for k in (measured.inflated(1.1), deflated):
        direct = {
            "vanilla": lambda: verify_growth_vanilla(tr, k.beta, k.lipschitz, tr.cfg.pset.radius),
            "free": lambda: verify_growth_free(tr, k.beta, k.lipschitz, k.psi, tr.cfg.pset.radius),
            "fast": lambda: verify_growth_fast(tr, k.beta, k.lipschitz, k.psi, tr.cfg.pset.radius),
        }[RULES[algorithm]]()
        assert vars(verify_growth(tr, k)) == vars(direct)


def test_verify_growth_rejects_linf_traces():
    data, model = _setup()
    pair = make_neighbor(data, 3, _replacement())
    cfg = TrainConfig("fast", PerturbationSet("linf", 0.1, 5), StepSchedule("vanishing_c_over_t", c=0.5), 6, 5, 5)
    trace = coupled_run(model, pair, cfg)
    with pytest.raises(ConfigError, match="L2"):
        verify_growth(trace, ConstantEstimates(lipschitz=1.0, lipschitz_w=1.0, beta=1.0, psi=1.0))


# -- uniform stability -----------------------------------------------------------


def test_uniform_stability_zero_for_equal_weights():
    data, model = _setup()
    rng = stream(90, 0)
    w = model.init_params(rng)
    pts = data.samples()[:10]
    pset = PerturbationSet("l2", 0.3, 5)
    est = estimate_uniform_stability(w, w.copy(), model, pts, pset, AttackConfig(steps=3, step_size=1.0), stream(91, 0))
    assert est == 0.0


def test_uniform_stability_single_point_is_plain_difference():
    data, model = _setup()
    rng = stream(92, 0)
    w = model.init_params(rng)
    w2 = w + 0.05 * rng.standard_normal(model.param_dim)
    pts = [data.sample(0)]
    pset = PerturbationSet("l2", 0.3, 5)
    atk = AttackConfig(steps=4, step_size=1.0)
    est = estimate_uniform_stability(w, w2, model, pts, pset, atk, stream(93, 0))
    assert est >= 0.0


def _two_attack_uniform_stability(w, w_prime, model, pts, pset, attack, rng):
    """The estimate as it was made: one attack per weight vector, under two
    identical streams, and one loss evaluation each."""
    X = np.stack([p.x for p in pts])
    y = np.array([p.y for p in pts], dtype=np.int64)
    base = int(rng.integers(2**63))
    Da = pgd_attack_batch(model, w, X, y, pset, attack, stream(base, 0))
    Db = pgd_attack_batch(model, w_prime, X, y, pset, attack, stream(base, 0))
    return float(np.abs(model.loss_batch(w, X, y, Da) - model.loss_batch(w_prime, X, y, Db)).max())


@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize(
    "model",
    [SoftmaxLinear(input_dim=5, class_count=3), TwoLayerTanhMLP(input_dim=5, hidden_dim=4, class_count=2), ScalarLogistic(input_dim=5)],
)
def test_uniform_stability_equals_the_two_attack_form(model, restarts):
    data, _ = _setup()
    pts = data.samples()[:12]
    rng = stream(98, restarts)
    for bounded in (False, True):
        m = make_model(model.kind, model.input_dim, model.class_count, model.hidden_dim or 16, bounded)
        for pset in (PerturbationSet("l2", 0.3, 5), PerturbationSet("linf", 0.1, 5)):
            w = m.init_params(rng) + rng.standard_normal(m.param_dim)
            w2 = w + 0.05 * rng.standard_normal(m.param_dim)
            atk = AttackConfig(steps=3, restarts=restarts)
            got = estimate_uniform_stability(w, w2, m, pts, pset, atk, stream(99, restarts))
            want = _two_attack_uniform_stability(w, w2, m, pts, pset, atk, stream(99, restarts))
            assert got == want and got > 0.0


def test_uniform_stability_rejects_weights_of_another_shape():
    data, model = _setup()
    w = np.zeros(model.param_dim)
    pset, atk = PerturbationSet("l2", 0.3, 5), AttackConfig(steps=2, step_size=1.0)
    for w_prime in (np.zeros(model.param_dim + 1), np.zeros((2, model.param_dim))):
        with pytest.raises(DimensionError, match="w_prime"):
            estimate_uniform_stability(w, w_prime, model, data.samples()[:3], pset, atk, stream(94, 1))


@pytest.mark.parametrize("label", [0.7, True])
def test_uniform_stability_rejects_labels_that_are_not_integers(label):
    data, model = _setup()
    w = np.zeros(model.param_dim)
    pset, atk = PerturbationSet("l2", 0.3, 5), AttackConfig(steps=2, step_size=1.0)
    with pytest.raises(ValueError, match="^eval point labels must be integers, got "):
        estimate_uniform_stability(w, w, model, [LabeledSample(data.X[0], label)], pset, atk, stream(94, 2))


def test_stability_trace_serializes_paired_columns():
    data, model = _setup()
    pair = make_neighbor(data, 5, _replacement())
    rows = list(coupled_run(model, pair, _free_cfg(T=8, m=4)).to_records())
    assert len(rows) == 2
    assert {"step", "alpha_w", "d_w", "d_delta", "s_in_batch", "min_grad_delta_norm"} <= set(rows[0])
    vanilla_rows = list(coupled_run(model, pair, _vanilla_cfg(T=3)).to_records())
    assert vanilla_rows[0]["d_delta"] == ""


def test_uniform_stability_empty_eval_set_errors():
    data, model = _setup()
    w = np.zeros(model.param_dim)
    with pytest.raises(DimensionError):
        estimate_uniform_stability(
            w, w, model, [], PerturbationSet("l2", 0.3, 5), AttackConfig(steps=2, step_size=1.0), stream(94, 0)
        )


def test_uniform_stability_respects_lipschitz_cap():
    # |attacked-loss difference| <= lipschitz_w * |w - w'| + surrogate slack
    data, model = _setup()
    pset = PerturbationSet("l2", 0.3, 5)
    box = 0.8 * np.ones(model.param_dim)
    sampler = RegionSampler(w_low=-box, w_high=box, pset=pset, X=data.X, y=data.y)
    _, Lw = estimate_lipschitz(model, sampler, probes=6000, rng=stream(95, 0))
    atk = AttackConfig(steps=12, step_size=1.0)
    rng = stream(96, 0)
    pts = data.samples()[:15]
    for trial in range(30):
        w = rng.uniform(-0.75, 0.75, size=model.param_dim)
        delta_w = rng.standard_normal(model.param_dim)
        delta_w *= rng.uniform(0.01, 0.05) / np.linalg.norm(delta_w)
        w2 = w + delta_w
        est = estimate_uniform_stability(w, w2, model, pts, pset, atk, stream(97, trial))
        assert est <= Lw * np.linalg.norm(w - w2) + 1e-3


# -- each half of a coupled run is a standalone train run ------------------------


@pytest.mark.parametrize(
    "algorithm,kw",
    [
        ("vanilla", {}),
        ("trades_seq", dict(trades_lambda=0.5)),
        ("fast", {}),
        ("free", dict(free_steps=4, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=4))),
        ("free_trades", dict(free_steps=4, trades_lambda=0.5, schedule=StepSchedule("vanishing_c_over_mt", c=0.5, m=4))),
    ],
)
def test_coupled_halves_equal_standalone_train(algorithm, kw):
    data, model = _setup(n=40)
    T = 60
    base = TrainConfig(
        algorithm,
        PerturbationSet("l2", 0.3, 5),
        kw.pop("schedule", StepSchedule("vanishing_c_over_t", c=0.5)),
        8,
        T,
        0,
        inner_attack=AttackConfig(steps=3, step_size=1.0),
        **kw,
    )
    for k in range(5):
        cfg = base.with_seed(60 + k)
        pair = make_neighbor(data, (7 * k + 2) % data.n, _replacement(value=1.5 - k, y=k % 2))
        trace = coupled_run(model, pair, cfg)
        wa, tr_a = train(model, pair.data_a, cfg, snapshot_at=range(1, T + 1))
        wb, tr_b = train(model, pair.data_b, cfg, snapshot_at=range(1, T + 1))
        assert np.array_equal(trace.w_final_a, wa)
        assert np.array_equal(trace.w_final_b, wb)
        m = trace.cfg.inner_steps
        assert trace.d_w[0] == 0.0
        for t in range(1, trace.n_steps + 1):
            assert trace.d_w[t] == np.linalg.norm(tr_a.snapshots[t * m] - tr_b.snapshots[t * m]), t
        per_update = np.minimum(tr_a.min_grad_delta, tr_b.min_grad_delta)
        assert np.array_equal(trace.min_grad_delta, per_update.reshape(trace.n_steps, m).min(axis=1))
        assert trace.first_divergence_step() is not None
