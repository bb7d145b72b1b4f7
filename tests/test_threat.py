import numpy as np
import pytest

from advstab.errors import ConfigError, DegenerateGradientError, DimensionError
from advstab.models import Dataset, LabeledSample, ScalarLogistic, SoftmaxLinear
from advstab.rng import stream
from advstab.threat import (
    AttackConfig,
    PerturbationSet,
    empirical_robust_risk,
    pgd_attack_batch,
    project_extreme,
    project_onto_set,
    projgrad_identity_check,
)


def _loss(model, w, delta, s):
    """The loss at one sample: a batch of one row."""
    return float(model.loss_batch(w, s.x[None], [s.y], np.asarray(delta)[None])[0])


def _attack(model, w, s, pset, cfg, rng):
    """The attack on one sample: a batch of one row."""
    return pgd_attack_batch(model, w, s.x[None], [s.y], pset, cfg, rng)[0]


def _robust_loss(model, w, s, pset, cfg, rng):
    """The loss at one sample's attacked point."""
    return _loss(model, w, _attack(model, w, s, pset, cfg, rng), s)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_radius_and_step_size_reject_non_finite(value):
    with pytest.raises(ConfigError):
        PerturbationSet("l2", value, 2)
    with pytest.raises(ConfigError):
        AttackConfig(step_size=value)


def test_l2_projection_radial_scaling():
    pset = PerturbationSet("l2", 1.0, 2)
    assert project_onto_set(np.array([3.0, 4.0]), pset) == pytest.approx([0.6, 0.8], abs=1e-15)


def test_linf_projection_clamps():
    pset = PerturbationSet("linf", 0.5, 2)
    assert project_onto_set(np.array([0.2, -3.0]), pset) == pytest.approx([0.2, -0.5], abs=0)


def test_projection_identity_inside_ball():
    pset = PerturbationSet("l2", 2.0, 3)
    g = np.array([0.3, -0.4, 0.5])
    assert np.array_equal(project_onto_set(g, pset), g)


def test_extreme_projection_l2():
    pset = PerturbationSet("l2", 2.0, 2)
    assert project_extreme(np.array([0.0, 5.0]), pset) == pytest.approx([0.0, 2.0], abs=1e-15)


def test_extreme_projection_linf_sign_map_with_tiebreak():
    pset = PerturbationSet("linf", 1.0, 3)
    out = project_extreme(np.array([-0.3, 0.0, 7.0]), pset)
    assert np.array_equal(out, np.array([-1.0, 1.0, 1.0]))


def test_extreme_projection_l2_zero_raises():
    pset = PerturbationSet("l2", 1.0, 2)
    with pytest.raises(DegenerateGradientError):
        project_extreme(np.zeros(2), pset)


def test_extreme_projection_l2_is_argmin_over_sphere():
    # brute force: no sampled extreme point is closer than the projection
    pset = PerturbationSet("l2", 1.0, 3)
    rng = stream(40, 0)
    dirs = rng.standard_normal((10_000, 3))
    sphere = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    for _ in range(20):
        g = rng.standard_normal(3) * rng.uniform(0.1, 4.0)
        p = project_extreme(g, pset)
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
        assert p @ g > 0  # positively collinear
        best = np.linalg.norm(sphere - g, axis=1).min()
        assert np.linalg.norm(g - p) <= best + 1e-9


def test_projection_optimality_against_random_points():
    rng = stream(41, 0)
    for norm in ("l2", "linf"):
        pset = PerturbationSet(norm, 0.8, 4)
        pool = pset.sample_uniform(rng, size=100_000)
        for _ in range(100):
            g = 2.0 * rng.standard_normal(4)
            p = project_onto_set(g, pset)
            assert pset.contains(p)
            assert np.linalg.norm(g - p) <= np.linalg.norm(pool - g, axis=1).min() + 1e-12


def test_projgrad_identity_examples():
    pset = PerturbationSet("l2", 1.0, 2)
    assert projgrad_identity_check(np.array([0.2, 0.0]), pset, psi=10.0) is True
    pset2 = PerturbationSet("l2", 0.5, 2)
    assert projgrad_identity_check(np.array([3.0, 4.0]), pset2, psi=4.0) is True
    # below the gradient-norm floor the identity is not applicable
    assert projgrad_identity_check(np.array([0.01, 0.0]), pset, psi=10.0) is None


def test_projgrad_identity_random_sweep():
    rng = stream(42, 0)
    for _ in range(300):
        dim = int(rng.integers(2, 8))
        g = rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
        eps = float(rng.uniform(0.05, 2.0))
        psi = float(1.0 / (np.linalg.norm(g) * rng.uniform(0.1, 1.0)))
        assert projgrad_identity_check(g, PerturbationSet("l2", eps, dim), psi) is True


def test_projgrad_identity_rejects_linf():
    with pytest.raises(ConfigError):
        projgrad_identity_check(np.ones(2), PerturbationSet("linf", 1.0, 2), 1.0)


def _logistic_setup():
    model = ScalarLogistic(input_dim=2)
    w = np.array([1.0, -2.0])
    sample = LabeledSample(x=np.array([0.5, 0.5]), y=0)
    return model, w, sample


def test_pgd_zero_radius_returns_zero_and_clean_loss():
    model, w, sample = _logistic_setup()
    pset = PerturbationSet("l2", 0.0, 2)
    cfg = AttackConfig(steps=5, step_size=1.0)
    delta = _attack(model, w, sample, pset, cfg, stream(43, 0))
    assert np.array_equal(delta, np.zeros(2))
    assert _robust_loss(model, w, sample, pset, cfg, stream(43, 0)) == _loss(model, w, np.zeros(2), sample)


def test_pgd_single_step_closed_form():
    model = SoftmaxLinear(input_dim=3, class_count=3)
    rng = stream(44, 0)
    w = model.init_params(rng) + rng.standard_normal(model.param_dim)
    sample = LabeledSample(x=rng.standard_normal(3), y=1)
    pset = PerturbationSet("l2", 0.7, 3)
    alpha = pset.radius / 4
    cfg = AttackConfig(steps=1, step_size=alpha, init="zero")
    got = _attack(model, w, sample, pset, cfg, stream(45, 0))
    g = model.batch_loss_and_grads(w, sample.x[None], [sample.y], np.zeros((1, 3)))[2][0]
    expected = project_onto_set(alpha * pset.radius * g / np.linalg.norm(g), pset)
    assert np.abs(got - expected).max() < 1e-12


def test_pgd_beats_random_search_on_linear_logits():
    # loss is convex in delta for linear logits, so the attack should beat
    # random feasible probes; per-step movement is step_size * radius, so
    # pick a step size that lets K steps traverse the ball
    model = SoftmaxLinear(input_dim=4, class_count=2)
    rng = stream(46, 0)
    pset = PerturbationSet("l2", 0.5, 4)
    cfg = AttackConfig(steps=20, step_size=1.0, init="uniform")
    wins = 0
    for trial in range(100):
        w = model.init_params(rng) + rng.standard_normal(model.param_dim)
        sample = LabeledSample(x=rng.standard_normal(4), y=int(rng.integers(2)))
        attacked = _robust_loss(model, w, sample, pset, cfg, stream(47, trial))
        probes = pset.sample_uniform(stream(48, trial), size=100)
        probe_losses = model.loss_batch(w, np.tile(sample.x, (100, 1)), np.full(100, sample.y), probes)
        wins += attacked >= probe_losses.max()
    assert wins == 100


def test_robust_loss_at_least_clean_with_zero_start():
    model, w, sample = _logistic_setup()
    pset = PerturbationSet("l2", 0.4, 2)
    cfg = AttackConfig(steps=10, step_size=0.1, init="zero")
    assert _robust_loss(model, w, sample, pset, cfg, stream(49, 0)) >= _loss(model, w, np.zeros(2), sample)


def test_robust_loss_matches_grid_search():
    model, w, sample = _logistic_setup()
    eps = 0.1
    pset = PerturbationSet("l2", eps, 2)
    cfg = AttackConfig(steps=40, step_size=1.0, init="uniform", restarts=2)
    got = _robust_loss(model, w, sample, pset, cfg, stream(50, 0))
    ax = np.linspace(-eps, eps, 100)
    gx, gy = np.meshgrid(ax, ax)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    grid = grid[np.linalg.norm(grid, axis=1) <= eps]
    losses = model.loss_batch(w, np.tile(sample.x, (len(grid), 1)), np.full(len(grid), sample.y), grid)
    assert abs(got - losses.max()) < 1e-3
    assert got >= losses.max() - 1e-3


def test_attack_strength_monotone_in_steps():
    model = SoftmaxLinear(input_dim=3, class_count=2)
    rng = stream(51, 0)
    pset = PerturbationSet("l2", 0.5, 3)
    means = []
    for steps in (1, 3, 10):
        cfg = AttackConfig(steps=steps, step_size=pset.radius / 4, init="zero")
        tot = 0.0
        for trial in range(100):
            w = model.init_params(stream(52, trial)) + stream(53, trial).standard_normal(model.param_dim)
            sample = LabeledSample(x=stream(54, trial).standard_normal(3), y=0)
            tot += _robust_loss(model, w, sample, pset, cfg, stream(55, trial))
        means.append(tot / 100)
    assert means[0] <= means[1] + 1e-12 <= means[2] + 2e-12


def test_empirical_robust_risk_trivial_cases():
    model = SoftmaxLinear(input_dim=2, class_count=2)
    rng = stream(56, 0)
    w = model.init_params(rng) + rng.standard_normal(model.param_dim)
    data = Dataset(rng.standard_normal((6, 2)), rng.integers(0, 2, size=6))
    pset0 = PerturbationSet("l2", 0.0, 2)
    cfg = AttackConfig(steps=3, step_size=0.1)
    risk0, acc0 = empirical_robust_risk(model, w, data, pset0, cfg, stream(57, 0))
    clean = model.loss_batch(w, data.X, data.y).mean()
    clean_acc = (model.predict_batch(w, data.X) == data.y).mean()
    assert risk0 == pytest.approx(clean, abs=1e-15)
    assert acc0 == pytest.approx(clean_acc, abs=0)
    # single sample equals that sample's attacked loss
    one = Dataset(data.X[:1], data.y[:1])
    pset = PerturbationSet("l2", 0.3, 2)
    risk1, _ = empirical_robust_risk(model, w, one, pset, cfg, stream(58, 0))
    assert risk1 == pytest.approx(_robust_loss(model, w, one.sample(0), pset, cfg, stream(58, 0)), abs=1e-15)
    # duplication leaves the mean unchanged (deterministic zero-init attack,
    # so each duplicate is attacked identically)
    det = AttackConfig(steps=3, step_size=0.5, init="zero")
    doubled = Dataset(np.vstack([data.X, data.X]), np.concatenate([data.y, data.y]))
    r1, a1 = empirical_robust_risk(model, w, data, pset, det, stream(59, 0))
    r2, a2 = empirical_robust_risk(model, w, doubled, pset, det, stream(59, 0))
    assert r1 == pytest.approx(r2, abs=1e-12) and a1 == pytest.approx(a2, abs=1e-12)


def _counting(model):
    """A copy of ``model`` that counts its forward passes."""

    class Counting(type(model)):
        def _bound_pass(self, w, U):
            Z, forward, *grads = super()._bound_pass(w, U)

            def counted(V):
                self.forwards += 1
                forward(V)

            return (Z, counted, *grads)

    counted = Counting(**model._ctor_args())
    counted.forwards = 0
    return counted


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("model", [SoftmaxLinear(input_dim=3, class_count=3), ScalarLogistic(input_dim=3)])
def test_empirical_robust_risk_one_forward_pass_after_attack(model, bounded):
    model = model.with_bounded(bounded)
    rng = stream(62, 0)
    w = model.init_params(rng) + rng.standard_normal(model.param_dim)
    data = Dataset(rng.standard_normal((9, 3)), rng.integers(0, model.class_count, size=9))
    pset = PerturbationSet("l2", 0.4, 3)
    cfg = AttackConfig(steps=4, step_size=0.1, restarts=2)
    # the two-call evaluation it replaces: an attack, then loss_batch and predict_batch
    deltas = pgd_attack_batch(model, w, data.X, data.y, pset, cfg, stream(63, 0))
    old_risk = float(model.loss_batch(w, data.X, data.y, deltas).mean())
    old_acc = float((model.predict_batch(w, data.X, deltas) == data.y).mean())
    counted = _counting(model)
    risk, acc = empirical_robust_risk(counted, w, data, pset, cfg, stream(63, 0))
    assert risk == old_risk and acc == old_acc
    # 4 steps x 2 restarts, the 2 restart losses, then one evaluation pass
    assert counted.forwards == 4 * 2 + 2 + 1


def test_attack_feasibility_everywhere():
    model = SoftmaxLinear(input_dim=4, class_count=3)
    rng = stream(60, 0)
    for norm in ("l2", "linf"):
        pset = PerturbationSet(norm, 0.25, 4)
        cfg = AttackConfig(steps=7, step_size=0.2, init="uniform", restarts=2)
        for trial in range(20):
            w = model.init_params(rng) + rng.standard_normal(model.param_dim)
            sample = LabeledSample(x=rng.standard_normal(4), y=int(rng.integers(3)))
            delta = _attack(model, w, sample, pset, cfg, stream(61, trial))
            assert pset.contains(delta)


def test_attack_config_validation():
    with pytest.raises(ConfigError):
        AttackConfig(steps=0)
    with pytest.raises(ConfigError):
        AttackConfig(restarts=0)
    with pytest.raises(ConfigError):
        AttackConfig(init="gaussian")
    with pytest.raises(ConfigError):
        PerturbationSet("l1", 1.0, 2)
    for steps in (2.5, True):  # sizes are integers, and a bool is not one
        with pytest.raises(ConfigError, match="steps"):
            AttackConfig(steps=steps)
    for restarts in (1.5, True):
        with pytest.raises(ConfigError, match="restarts"):
            AttackConfig(restarts=restarts)
    for dim in (2.5, True, 0):
        with pytest.raises(DimensionError, match="dim"):
            PerturbationSet("l2", 0.3, dim)
    with pytest.raises(DimensionError):
        project_onto_set(np.zeros(3), PerturbationSet("l2", 1.0, 2))
