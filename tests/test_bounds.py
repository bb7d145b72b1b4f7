import numpy as np
import pytest

from advstab.bounds import (
    BoundInputs,
    ConstantEstimates,
    ExpansivityMatrix,
    GrowthRecursion,
    RegionSampler,
    TrajectorySampler,
    bound_fast,
    bound_free,
    bound_vanilla,
    estimate_constants,
    estimate_lipschitz,
    estimate_psi,
    estimate_smoothness,
    expansivity_power,
    free_vs_vanilla_rate_ratio,
    lambda_fast,
    lambda_free,
    lambda_vanilla,
    recursion_bound,
)
from advstab.errors import ConfigError, DimensionError
from advstab.models import ScalarLogistic, SmoothModel, SoftmaxLinear
from advstab.rng import stream
from advstab.threat import PerturbationSet


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["lipschitz", "lipschitz_w", "beta", "psi"])
def test_constant_estimates_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="the constants must be finite"):
        ConstantEstimates(**{**dict(lipschitz=2.0, lipschitz_w=1.0, beta=1.0, psi=1.0), name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "call",
    [
        lambda v: lambda_vanilla(v, 0.5),  # positive
        lambda v: lambda_free(1.0, v, 2, 0.1, 0.3, 1.0),  # positive
        lambda v: lambda_fast(1.0, 0.5, v, 0.3, 1.0),  # nonnegative
        lambda v: lambda_free(1.0, 0.5, 2, 0.1, v, 1.0),  # nonnegative
    ],
    ids=["beta", "c", "fast_step", "eps"],
)
def test_sign_checks_reject_non_finite(call, value):
    with pytest.raises(ConfigError):
        call(value)


def _sampler(dim=3, radius=0.4, w_scale=1.0, param_dim=None, n_pool=40, seed=5):
    rng = stream(seed, 0)
    X = rng.standard_normal((n_pool, dim))
    y = rng.integers(0, 2, size=n_pool)
    p = param_dim if param_dim is not None else dim
    box = w_scale * np.ones(p)
    return RegionSampler(w_low=-box, w_high=box, pset=PerturbationSet("l2", radius, dim), X=X, y=y)


class ConstantLossModel(SmoothModel):
    """Loss identically ln 2 regardless of weights or perturbations."""

    def __init__(self, input_dim=3):
        self.kind = "constant"
        self.input_dim = input_dim
        self.class_count = 2
        self.hidden_dim = None
        self.param_dim = input_dim
        self.bounded = False

    def _bound_pass(self, w, U):
        Z = np.zeros(U.shape[:-1] + (2,))

        def input_grad(G):
            U[...] = 0.0
            return U

        return Z, lambda V: None, input_grad, lambda G: (np.zeros(w.shape), input_grad(G))

    def _init_scales(self):
        return np.zeros(self.param_dim)


# -- estimators ----------------------------------------------------------------


def test_estimate_lipschitz_constant_model_is_zero():
    model = ConstantLossModel()
    L, Lw = estimate_lipschitz(model, _sampler(), probes=50, rng=stream(1, 0))
    assert L == 0.0 and Lw == 0.0


def test_estimate_lipschitz_logistic_analytic_cap():
    # |grad_w| = |sigma - y| * |x + delta| <= 1 + radius for |x| <= 1
    model = ScalarLogistic(input_dim=1)
    rng = stream(2, 0)
    X = rng.uniform(-1, 1, size=(50, 1))
    y = rng.integers(0, 2, size=50)
    eps = 0.25
    box = np.ones(1)
    sampler = RegionSampler(w_low=-box, w_high=box, pset=PerturbationSet("l2", eps, 1), X=X, y=y)
    L, Lw = estimate_lipschitz(model, sampler, probes=2000, rng=stream(3, 0))
    assert Lw <= 1.0 + eps
    assert Lw <= L


def test_estimate_lipschitz_monotone_in_probes():
    model = SoftmaxLinear(input_dim=3, class_count=2)
    sampler = _sampler(param_dim=model.param_dim)
    vals = []
    for probes in (50, 200, 800):
        L, _ = estimate_lipschitz(model, sampler, probes=probes, rng=stream(4, 0))
        vals.append(L)
    assert vals[0] <= vals[1] <= vals[2]


def test_estimate_lipschitz_needs_probes():
    with pytest.raises(ConfigError):
        estimate_lipschitz(ConstantLossModel(), _sampler(), probes=1, rng=stream(0, 0))


@pytest.mark.parametrize("estimate", [estimate_lipschitz, lambda *args: estimate_smoothness(*args[:3], 1e-3, args[3])])
@pytest.mark.parametrize("probes", [2.7, 3.0, True, "5", 1, -4])
def test_estimators_reject_a_probe_count_that_is_not_an_integer_of_at_least_2(estimate, probes):
    with pytest.raises(ConfigError, match="probes"):
        estimate(ConstantLossModel(), _sampler(), probes, stream(0, 0))


@pytest.mark.parametrize("power_iters", [-1, 1.5])
def test_estimate_smoothness_rejects_a_bad_power_iteration_count(power_iters):
    with pytest.raises(ConfigError, match="power_iters"):
        estimate_smoothness(ConstantLossModel(), _sampler(), 10, 1e-3, stream(0, 0), power_iters=power_iters)


@pytest.mark.parametrize("pair_scale", [0.0, -1e-3, float("nan"), float("inf")])
def test_estimate_smoothness_rejects_a_bad_pair_scale(pair_scale):
    with pytest.raises(ConfigError, match="pair_scale"):
        estimate_smoothness(ConstantLossModel(), _sampler(), 10, pair_scale, stream(0, 0))


def _trajectory(jitter=0.05, dim=3, pool_dim=3):
    rng = stream(8, 0)
    pool = rng.standard_normal((10, pool_dim))
    return TrajectorySampler(np.zeros((2, dim)), jitter, PerturbationSet("l2", 0.3, dim), pool, np.zeros(10, dtype=np.int64))


@pytest.mark.parametrize("jitter", [float("nan"), -0.05, float("inf")])
def test_trajectory_sampler_rejects_a_bad_jitter(jitter):
    with pytest.raises(ConfigError, match="jitter"):
        _trajectory(jitter=jitter)
    _trajectory(jitter=0.0)  # no jitter is a valid region: the anchors alone


def test_region_sampler_rejects_an_inverted_box():
    lo, hi = -np.ones(3), np.ones(3)
    hi[1] = -2.0
    with pytest.raises(ConfigError, match="w_low"):
        RegionSampler(lo, hi, PerturbationSet("l2", 0.3, 3), np.zeros((5, 3)), np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize("lo, hi", [(-np.ones(3), np.ones(4)), (-np.ones((2, 3)), np.ones((2, 3)))])
def test_region_sampler_rejects_box_bounds_of_other_shapes(lo, hi):
    with pytest.raises(DimensionError, match="w_low"):
        RegionSampler(lo, hi, PerturbationSet("l2", 0.3, 3), np.zeros((5, 3)), np.zeros(5, dtype=np.int64))


def test_a_sampler_built_from_lists_equals_one_built_from_arrays():
    model = SoftmaxLinear(input_dim=3, class_count=2)
    arrays = _sampler(param_dim=model.param_dim)
    P, pset, X, y = model.param_dim, arrays.pset, arrays.X, arrays.y
    lists = RegionSampler([-1.0] * P, [1.0] * P, pset, X.tolist(), y.tolist())
    want = estimate_constants(model, arrays, stream(9, 0), probes=40)
    assert estimate_constants(model, lists, stream(9, 0), probes=40) == want
    trajectory = TrajectorySampler(np.zeros((2, P)), 0.05, pset, X, y)
    listed = TrajectorySampler(np.zeros((2, P)).tolist(), 0.05, pset, X.tolist(), y.tolist())
    assert estimate_constants(model, listed, stream(9, 0), probes=40) == estimate_constants(model, trajectory, stream(9, 0), probes=40)
    with pytest.raises(DimensionError, match="pool"):
        RegionSampler([-1.0] * P, [1.0] * P, pset, X[0].tolist(), y.tolist())


@pytest.mark.parametrize("kind", ["region", "trajectory"])
def test_samplers_reject_pool_labels_that_are_not_integers(kind):
    y = [0.0, 1.0, 0.5, 1.0, 0.0]
    with pytest.raises(ValueError, match="^pool labels must be integers, got 0.5$"):
        if kind == "region":
            RegionSampler(-np.ones(3), np.ones(3), PerturbationSet("l2", 0.3, 3), np.zeros((5, 3)), y)
        else:
            TrajectorySampler(np.zeros((2, 3)), 0.05, PerturbationSet("l2", 0.3, 3), np.zeros((5, 3)), y)


@pytest.mark.parametrize("kind", ["region", "trajectory"])
def test_samplers_reject_a_perturbation_set_of_another_dimension(kind):
    with pytest.raises(DimensionError, match="pset.dim"):
        if kind == "region":
            RegionSampler(-np.ones(3), np.ones(3), PerturbationSet("l2", 0.3, 2), np.zeros((5, 3)), np.zeros(5, dtype=np.int64))
        else:
            _trajectory(pool_dim=4)


class QuadraticModel(SmoothModel):
    """Loss (a/2) * w[0]^2: curvature exactly a, no perturbation coupling."""

    def __init__(self, a):
        self.kind = "quadratic"
        self.input_dim = 1
        self.class_count = 2
        self.hidden_dim = None
        self.param_dim = 1
        self.bounded = False
        self.a = a

    def _bound_pass(self, w, U):
        raise NotImplementedError

    def batch_loss_and_grads(self, w, X, y, deltas=None):
        rows = np.atleast_2d(X).shape[:-1]  # (..., B) on the run axis
        w0 = np.asarray(w)[..., :1]
        loss = 0.5 * self.a * w0**2
        return np.broadcast_to(loss, rows), self.a * w0 * rows[-1] / rows[-1], np.zeros(rows + (self.input_dim,))


def test_estimate_smoothness_quadratic_recovers_curvature():
    model = QuadraticModel(a=2.7)
    beta = estimate_smoothness(model, _sampler(dim=1, param_dim=1), probes=200, pair_scale=1e-4, rng=stream(5, 0))
    assert beta == pytest.approx(2.7, abs=1e-6)


def test_estimate_smoothness_constant_model_zero():
    beta = estimate_smoothness(ConstantLossModel(), _sampler(), probes=50, pair_scale=1e-3, rng=stream(6, 0))
    assert beta == 0.0


def test_estimate_smoothness_monotone_in_probes():
    model = SoftmaxLinear(input_dim=3, class_count=2)
    sampler = _sampler(param_dim=model.param_dim)
    vals = [estimate_smoothness(model, sampler, probes=p, pair_scale=1e-3, rng=stream(7, 0)) for p in (50, 200, 800)]
    assert vals[0] <= vals[1] <= vals[2]


def test_estimate_psi_arithmetic():
    est = estimate_psi(np.array([0.01, 0.5, 2e-3]))
    assert est.psi == pytest.approx(500.0)
    assert not est.degenerate
    est2 = estimate_psi(np.array([0.01, 0.05]))
    assert est2.psi <= 100.0
    zero = estimate_psi(np.array([0.01, 0.0]))
    assert zero.degenerate and zero.psi == pytest.approx(1e6)
    with pytest.raises(DimensionError):
        estimate_psi(np.array([]))


def test_constant_estimates_validation_and_inflation():
    with pytest.raises(ValueError):
        ConstantEstimates(lipschitz=1.0, lipschitz_w=2.0, beta=1.0, psi=1.0)
    c = ConstantEstimates(lipschitz=2.0, lipschitz_w=1.0, beta=0.5, psi=4.0)
    c2 = c.inflated(1.1)
    assert c2.beta == pytest.approx(0.55) and c2.psi == pytest.approx(4.4)


# -- stability exponents ---------------------------------------------------------


def test_lambda_vanilla_values():
    assert lambda_vanilla(2.0, 0.5) == 1.0
    assert lambda_vanilla(1.0, 1.0) == 1.0
    assert lambda_vanilla(3.7, 0.2) == pytest.approx(0.74)
    with pytest.raises(ConfigError):
        lambda_vanilla(0.0, 1.0)


def test_lambda_free_values_and_reduction():
    assert lambda_free(1.0, 1.0, 1, 0.7, 0.3, 5.0) == 1.0  # exponent zero, exact
    assert lambda_free(1.0, 1.0, 2, 0.0, 0.5, 10.0) == pytest.approx(1.5)
    assert lambda_free(1.0, 1.0, 4, 0.1, 0.5, 10.0) == pytest.approx(5.359375, abs=1e-12)


def test_lambda_fast_values_and_reduction():
    assert lambda_fast(1.0, 1.0, 0.0, 0.5, 10.0) == 1.0  # exact reduction
    assert lambda_fast(1.0, 1.0, 1.0, 1.0, 1.0) == 2.0
    assert lambda_fast(2.0, 0.3, 0.5, 0.4, 5.0) == pytest.approx(1.8, abs=1e-12)


def test_lambda_free_strictly_monotone():
    base = dict(beta=1.2, c=0.4, m=4, alpha_delta=0.2, eps=0.5, psi=8.0)
    for key in ("alpha_delta", "eps", "psi", "beta", "c"):
        vals = []
        for scale in (1.0, 1.5, 2.25):
            kw = dict(base)
            kw[key] = base[key] * scale
            vals.append(lambda_free(kw["beta"], kw["c"], kw["m"], kw["alpha_delta"], kw["eps"], kw["psi"]))
        assert vals[0] < vals[1] < vals[2], key
    # nondecreasing in m with a positive base
    ms = [lambda_free(1.2, 0.4, m, 0.2, 0.5, 8.0) for m in (1, 2, 4, 8)]
    assert all(a <= b for a, b in zip(ms, ms[1:]))


def test_lambda_fast_strictly_monotone_in_step():
    vals = [lambda_fast(1.2, 0.4, s, 0.5, 8.0) for s in (0.1, 0.2, 0.4)]
    assert vals[0] < vals[1] < vals[2]


# -- bound formulas ---------------------------------------------------------------


def _consts(L=1.0, Lw=1.0, beta=1.0, psi=1.0):
    return ConstantEstimates(lipschitz=L, lipschitz_w=Lw, beta=beta, psi=psi)


def test_bound_vanilla_hand_value():
    rep = bound_vanilla(BoundInputs(n=1, b=1, T=1, m=1, c=1.0, eps=1.0, constants=_consts()))
    assert rep.bound_value == pytest.approx(4.0, abs=1e-12)
    assert rep.lam == 1.0


def test_bound_free_hand_value():
    rep = bound_free(BoundInputs(n=1, b=1, T=1, m=1, c=1.0, eps=1.0, constants=_consts(), alpha_delta=0.0))
    assert rep.bound_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_bound_fast_hand_value():
    rep = bound_fast(BoundInputs(n=1, b=1, T=1, m=1, c=1.0, eps=1.0, constants=_consts(), fast_step=0.0))
    assert rep.bound_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_bound_vanilla_small_lambda_limit():
    beta_c = 1e-6
    inputs = BoundInputs(n=100, b=4, T=50, m=1, c=beta_c, eps=0.3, constants=_consts(L=2.0, Lw=1.5, beta=1.0))
    rep = bound_vanilla(inputs)
    lam = beta_c
    hand = (4 / 100) * (1 + 1 / lam) * ((2 * 1.5 * beta_c / 4) * (0.3 * 1.0 * 100 + 2.0)) ** (1 / (lam + 1)) * 50 ** (lam / (lam + 1))
    assert rep.bound_value == pytest.approx(hand, rel=1e-12)


def test_bound_vanilla_decreasing_in_n():
    k = _consts(L=2.0, Lw=1.5, beta=1.0)
    vals = [
        bound_vanilla(BoundInputs(n=n, b=4, T=100, m=1, c=0.5, eps=0.3, constants=k)).bound_value
        for n in (100, 200, 400)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_bound_free_monotone_in_attack_rate():
    k = _consts(L=2.0, Lw=1.5, beta=1.0, psi=10.0)
    vals = [
        bound_free(BoundInputs(n=200, b=4, T=80, m=4, c=0.5, eps=0.3, constants=k, alpha_delta=ad)).bound_value
        for ad in (0.1, 0.3, 0.9)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_bound_free_single_outer_step_unit_factor():
    k = _consts()
    rep = bound_free(BoundInputs(n=10, b=2, T=4, m=4, c=1.0, eps=0.5, constants=k, alpha_delta=0.2))
    assert rep.n_steps == 1


def test_bound_free_requires_divisibility():
    with pytest.raises(ConfigError):
        bound_free(BoundInputs(n=10, b=2, T=5, m=4, c=1.0, eps=0.5, constants=_consts()))


def test_bound_fast_zero_step_equals_vanilla_with_zero_radius():
    # same (nu, xi) parameterization, so the same code path must give the
    # bit-identical value
    k = _consts(L=2.0, Lw=1.5, beta=0.8)
    fast = bound_fast(BoundInputs(n=150, b=5, T=60, m=1, c=0.4, eps=0.3, constants=k, fast_step=0.0))
    van = bound_vanilla(BoundInputs(n=150, b=5, T=60, m=1, c=0.4, eps=0.0, constants=k))
    assert fast.bound_value == van.bound_value


def test_bound_fast_increasing_in_T():
    k = _consts(L=2.0, Lw=1.5, beta=0.8, psi=5.0)
    vals = [
        bound_fast(BoundInputs(n=150, b=5, T=T, m=1, c=0.4, eps=0.3, constants=k, fast_step=0.2)).bound_value
        for T in (20, 40, 80)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_recursion_bound_reproduces_per_algorithm_parameterizations():
    rng = stream(8, 0)
    for _ in range(200):
        n = int(rng.integers(5, 2000))
        b = int(rng.integers(1, 8))
        m = int(rng.integers(1, 6))
        T = m * int(rng.integers(1, 200))
        c = float(rng.uniform(0.05, 1.5))
        eps = float(rng.uniform(0.0, 1.0))
        L = float(rng.uniform(0.5, 4.0))
        k = _consts(L=L, Lw=L * float(rng.uniform(0.2, 1.0)), beta=float(rng.uniform(0.2, 3.0)), psi=float(rng.uniform(1.0, 30.0)))
        ad = float(rng.uniform(0.0, 1.0))
        inputs = BoundInputs(n=n, b=b, T=T, m=m, c=c, eps=eps, constants=k, alpha_delta=ad)
        # vanilla: (nu, xi) = (beta c, 2 eps n + 2L/beta)
        nu = k.beta * c
        xi = 2 * eps * n + 2 * k.lipschitz / k.beta
        direct = recursion_bound(n, b, T, k.lipschitz_w, GrowthRecursion(nu=nu, xi=xi))
        assert abs(direct - bound_vanilla(inputs).bound_value) <= 1e-12 * max(1.0, direct)
        # free: (nu, xi) = (lambda_free, 2L/beta) over T/m steps
        lam = lambda_free(k.beta, c, m, ad, eps, k.psi)
        direct_f = recursion_bound(n, b, T // m, k.lipschitz_w, GrowthRecursion(nu=lam, xi=2 * k.lipschitz / k.beta))
        assert abs(direct_f - bound_free(inputs).bound_value) <= 1e-12 * max(1.0, direct_f)


def test_rate_ratio_favors_free_for_large_T():
    val = free_vs_vanilla_rate_ratio(T=10_000, n=10_000, lam_vanilla=1.0, lam_free=2.0)
    assert 0 < val < 1


# -- expansion matrix ---------------------------------------------------------------


def test_expansivity_entries_and_eigenvalues():
    mat = ExpansivityMatrix(alpha=0.2, r=3.0)
    assert np.allclose(mat.entries, [[1.2, 0.2], [0.6, 1.6]])
    lo, hi = sorted(mat.expected_eigenvalues())
    eig = np.sort(np.linalg.eigvals(mat.entries).real)
    assert abs(eig[0] - lo) < 1e-12 and abs(eig[1] - hi) < 1e-12


def test_expansivity_power_identity_and_alpha_zero():
    mat = ExpansivityMatrix(alpha=0.0, r=2.0)
    power, closed = expansivity_power(mat, 0)
    assert np.array_equal(power, np.eye(2)) and closed == 1.0
    for m in (1, 3, 7):
        power, closed = expansivity_power(mat, m)
        assert closed == pytest.approx(1.0, abs=0)
        assert power[0, 0] == pytest.approx(1.0, abs=0)


def test_expansivity_power_matches_closed_form():
    rng = stream(9, 0)
    for _ in range(1000):
        alpha = float(rng.uniform(1e-6, 10.0))
        r = float(rng.uniform(1e-6, 10.0))
        m = int(rng.integers(0, 11))
        power, closed = expansivity_power(ExpansivityMatrix(alpha=alpha, r=r), m)
        assert abs(power[0, 0] - closed) <= 1e-12 * max(1.0, abs(closed))


def test_expansivity_eigenvalues_random_sweep():
    rng = stream(10, 0)
    for _ in range(1000):
        mat = ExpansivityMatrix(alpha=float(rng.uniform(1e-6, 10.0)), r=float(rng.uniform(1e-6, 10.0)))
        eig = np.sort(np.linalg.eigvals(mat.entries).real)
        expect = np.sort(np.array(mat.expected_eigenvalues()))
        assert np.all(np.abs(eig - expect) <= 1e-10 * np.maximum(1.0, np.abs(expect)))


def test_contraction_inequality_chain():
    # (r + (1 + a(r+1))^m)/(r+1) <= 1 + a m (1 + a(r+1))^(m-1)
    rng = stream(11, 0)
    for _ in range(1000):
        a = float(rng.uniform(1e-6, 10.0))
        r = float(rng.uniform(1e-6, 10.0))
        m = int(rng.integers(1, 11))
        lhs = (r + (1 + a * (r + 1)) ** m) / (r + 1)
        rhs = 1 + a * m * (1 + a * (r + 1)) ** (m - 1)
        assert lhs <= rhs * (1 + 1e-12)


def test_growth_recursion_validation():
    with pytest.raises(ConfigError):
        GrowthRecursion(nu=0.0, xi=1.0)
    with pytest.raises(ConfigError):
        GrowthRecursion(nu=1.0, xi=-1.0)
