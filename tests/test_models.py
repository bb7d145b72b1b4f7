import numpy as np
import pytest

from advstab.errors import DimensionError, _int64s
from advstab.models import (
    Dataset,
    LabeledSample,
    ScalarLogistic,
    SoftmaxLinear,
    TwoLayerTanhMLP,
    finite_diff_report,
    make_model,
)
from advstab.rng import stream

ALL_KINDS = [
    SoftmaxLinear(input_dim=7, class_count=4),
    TwoLayerTanhMLP(input_dim=7, hidden_dim=6, class_count=3),
    ScalarLogistic(input_dim=7),
]


def _random_point(model, rng):
    w = model.init_params(rng) + 0.5 * rng.standard_normal(model.param_dim)
    delta = 0.2 * rng.standard_normal(model.input_dim)
    sample = LabeledSample(x=rng.standard_normal(model.input_dim), y=int(rng.integers(model.class_count)))
    return w, delta, sample


def _loss(model, w, delta, s):
    """The loss at one sample: a batch of one row."""
    return float(model.loss_batch(w, s.x[None], [s.y], np.asarray(delta)[None])[0])


def _grads(model, w, delta, s):
    """The weight and perturbation gradients at one sample: a batch of one row."""
    _, gw, gd = model.batch_loss_and_grads(w, s.x[None], [s.y], np.asarray(delta)[None])
    return gw, gd[0]


def test_softmax_linear_zero_weights_gives_log_C():
    model = SoftmaxLinear(input_dim=5, class_count=7)
    s = LabeledSample(x=np.arange(5.0), y=3)
    loss = _loss(model, np.zeros(model.param_dim), np.ones(5), s)
    assert loss == pytest.approx(np.log(7), abs=1e-15)


def test_scalar_logistic_zero_weight_gives_log2():
    model = ScalarLogistic(input_dim=1)
    s = LabeledSample(x=np.array([3.0]), y=0)
    assert _loss(model, np.zeros(1), np.zeros(1), s) == pytest.approx(np.log(2), abs=1e-15)


def test_scalar_logistic_grad_at_zero():
    # sigma(0) - 1 = -1/2 on the weight coordinate, times the input
    model = ScalarLogistic(input_dim=1)
    s = LabeledSample(x=np.array([1.0]), y=1)
    g, _ = _grads(model, np.zeros(1), np.zeros(1), s)
    assert g == pytest.approx([-0.5], abs=1e-15)


def test_mlp_forward_matches_independent_reimplementation():
    model = TwoLayerTanhMLP(input_dim=4, hidden_dim=3, class_count=3)
    rng = stream(21, 0)
    for _ in range(10):
        w, delta, s = _random_point(model, rng)
        W1, b1, W2, b2 = model.unpack(w)
        u = s.x + delta
        z = W2 @ np.tanh(W1 @ u + b1) + b2
        # plain cross-entropy, separately coded
        z = z - z.max()
        expected = float(np.log(np.exp(z).sum()) - z[s.y])
        assert _loss(model, w, delta, s) == pytest.approx(expected, abs=1e-12)


def test_softmax_linear_grad_delta_closed_form():
    model = SoftmaxLinear(input_dim=6, class_count=4)
    rng = stream(22, 0)
    for _ in range(10):
        w, delta, s = _random_point(model, rng)
        W, _ = model.unpack(w)
        Z = model.logits_batch(w, s.x[None, :], delta[None, :])[0]
        p = np.exp(Z - Z.max())
        p /= p.sum()
        e = np.zeros(4)
        e[s.y] = 1.0
        assert np.abs(_grads(model, w, delta, s)[1] - W.T @ (p - e)).max() < 1e-12


def test_softmax_linear_zero_weights_constant_in_delta():
    model = SoftmaxLinear(input_dim=3, class_count=2)
    s = LabeledSample(x=np.array([1.0, 2.0, -1.0]), y=1)
    _, g = _grads(model, np.zeros(model.param_dim), np.array([0.3, -0.2, 0.1]), s)
    assert np.array_equal(g, np.zeros(3))


@pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
def test_gradients_match_finite_differences(model):
    assert finite_diff_report(model, 25, 1e-5, stream(23, 0)) < 1e-6


@pytest.mark.parametrize("model", ALL_KINDS, ids=lambda m: m.kind)
def test_bounded_wrapper_range_and_gradients(model):
    bounded = make_model(model.kind, model.input_dim, model.class_count, model.hidden_dim or 16, bounded=True)
    rng = stream(24, 0)
    for _ in range(5):
        w, delta, s = _random_point(bounded, rng)
        val = _loss(bounded, w, delta, s)
        assert 0.0 <= val < 1.0
    assert finite_diff_report(bounded, 15, 1e-5, stream(25, 0)) < 1e-6


def test_gradient_norm_small_at_convex_optimum():
    # non-separable one-dimensional fit: descend long enough and the mean
    # gradient collapses
    model = SoftmaxLinear(input_dim=1, class_count=2)
    data = Dataset(np.array([[1.0], [1.0], [-1.0], [-1.0]]), np.array([1, 0, 0, 1]))
    w = np.full(model.param_dim, 0.7)
    for _ in range(4000):
        _, gw, _ = model.batch_loss_and_grads(w, data.X, data.y, np.zeros((4, 1)))
        w = w - 1.0 * gw
    _, gw, _ = model.batch_loss_and_grads(w, data.X, data.y, np.zeros((4, 1)))
    assert np.linalg.norm(gw) < 1e-8


def test_batch_grads_single_sample_matches_pointwise():
    model = TwoLayerTanhMLP(input_dim=4, hidden_dim=3)
    rng = stream(26, 0)
    w, delta, s = _random_point(model, rng)
    _, mean_gw, gds = model.batch_loss_and_grads(w, np.stack([s.x]), [s.y], np.stack([delta]))
    gw, gd = _grads(model, w, delta, s)
    assert np.allclose(mean_gw, gw, atol=1e-15)
    assert np.allclose(gds[0], gd, atol=1e-15)


def test_batch_grads_duplication_invariance():
    model = SoftmaxLinear(input_dim=3, class_count=3)
    rng = stream(27, 0)
    w, delta, s = _random_point(model, rng)
    once = model.batch_loss_and_grads(w, np.stack([s.x]), [s.y], np.stack([delta]))[1]
    twice = model.batch_loss_and_grads(w, np.stack([s.x, s.x]), [s.y, s.y], np.stack([delta, delta]))[1]
    assert np.allclose(once, twice, atol=1e-15)


def test_batch_grads_means_naive_sum():
    model = TwoLayerTanhMLP(input_dim=5, hidden_dim=4, class_count=3)
    rng = stream(28, 0)
    w = model.init_params(rng)
    samples = [LabeledSample(x=rng.standard_normal(5), y=int(rng.integers(3))) for _ in range(8)]
    deltas = [0.1 * rng.standard_normal(5) for _ in range(8)]
    X, y = np.stack([s.x for s in samples]), [s.y for s in samples]
    _, mean_gw, gds = model.batch_loss_and_grads(w, X, y, np.stack(deltas))
    naive = sum(_grads(model, w, d, s)[0] for d, s in zip(deltas, samples)) / 8
    assert np.abs(mean_gw - naive).max() < 1e-12
    for d, s, g in zip(deltas, samples, gds):
        assert np.allclose(g, _grads(model, w, d, s)[1], atol=1e-12)


def test_batch_grads_length_mismatch():
    model = SoftmaxLinear(input_dim=2)
    with pytest.raises(DimensionError):  # one perturbation for two rows
        model.batch_loss_and_grads(np.zeros(model.param_dim), np.zeros((2, 2)), [0, 0], np.zeros((1, 2)))


def test_dimension_mismatch_errors():
    model = SoftmaxLinear(input_dim=3)
    s = LabeledSample(x=np.zeros(3), y=0)
    with pytest.raises(DimensionError):
        _loss(model, np.zeros(model.param_dim), np.zeros(4), s)
    with pytest.raises(DimensionError):
        _loss(model, np.zeros(model.param_dim + 1), np.zeros(3), s)


def test_finite_diff_report_zero_trials():
    model = ScalarLogistic(input_dim=2)
    assert finite_diff_report(model, 0, 1e-5, stream(0, 0)) == 0.0


def test_finite_diff_report_scalar_logistic_tight():
    assert finite_diff_report(ScalarLogistic(input_dim=3), 10, 1e-5, stream(29, 0)) < 1e-7


def test_loss_values_finite_and_nonnegative():
    rng = stream(30, 0)
    for model in ALL_KINDS:
        for _ in range(20):
            w, delta, s = _random_point(model, rng)
            val = _loss(model, w, delta, s)
            assert np.isfinite(val) and val >= 0.0


def test_local_lipschitz_sanity():
    # |h(z) - h(z')|^2 <= (1.05 * max observed joint gradient)^2 * |z - z'|^2
    # over bounded probe pairs, the empirical analog of joint Lipschitzness
    from advstab.bounds import RegionSampler, estimate_lipschitz
    from advstab.threat import PerturbationSet

    model = TwoLayerTanhMLP(input_dim=4, hidden_dim=4)
    rng = stream(31, 0)
    pset = PerturbationSet("l2", 0.3, 4)
    pool = Dataset(rng.standard_normal((30, 4)), rng.integers(0, 2, size=30))
    box = 0.8 * np.ones(model.param_dim)
    sampler = RegionSampler(w_low=-box, w_high=box, pset=pset, X=pool.X, y=pool.y)
    L, _ = estimate_lipschitz(model, sampler, probes=4000, rng=stream(32, 0))
    L_hat = 1.05 * L
    rng2 = stream(33, 0)
    for _ in range(10_000):
        w, d, x, y = sampler.draw(rng2)
        s = LabeledSample(x=x, y=y)
        step = rng2.uniform(0.01, 0.3)
        dw = rng2.standard_normal(model.param_dim)
        dd = rng2.standard_normal(4)
        nrm = np.sqrt(dw @ dw + dd @ dd)
        w2 = w + step * dw / nrm
        d2 = d + step * dd / nrm
        lhs = (_loss(model, w, d, s) - _loss(model, w2, d2, s)) ** 2
        rhs = L_hat**2 * (np.sum((w - w2) ** 2) + np.sum((d - d2) ** 2))
        assert lhs <= rhs


def test_dataset_validation_and_replacement():
    data = Dataset(np.eye(3), np.array([0, 1, 0]))
    assert data.n == 3 and data.input_dim == 3
    swapped = data.replace_sample(1, LabeledSample(x=np.ones(3), y=0))
    assert np.array_equal(data.X[1], np.array([0.0, 1.0, 0.0]))  # original untouched
    assert np.array_equal(swapped.X[1], np.ones(3)) and swapped.y[1] == 0
    with pytest.raises(IndexError):
        data.replace_sample(5, data.sample(0))
    with pytest.raises(DimensionError):
        Dataset(np.eye(3), np.array([0, 1]))


def test_dataset_rejects_labels_that_are_not_integers():
    assert Dataset(np.eye(2), [0.0, 1.0]).y.tolist() == [0, 1]
    for labels in ([0.5, 1.2], [0.0, np.nan]):
        with pytest.raises(ValueError, match="^labels must be integers, got "):
            Dataset(np.eye(2), labels)


@pytest.mark.parametrize("labels", [[0.7], [np.inf], [-0.5]])
def test_checked_calls_reject_labels_that_are_not_integers(labels):
    model = TwoLayerTanhMLP(input_dim=4, hidden_dim=3, class_count=2)
    rng = stream(8, 0)
    w, X = model.init_params(rng), rng.standard_normal((1, 4))
    assert model.loss_batch(w, X, [1.0]) == model.loss_batch(w, X, [1])
    for call in (model.loss_batch, model.batch_loss_and_grads):
        with pytest.raises(ValueError, match="^labels must be integers, got "):
            call(w, X, labels)


def test_an_int64_label_array_passes_uncopied():
    y = np.array([0, 1, 1])
    assert _int64s(y, "labels") is y
    assert _int64s(y.astype(np.int8), "labels").dtype == np.int64


def test_make_model_dispatch():
    assert make_model("mlp", 5, hidden_dim=3).param_dim == 3 * 5 + 3 + 2 * 3 + 2
    with pytest.raises(ValueError):
        make_model("resnet", 5)


@pytest.mark.parametrize("kind", ["softmax_linear", "mlp", "scalar_logistic"])
def test_loss_batch_checks_labels(kind):
    model = make_model(kind, input_dim=3, hidden_dim=4)
    rng = stream(60, 0)
    w = model.init_params(rng)
    X = rng.standard_normal((4, 3))
    with pytest.raises(ValueError, match="label"):
        model.loss_batch(w, X[:1], [-1])  # would score the last class
    with pytest.raises(ValueError, match="label"):
        model.loss_batch(w, X[:1], [model.class_count])
    with pytest.raises(DimensionError):
        model.loss_batch(w, X, [0])  # one label is not broadcast to four rows
