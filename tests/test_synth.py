import numpy as np
import pytest

from advstab.errors import ConfigError, DimensionError
from advstab.synth import SyntheticSpec, draw_replacement, make_synthetic


def test_same_seed_bit_identical_datasets():
    spec = SyntheticSpec("two_gaussians", n_train=50, n_test=30, dim=4, noise=0.7, seed=9)
    a_train, a_test = make_synthetic(spec)
    b_train, b_test = make_synthetic(spec)
    assert np.array_equal(a_train.X, b_train.X) and np.array_equal(a_train.y, b_train.y)
    assert np.array_equal(a_test.X, b_test.X)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), float("-inf")])
def test_noise_rejects_non_finite(noise):
    with pytest.raises(ConfigError):
        SyntheticSpec("two_gaussians", n_train=50, n_test=30, dim=4, noise=noise, seed=9)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), float("-inf")])
def test_separation_rejects_non_finite(separation):
    with pytest.raises(ConfigError, match="separation"):
        SyntheticSpec("two_gaussians", n_train=50, n_test=30, dim=4, noise=0.7, seed=9, separation=separation)


def test_train_test_independent():
    spec = SyntheticSpec("two_gaussians", n_train=50, n_test=50, dim=4, noise=0.7, seed=9)
    train, test = make_synthetic(spec)
    assert not np.array_equal(train.X, test.X)


@pytest.mark.parametrize("kind,dim", [("two_gaussians", 6), ("xor_clusters", 5), ("spiral2d", 2)])
def test_class_balance_within_one(kind, dim):
    for n in (500, 501):
        spec = SyntheticSpec(kind, n_train=n, n_test=10, dim=dim, noise=0.4, seed=2)
        train, _ = make_synthetic(spec)
        counts = np.bincount(train.y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1
        assert train.n == n


def test_spiral_balance_exact_at_500():
    spec = SyntheticSpec("spiral2d", n_train=500, n_test=10, dim=2, noise=0.1, seed=5)
    train, _ = make_synthetic(spec)
    counts = np.bincount(train.y)
    assert counts[0] == 250 and counts[1] == 250


def test_noise_free_two_gaussians_linearly_separable():
    # a perceptron run converges on separable data
    spec = SyntheticSpec("two_gaussians", n_train=60, n_test=10, dim=5, noise=0.0, seed=4)
    train, _ = make_synthetic(spec)
    signs = 2.0 * train.y - 1.0
    w = np.zeros(5)
    b = 0.0
    for _ in range(100):
        mistakes = 0
        for i in range(train.n):
            if signs[i] * (train.X[i] @ w + b) <= 0:
                w += signs[i] * train.X[i]
                b += signs[i]
                mistakes += 1
        if mistakes == 0:
            break
    assert mistakes == 0


def test_noise_free_two_gaussians_softmax_linear_fits_perfectly():
    from advstab.models import SoftmaxLinear

    spec = SyntheticSpec("two_gaussians", n_train=40, n_test=10, dim=5, noise=0.0, seed=4)
    train, _ = make_synthetic(spec)
    model = SoftmaxLinear(input_dim=5, class_count=2)
    w = np.zeros(model.param_dim)
    zeros = np.zeros((train.n, 5))
    for _ in range(200):
        _, gw, _ = model.batch_loss_and_grads(w, train.X, train.y, zeros)
        w = w - 1.0 * gw
    acc = (model.predict_batch(w, train.X) == train.y).mean()
    assert acc == 1.0


def test_validation_errors():
    with pytest.raises(ConfigError):
        SyntheticSpec("moons", 10, 10, 2, 0.1, 1)
    with pytest.raises(DimensionError):
        SyntheticSpec("two_gaussians", 1, 10, 2, 0.1, 1)
    with pytest.raises(ConfigError):
        SyntheticSpec("spiral2d", 10, 10, 3, 0.1, 1)
    with pytest.raises(ConfigError):
        SyntheticSpec("two_gaussians", 10, 10, 2, -0.1, 1)


def test_draw_replacement_deterministic_and_fresh():
    spec = SyntheticSpec("two_gaussians", n_train=20, n_test=10, dim=3, noise=0.5, seed=8)
    a = draw_replacement(spec, 0)
    b = draw_replacement(spec, 0)
    c = draw_replacement(spec, 1)
    assert np.array_equal(a.x, b.x) and a.y == b.y
    assert not np.array_equal(a.x, c.x)
    assert a.x.shape == (3,)
