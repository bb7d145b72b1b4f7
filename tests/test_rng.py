import numpy as np
import pytest

from advstab import trainers
from advstab.errors import DimensionError
from advstab.rng import keyed_stream, philox_keys, sample_uniform_l2_ball, sample_uniform_linf_ball, stream


def test_replay_is_bit_exact():
    a = stream(1234, 7).standard_normal(100)
    b = stream(1234, 7).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = stream(1234, 0).standard_normal(100)
    b = stream(1234, 1).standard_normal(100)
    assert not np.array_equal(a, b)
    # and nested paths address distinct streams too
    c = stream(1234, 0, 1).standard_normal(100)
    assert not np.array_equal(a, c)


def test_independent_streams_are_uncorrelated():
    a = stream(42, 0).standard_normal(20000)
    b = stream(42, 1).standard_normal(20000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03


def test_seed_validation():
    with pytest.raises(ValueError):
        stream(-1)
    with pytest.raises(ValueError):
        stream(2**64)


def test_l2_zero_radius_is_zero_vector():
    v = sample_uniform_l2_ball(stream(0, 0), 3, 0.0)
    assert v.shape == (3,)
    assert np.array_equal(v, np.zeros(3))


def test_linf_zero_radius_is_zero_vector():
    v = sample_uniform_linf_ball(stream(0, 0), 5, 0.0)
    assert np.array_equal(v, np.zeros(5))


def test_invalid_dimension_errors():
    with pytest.raises(DimensionError):
        sample_uniform_l2_ball(stream(0, 0), 0, 1.0)
    with pytest.raises(DimensionError):
        sample_uniform_linf_ball(stream(0, 0), 0, 1.0)


def test_negative_radius_errors():
    with pytest.raises(ValueError):
        sample_uniform_l2_ball(stream(0, 0), 2, -0.1)


def test_l2_ball_membership_tight():
    V = sample_uniform_l2_ball(stream(5, 0), 4, 2.5, size=20000)
    assert (np.linalg.norm(V, axis=1) <= 2.5 + 1e-12).all()


def test_linf_ball_membership_exact():
    V = sample_uniform_linf_ball(stream(5, 0), 4, 0.1, size=20000)
    assert (np.abs(V) <= 0.1).all()


def test_l2_monte_carlo_mean_near_origin():
    # symmetry: empirical mean of 1e5 draws stays within 0.02 per coordinate
    V = sample_uniform_l2_ball(stream(7, 0), 2, 1.0, size=100_000)
    assert np.abs(V.mean(axis=0)).max() < 0.02


def test_l2_radial_mass_matches_area_ratio():
    # fraction inside radius 1/2 of the unit disc is (1/2)^2 = 1/4
    V = sample_uniform_l2_ball(stream(7, 0), 2, 1.0, size=100_000)
    frac = (np.linalg.norm(V, axis=1) <= 0.5).mean()
    assert abs(frac - 0.25) < 0.01


def test_linf_monte_carlo_mean():
    V = sample_uniform_linf_ball(stream(3, 0), 1, 2.0, size=100_000)
    assert abs(V.mean()) < 0.03


def test_fixed_draw_count_keeps_streams_aligned():
    # consuming one batched draw equals consuming element draws one by one
    r = stream(11, 0)
    first = sample_uniform_l2_ball(r, 3, 1.0)
    after = r.standard_normal()
    r2 = stream(11, 0)
    sample_uniform_l2_ball(r2, 3, 1.0)
    assert after == r2.standard_normal()


# -- keys in bulk and re-keyed generators ---------------------------------------

STREAM_KINDS = [trainers.STREAM_INIT, trainers.STREAM_BATCH, trainers.STREAM_DELTA, trainers.STREAM_ATTACK]


def _seed_sequence_keys(seed, paths):
    return np.array(
        [np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path)).generate_state(2, np.uint64) for path in paths],
        dtype=np.uint64,
    ).reshape(len(paths), 2)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "paths",
    [
        [(kind, t) for kind in STREAM_KINDS for t in (1, 2, 3, 1000)],  # every stream kind a training run uses
        [(t,) for t in range(6)],  # an empty prefix
        [(), ()],  # no path at all
        [(7, 0, 2**32 - 1), (0, 0, 0)],  # three words, the largest word
    ],
)
def test_bulk_keys_equal_seed_sequence(seed, paths):
    want = _seed_sequence_keys(seed, paths)
    got = philox_keys(seed, paths)
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_bulk_keys_of_no_paths():
    assert philox_keys(3, np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)


@pytest.mark.parametrize("paths", [[(1, 2**32)], [(2**40,)], [(1, -1)]])
def test_bulk_keys_reject_path_elements_outside_one_word(paths):
    # SeedSequence would spread these over several words (or reject them)
    with pytest.raises(ValueError, match=r"path elements in \[0, 2\*\*32\)"):
        philox_keys(5, paths)


def test_bulk_keys_check_the_seed_and_the_path_shape():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            philox_keys(seed, [(0,)])
    with pytest.raises(ValueError, match=r"\(N, k\)"):
        philox_keys(5, [1, 2, 3])


def _draws(g):
    return [
        g.integers(0, 1000, size=5),
        g.integers(0, 2**40, size=3),
        g.standard_normal((2, 3)),
        g.random(4),
        g.uniform(-0.5, 0.5, size=(3, 2)),
        g.integers(0, 7, size=3, dtype=np.int32),
    ]


@pytest.mark.parametrize("seed", [4, 2**33 + 1])
@pytest.mark.parametrize("paths", [[(trainers.STREAM_BATCH, t) for t in (1, 2, 3)], [(9,)]])
def test_rekeyed_generator_draws_as_stream(seed, paths):
    at = keyed_stream(philox_keys(seed, paths))
    for j, path in enumerate(paths):
        for got, want in zip(_draws(at(j)), _draws(stream(seed, *path))):
            assert np.array_equal(got, want)


def test_rekeying_drops_a_half_used_uint32():
    # an odd count of int32 draws leaves half of a 64-bit word buffered; the
    # next address must start clean, as a fresh stream does
    keys = philox_keys(8, [(1, 1), (1, 2)])
    at = keyed_stream(keys)
    g = at(0)
    g.integers(0, 10, size=3, dtype=np.int32)
    assert g.bit_generator.state["has_uint32"] == 1
    for name, draw in [
        ("integers", lambda g: g.integers(0, 10, size=5, dtype=np.int32)),
        ("standard_normal", lambda g: g.standard_normal(4)),
        ("random", lambda g: g.random(4)),
        ("uniform", lambda g: g.uniform(-1.0, 1.0, size=4)),
    ]:
        g = at(0)
        g.integers(0, 10, size=3, dtype=np.int32)
        assert np.array_equal(draw(at(1)), draw(stream(8, 1, 2))), name


def test_rekeying_restarts_an_address():
    at = keyed_stream(philox_keys(2, [(3, 4)]))
    first = at(0).standard_normal(6)
    assert np.array_equal(at(0).standard_normal(6), first)
