import concurrent.futures
import itertools
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advstab import experiments
from advstab.errors import ConfigError, DimensionError
from advstab.experiments import (
    CheckpointStat,
    ExperimentConfig,
    _spearman,
    config_from_dict,
    config_to_dict,
    run_free_trades_comparison,
    run_gap_experiment,
    run_transfer_experiment,
    run_vs_n_experiment,
)
from advstab.models import SmoothModel, make_model
from advstab.reportio import emit_report, load_report, report_to_dict
from advstab.rng import stream
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet, empirical_robust_risk
from advstab.trainers import RULES, StepSchedule, TrainConfig, train


def _cfg(algorithm="vanilla", eps=0.3, T=30, trials=2, dim=4, n_train=40, **kw):
    data = SyntheticSpec("two_gaussians", n_train=n_train, n_test=60, dim=dim, noise=1.0, seed=21)
    train_kw = dict(
        batch_size=8,
        total_iterations=T,
        seed=100,
        inner_attack=AttackConfig(steps=3, step_size=1.0),
    )
    train_kw.update(kw.pop("train_kw", {}))
    train = TrainConfig(
        algorithm,
        PerturbationSet("l2", eps, dim),
        kw.pop("schedule", StepSchedule("constant", c=0.3)),
        **train_kw,
    )
    return ExperimentConfig(
        model_kind="mlp",
        hidden_dim=6,
        data=data,
        train=train,
        eval_attack=AttackConfig(steps=4, step_size=1.0),
        eval_seed=777,
        checkpoint_every=15,
        trials=trials,
        **kw,
    )


def test_gap_experiment_shapes_and_determinism():
    cfg = _cfg()
    rep1 = run_gap_experiment(cfg)
    rep2 = run_gap_experiment(cfg)
    assert len(rep1.trials) == 2
    assert [c.iteration for c in rep1.trials[0].checkpoints] == [15, 30]
    d1, d2 = report_to_dict(rep1), report_to_dict(rep2)
    assert d1 == d2  # bit-exact reproduction
    # two trials means nonzero spread fields are defined
    assert rep1.std_final_acc_gap() >= 0.0
    # different training seeds produce different trajectories
    assert rep1.trials[0].checkpoints[-1].train_risk != rep1.trials[1].checkpoints[-1].train_risk


def test_gap_experiment_eps_zero_matches_clean_metrics():
    cfg = _cfg(eps=0.0)
    rep = run_gap_experiment(cfg)
    final = rep.trials[0].final
    assert final.train_acc == pytest.approx(final.train_acc, abs=0)
    # attacked metrics with a radius-0 ball are the clean ones: risk equals
    # plain loss, so the recomputed gap fields agree with direct evaluation
    from advstab.synth import make_synthetic
    from advstab.trainers import train

    train_ds, test_ds = make_synthetic(cfg.data)
    model = cfg.build_model()
    w, _ = train(model, train_ds, cfg.train.with_seed(rep.trials[0].seed))
    clean_acc = (model.predict_batch(w, train_ds.X) == train_ds.y).mean()
    assert final.train_acc == pytest.approx(clean_acc, abs=1e-12)


def test_gap_report_recomputes_gap_fields():
    rep = run_gap_experiment(_cfg(trials=1))
    c = rep.trials[0].final
    assert c.acc_gap == c.train_acc - c.test_acc
    assert c.risk_gap == c.test_risk - c.train_risk


def test_bounds_attached_only_for_vanishing_schedules():
    rep_const = run_gap_experiment(_cfg(trials=1))
    assert rep_const.bounds == []
    assert any("bounds_not_applicable" in note for note in rep_const.notes)
    rep_van = run_gap_experiment(_cfg(trials=1, schedule=StepSchedule("vanishing_c_over_t", c=0.5)))
    assert len(rep_van.bounds) == 1
    b = rep_van.bounds[0]
    assert b.bound_value > 0 and b.measured_gap is not None and b.ratio is not None


def test_bounds_reuse_first_trial_trace(monkeypatch):
    from advstab import experiments

    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args[2].seed)
        return train(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", counting_train)
    rep = run_gap_experiment(_cfg(trials=2, schedule=StepSchedule("vanishing_c_over_t", c=0.5)))
    assert len(rep.bounds) == 1
    assert calls == [100, 101]  # one run per trial; the bounds reuse trial 0's envelope


def test_bounds_estimation_errors_become_typed_notes(monkeypatch):
    from advstab import experiments

    def failing(*args, **kwargs):
        raise ConfigError("probes must be positive")

    monkeypatch.setattr(experiments, "estimate_constants", failing)
    rep = run_gap_experiment(_cfg(trials=1, schedule=StepSchedule("vanishing_c_over_t", c=0.5)))
    assert rep.bounds == []
    assert "bounds_attachment_failed: ConfigError: probes must be positive" in rep.notes

    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not an estimation failure")

    monkeypatch.setattr(experiments, "estimate_constants", broken)
    with pytest.raises(RuntimeError):
        run_gap_experiment(_cfg(trials=1, schedule=StepSchedule("vanishing_c_over_t", c=0.5)))


def test_budget_axis_oracle_calls_rescales_iterations():
    cfg = _cfg(budget_axis="oracle_calls", T=40)
    eff = cfg.effective_train_config()
    assert eff.total_iterations == 10  # K=3 inner steps -> 4 oracle calls per update
    free = _cfg(algorithm="free", budget_axis="oracle_calls", T=40, train_kw=dict(free_steps=4))
    assert free.effective_train_config().total_iterations == 40
    # K=3 inner steps x 2 restarts + the weight step -> 7 oracle calls per update
    attack = AttackConfig(steps=3, step_size=1.0, restarts=2)
    cfg = _cfg(budget_axis="oracle_calls", T=70, train_kw=dict(inner_attack=attack))
    eff = cfg.effective_train_config()
    assert eff.total_iterations == 10
    _, trace = train(cfg.build_model(), make_synthetic(cfg.data)[0], eff)
    assert trace.oracle_calls == 70 and trace.forward_calls == 20


def test_vs_n_experiment_reports_and_slope():
    cfg = _cfg(trials=1, T=20)
    res = run_vs_n_experiment(cfg, [24, 40])
    assert len(res.reports) == 2
    assert res.reports[0].config["data"]["n_train"] == 24
    assert np.isfinite(res.spearman) or res.spearman in (1.0, -1.0)
    assert "lambda" in res.predicted_rate  # sequential variant's rate prediction
    free = run_vs_n_experiment(_cfg(algorithm="free", trials=1, T=20, train_kw=dict(free_steps=4)), [24, 40])
    assert free.predicted_rate.startswith("n^(-1)")
    with pytest.raises(ConfigError):
        run_vs_n_experiment(cfg, [4])  # below batch size


def test_vs_n_duplicate_values_give_identical_reports():
    cfg = _cfg(trials=1, T=20)
    res = run_vs_n_experiment(cfg, [30, 30])
    assert report_to_dict(res.reports[0]) == report_to_dict(res.reports[1])


@pytest.mark.parametrize(
    "n_values, message",
    [([30.7, 60], "n_values[0] must be an integer >= 1, got 30.7"), ([30, True], "n_values[1] must be an integer >= 1, got True")],
)
def test_vs_n_rejects_a_size_that_is_not_an_integer_before_training(monkeypatch, n_values, message):
    def no_training(cfg):
        raise AssertionError("trained before the sizes were checked")

    monkeypatch.setattr(experiments, "run_gap_experiment", no_training)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_vs_n_experiment(_cfg(trials=1, T=20), n_values)


def test_transfer_attacks_weaker_than_whitebox_in_majority():
    # attacks crafted on the other model should usually hurt less than the
    # target's own white-box attacks
    wins = total = 0
    for k in range(5):
        cfg_a = _cfg(trials=1, T=60, train_kw={"seed": 100 + k})
        cfg_b = _cfg(algorithm="fast", trials=1, T=60, train_kw={"seed": 900 + k})
        res = run_transfer_experiment(cfg_a, cfg_b)
        for src, dst in ((("a", "b"), ("b", "b")), (("b", "a"), ("a", "a"))):
            wins += res.accuracy[src] >= res.accuracy[dst]
            total += 1
    assert wins > total / 2, f"transfer beat white-box in only {wins}/{total} comparisons"


def test_transfer_experiment_self_pair_equals_whitebox():
    cfg = _cfg(trials=1, T=20)
    res = run_transfer_experiment(cfg, cfg)
    assert res.accuracy[("a", "b")] == res.accuracy[("a", "a")]
    assert res.accuracy[("b", "a")] == res.accuracy[("b", "b")]


def test_transfer_experiment_eps_zero_all_clean():
    cfg = _cfg(trials=1, T=20, eps=0.0)
    res = run_transfer_experiment(cfg, cfg)
    for key in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")):
        assert res.accuracy[key] == pytest.approx(res.clean_accuracy[key[1]], abs=0)


@pytest.mark.parametrize("value", [2.5, 4.0, True])
def test_checkpoint_every_must_be_an_int_or_none(value):
    with pytest.raises(ConfigError, match=f"^checkpoint_every must be an int or None, got {value!r}$"):
        replace(_cfg(), checkpoint_every=value)


@pytest.mark.parametrize(
    "model, message",
    [
        ({"model_kind": "linear"}, "unknown model kind 'linear'"),
        ({"model_kind": "scalar_logistic", "class_count": 3}, "scalar_logistic has 2 classes, got class_count=3"),
    ],
)
def test_model_section_is_checked_at_construction(model, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        replace(_cfg(), **model)


def _spec(**kw):
    return SyntheticSpec(**{"kind": "two_gaussians", "n_train": 40, "n_test": 60, "dim": 4, "noise": 1.0, "seed": 21, **kw})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _cfg(train_kw={"batch_size": 2.5}), ConfigError, "batch_size must be an integer >= 1, got 2.5"),
        (lambda: _cfg(train_kw={"batch_size": True}), ConfigError, "batch_size must be an integer >= 1, got True"),
        (lambda: _cfg(T=8.0), ConfigError, "total_iterations must be an integer >= 0, got 8.0"),
        (lambda: _cfg(train_kw={"free_steps": 2.0}), ConfigError, "free_steps must be an integer >= 1, got 2.0"),
        (lambda: _cfg(train_kw={"seed": 2.7}), ConfigError, "train.seed must be a 64-bit unsigned integer, got 2.7"),
        (lambda: _cfg(train_kw={"seed": True}), ConfigError, "train.seed must be a 64-bit unsigned integer, got True"),
        (lambda: StepSchedule("constant", c=0.3, m=1.5), ConfigError, "schedule m must be an integer >= 1, got 1.5"),
        (lambda: _spec(n_train=10.5), DimensionError, "n_train must be an integer >= 2, got 10.5"),
        (lambda: _spec(n_test=False), DimensionError, "n_test must be an integer >= 2, got False"),
        (lambda: _spec(dim=3.0), DimensionError, "dim must be an integer >= 1, got 3.0"),
        (lambda: _spec(seed=21.0), ConfigError, "data.seed must be a 64-bit unsigned integer, got 21.0"),
        (lambda: _cfg(trials=2.0), ConfigError, "trials must be an integer >= 1, got 2.0"),
        (lambda: replace(_cfg(), hidden_dim=True), ConfigError, "hidden_dim must be an integer >= 1, got True"),
        (lambda: replace(_cfg(), class_count=2.0), ConfigError, "class_count must be an integer >= 2, got 2.0"),
        (lambda: replace(_cfg(), eval_seed=777.0), ConfigError, "eval.seed must be a 64-bit unsigned integer, got 777.0"),
    ],
)
def test_counts_and_seeds_must_be_integers(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


# each float field of a config: the name its errors give it, and a function
# that builds a valid config with that field set to a value
_FLOAT_FIELDS = {
    "train.eps": ("radius", lambda v: _cfg(eps=v)),
    "train.inner_attack.step_size": ("step_size", lambda v: _cfg(train_kw={"inner_attack": AttackConfig(steps=3, step_size=v)})),
    "eval.attack.step_size": ("step_size", lambda v: replace(_cfg(), eval_attack=AttackConfig(steps=4, step_size=v))),
    "train.schedule.c": ("schedule constant c", lambda v: _cfg(schedule=StepSchedule("constant", c=v))),
    "train.attack_lr": ("attack_lr", lambda v: _cfg(train_kw={"attack_lr": v})),
    "train.fast_step": ("fast_step", lambda v: _cfg(train_kw={"fast_step": v})),
    "train.trades_lambda": ("trades_lambda", lambda v: _cfg("free", T=32, train_kw={"trades_lambda": v})),
    "data.noise": ("noise", lambda v: replace(_cfg(), data=replace(_cfg().data, noise=v))),
    "data.separation": ("separation", lambda v: replace(_cfg(), data=replace(_cfg().data, separation=v))),
}


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("key", list(_FLOAT_FIELDS))
def test_a_bool_is_not_a_number_in_a_float_field(key, value):
    name, build = _FLOAT_FIELDS[key]
    with pytest.raises(ConfigError, match=f"^{name} must be an int or a float, got {type(value).__name__}$"):
        build(value)


@pytest.mark.parametrize("algorithm", ["vanilla", "fast", "free", "trades_seq", "free_trades"])
@pytest.mark.parametrize("lam", [-5.0, 0.0, float("nan"), float("inf")])
def test_a_trades_lambda_that_is_set_is_positive_and_finite_under_every_algorithm(algorithm, lam):
    with pytest.raises(ConfigError, match=f"^trades_lambda must be positive and finite, got {lam}$"):
        _cfg(algorithm, T=32, train_kw={"trades_lambda": lam})


def test_an_int_in_a_float_field_echoes_as_an_int():
    cfg = _cfg(eps=1, schedule=StepSchedule("constant", c=2), train_kw={"attack_lr": 0, "fast_step": 1})
    t = config_to_dict(cfg)["train"]
    echoed = (t["eps"], t["schedule"]["c"], t["attack_lr"], t["fast_step"])
    assert [(v, type(v)) for v in echoed] == [(1, int), (2, int), (0, int), (1, int)]
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


# NumPy's scalars: JSON writes a float64 (a float) and none of the others
_NUMPY_SCALAR = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
)
# what a float field may be handed: bools of both kinds, ints, floats with
# their infinities, NaN and negatives, NumPy scalars, and None
_ANY_NUMBER = st.one_of(st.booleans(), st.booleans().map(np.bool_), st.integers(), st.floats(), _NUMPY_SCALAR, st.none())


def _replays_or_is_refused(build, value, refusal):
    """A config built with ``value`` in a field either replays from its
    JSON echo, equal to itself, or is refused with a ``refusal`` when it is
    built: any other exception fails the test."""
    try:
        cfg = build(value)
    except refusal:
        return
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@pytest.mark.parametrize("key", list(_FLOAT_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(value=_ANY_NUMBER)
def test_a_float_field_accepts_only_what_its_echo_replays(key, value):
    _replays_or_is_refused(_FLOAT_FIELDS[key][1], value, ConfigError)


# each count and seed field of a config: a function that builds a valid
# config with that field set to a value
_INT_FIELDS = {
    "train.batch_size": lambda v: _cfg(train_kw={"batch_size": v}),
    "train.total_iterations": lambda v: _cfg(T=v),
    "train.free_steps": lambda v: _cfg(train_kw={"free_steps": v}),
    "train.seed": lambda v: _cfg(train_kw={"seed": v}),
    "train.schedule.m": lambda v: _cfg(schedule=StepSchedule("constant", c=0.3, m=v)),
    "train.inner_attack.steps": lambda v: _cfg(train_kw={"inner_attack": AttackConfig(steps=v)}),
    "train.inner_attack.restarts": lambda v: _cfg(train_kw={"inner_attack": AttackConfig(restarts=v)}),
    "eval.attack.steps": lambda v: replace(_cfg(), eval_attack=AttackConfig(steps=v)),
    "eval.attack.restarts": lambda v: replace(_cfg(), eval_attack=AttackConfig(restarts=v)),
    "eval.seed": lambda v: replace(_cfg(), eval_seed=v),
    "eval.checkpoint_every": lambda v: replace(_cfg(), checkpoint_every=v),
    "data.n_train": lambda v: _cfg(n_train=v),
    "data.n_test": lambda v: replace(_cfg(), data=_spec(n_test=v)),
    "data.dim": lambda v: _cfg(dim=v),
    "data.seed": lambda v: replace(_cfg(), data=_spec(seed=v)),
    "trials": lambda v: _cfg(trials=v),
    "model.hidden_dim": lambda v: replace(_cfg(), hidden_dim=v),
    "model.class_count": lambda v: replace(_cfg(), class_count=v),
}
# the fields that refuse a value with a DimensionError: SyntheticSpec's sizes
_DIMENSION_FIELDS = {"data.n_train", "data.n_test", "data.dim"}

# what a count or a seed may be handed: bools of both kinds, ints past both
# ends of the 64-bit range, whole and other floats, NumPy scalars, and None
_ANY_INTEGER = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**65), 2**65),
    st.integers(-5, 5).map(float),
    st.floats(),
    _NUMPY_SCALAR,
    st.none(),
)


@pytest.mark.parametrize("key", list(_INT_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(value=_ANY_INTEGER)
def test_a_count_or_seed_field_accepts_only_what_its_echo_replays(key, value):
    _replays_or_is_refused(_INT_FIELDS[key], value, DimensionError if key in _DIMENSION_FIELDS else ConfigError)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _cfg(train_kw={"batch_size": np.int64(8)}), ConfigError, "batch_size must be an int, got int64"),
        (lambda: _cfg(train_kw={"seed": np.uint64(3)}), ConfigError, "train.seed must be an int, got uint64"),
        (lambda: AttackConfig(steps=np.int64(3)), ConfigError, "attack steps must be an int, got int64"),
        (lambda: _spec(n_train=np.int64(50)), DimensionError, "n_train must be an int, got int64"),
        (lambda: _spec(seed=np.int64(21)), ConfigError, "data.seed must be an int, got int64"),
        (lambda: PerturbationSet("l2", np.float32(0.5), 4), ConfigError, "radius must be an int or a float, got float32"),
        (lambda: replace(_cfg(), bounded_loss=np.True_), ConfigError, f"bounded_loss must be a bool, got numpy.{type(np.True_).__qualname__}"),
        (lambda: replace(_cfg(), bounded_loss=1), ConfigError, "bounded_loss must be a bool, got int"),
    ],
)
def test_a_numpy_scalar_in_a_config_field_is_refused_when_the_config_is_built(build, error, message):
    """Refused with the error its field gives any other bad value: a
    SyntheticSpec size a DimensionError, every other field a ConfigError."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        build()
    assert type(raised.value) is error


def test_a_float64_is_a_float_in_a_config_field():
    cfg = _cfg(eps=np.float64(0.5), train_kw={"trades_lambda": np.float64(2.0)})
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_an_int_beyond_the_float_range_is_rejected_as_out_of_range():
    with pytest.raises(ConfigError, match="^radius must be >= 0"):
        _cfg(eps=10**400)


def test_checkpoint_every_below_one_rejected_at_construction():
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="checkpoint_every must be >= 1"):
            replace(_cfg(), checkpoint_every=bad)
    cfg = replace(_cfg(), checkpoint_every=None)
    assert cfg.resolved_checkpoint() == cfg.data.n_train // cfg.train.batch_size


def test_transfer_requires_shared_data():
    cfg_a = _cfg(trials=1)
    cfg_b = _cfg(trials=1, n_train=50)
    with pytest.raises(ConfigError):
        run_transfer_experiment(cfg_a, cfg_b)


def test_free_trades_comparison_pairing_and_lambda_limit():
    lam = 1e9
    seq = _cfg(algorithm="trades_seq", trials=2, T=24, train_kw=dict(trades_lambda=lam))
    sim = _cfg(algorithm="free_trades", trials=2, T=24, train_kw=dict(trades_lambda=lam, free_steps=4))
    res = run_free_trades_comparison(seq, sim)
    g1 = res.sequential.final_acc_gaps()
    g2 = res.simultaneous.final_acc_gaps()
    # with an enormous lambda both collapse toward clean training
    se = np.std(np.concatenate([g1, g2]), ddof=1) / np.sqrt(2) + 1e-9
    assert abs(g1.mean() - g2.mean()) <= 2 * se + 0.35
    # wrong algorithm pairing is rejected
    with pytest.raises(ConfigError):
        run_free_trades_comparison(sim, seq)


def test_free_trades_same_seeds_reproduce():
    lam = 0.5
    seq = _cfg(algorithm="trades_seq", trials=1, T=16, train_kw=dict(trades_lambda=lam))
    sim = _cfg(algorithm="free_trades", trials=1, T=16, train_kw=dict(trades_lambda=lam, free_steps=4))
    r1 = run_free_trades_comparison(seq, sim)
    r2 = run_free_trades_comparison(seq, sim)
    assert report_to_dict(r1.sequential) == report_to_dict(r2.sequential)
    assert report_to_dict(r1.simultaneous) == report_to_dict(r2.simultaneous)


def test_emit_report_json_round_trip(tmp_path):
    rep = run_gap_experiment(_cfg(trials=2, T=20))
    paths = emit_report([rep], "json", tmp_path)
    loaded = load_report(paths[0])
    assert loaded == report_to_dict(rep)  # floats round-trip bit-exactly


def test_emit_report_csv_row_count(tmp_path):
    rep = run_gap_experiment(_cfg(trials=2, T=30))
    paths = emit_report([rep], "csv", tmp_path)
    trace = [p for p in paths if p.name == "trace.csv"][0]
    rows = trace.read_text().strip().splitlines()
    n_checkpoints = len(rep.trials[0].checkpoints)
    assert len(rows) - 1 == n_checkpoints * len(rep.trials)
    plot = [p for p in paths if p.name.startswith("plotdata_")]
    assert len(plot) == 1
    assert len(plot[0].read_text().strip().splitlines()) - 1 == n_checkpoints


def test_emit_report_empty_errors(tmp_path):
    with pytest.raises(DimensionError):
        emit_report([], "json", tmp_path)
    with pytest.raises(ValueError):
        emit_report([run_gap_experiment(_cfg(trials=1, T=15))], "xml", tmp_path)


def test_min_grad_delta_norm_series_emitted():
    rep = run_gap_experiment(_cfg(trials=1, T=20))
    t = rep.trials[0]
    assert t.min_grad_delta_norm > 0.0
    assert not t.grad_degenerate


def test_oracle_call_counts_recorded():
    rep_v = run_gap_experiment(_cfg(trials=1, T=20))
    assert rep_v.trials[0].oracle_calls == 20 * 4  # K=3 -> 4 per update
    rep_f = run_gap_experiment(_cfg(algorithm="free", trials=1, T=20, train_kw=dict(free_steps=4)))
    assert rep_f.trials[0].oracle_calls == 20


def _reference_echo(cfg):
    """The config echo written out field by field: the layout ``--config``
    reads, with every field as set; reports must keep it byte for byte."""
    t = cfg.train
    return {
        "model": {
            "kind": cfg.model_kind,
            "hidden_dim": cfg.hidden_dim,
            "class_count": cfg.class_count,
            "bounded_loss": cfg.bounded_loss,
        },
        "data": {
            "kind": cfg.data.kind,
            "n_train": cfg.data.n_train,
            "n_test": cfg.data.n_test,
            "dim": cfg.data.dim,
            "noise": cfg.data.noise,
            "seed": cfg.data.seed,
            "separation": cfg.data.separation,
        },
        "train": {
            "algorithm": t.algorithm,
            "norm": t.pset.norm,
            "eps": t.pset.radius,
            "schedule": {"kind": t.schedule.kind, "c": t.schedule.c, "m": t.schedule.m},
            "batch_size": t.batch_size,
            "total_iterations": t.total_iterations,
            "seed": t.seed,
            "attack_lr": t.attack_lr,
            "fast_step": t.fast_step,
            "free_steps": t.free_steps,
            "trades_lambda": t.trades_lambda,
            "inner_attack": {
                "steps": t.inner_attack.steps,
                "step_size": t.inner_attack.step_size,
                "restarts": t.inner_attack.restarts,
                "init": t.inner_attack.init,
            },
        },
        "eval": {
            "attack": {
                "steps": cfg.eval_attack.steps,
                "step_size": cfg.eval_attack.step_size,
                "restarts": cfg.eval_attack.restarts,
                "init": cfg.eval_attack.init,
            },
            "seed": cfg.eval_seed,
            "checkpoint_every": cfg.checkpoint_every,
        },
        "trials": cfg.trials,
        "budget_axis": cfg.budget_axis,
    }


def _every_field_set(algorithm):
    """A config with every optional field away from its default."""
    data = SyntheticSpec("xor_clusters", n_train=33, n_test=17, dim=3, noise=0.25, seed=5, separation=1.5)
    train = TrainConfig(
        algorithm,
        PerturbationSet("linf", 0.125, 3),
        StepSchedule("vanishing_c_over_mt", c=0.75, m=3),
        batch_size=7,
        total_iterations=27,
        seed=13,
        attack_lr=0.0625,
        fast_step=0.1,
        free_steps=3,
        trades_lambda=0.5,
        inner_attack=AttackConfig(steps=2, step_size=0.03, restarts=3, init="zero"),
    )
    return ExperimentConfig(
        model_kind="softmax_linear",
        data=data,
        train=train,
        eval_attack=AttackConfig(steps=5, step_size=0.02, restarts=2, init="zero"),
        eval_seed=4,
        checkpoint_every=9,
        trials=3,
        hidden_dim=11,
        class_count=3,
        bounded_loss=True,
        budget_axis="oracle_calls",
        attach_bounds=False,
    )


_ECHO_CASES = [_cfg(algorithm, T=32) for algorithm in ("vanilla", "fast", "free")]
_ECHO_CASES += [_cfg(algorithm, T=32, train_kw={"trades_lambda": 1.0 / 6.0}) for algorithm in ("trades_seq", "free_trades")]
_ECHO_CASES += [_every_field_set(algorithm) for algorithm in ("vanilla", "trades_seq", "fast", "free", "free_trades")]


@pytest.mark.parametrize("cfg", _ECHO_CASES, ids=lambda c: f"{c.train.algorithm}-{c.train.pset.norm}-{c.train.schedule.kind}")
def test_config_echo_equals_the_hand_written_layout(cfg):
    echo = config_to_dict(cfg)
    assert echo == _reference_echo(cfg)
    assert json.dumps(echo, indent=2) == json.dumps(_reference_echo(cfg), indent=2)


@pytest.mark.parametrize("cfg", _ECHO_CASES, ids=lambda c: f"{c.train.algorithm}-{c.train.pset.norm}-{c.train.schedule.kind}")
def test_config_round_trips_through_its_layout(cfg):
    # attach_bounds is not part of the layout and reads back as True
    expected = replace(cfg, attach_bounds=True)
    assert config_from_dict(config_to_dict(cfg)) == expected
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == expected


# the fields that may be None, by dotted key
_OPTIONAL = (
    "train.attack_lr",
    "train.fast_step",
    "train.trades_lambda",
    "train.inner_attack.step_size",
    "eval.attack.step_size",
    "eval.checkpoint_every",
)


def _random_config(r: random.Random) -> ExperimentConfig:
    """A valid config with every field drawn: the constraints between fields
    (spiral2d is 2-d, free's T and c/(m t) schedule follow its m, TRADES
    needs a lambda, scalar_logistic has 2 classes) are met by construction."""

    def maybe(value):
        return value if r.random() < 0.5 else None

    def attack():
        return AttackConfig(r.randint(1, 12), maybe(r.uniform(0.01, 1.0)), r.randint(1, 3), r.choice(["zero", "uniform"]))

    data_kind = r.choice(["two_gaussians", "xor_clusters", "spiral2d"])
    dim = 2 if data_kind == "spiral2d" else r.randint(1, 30)
    data = SyntheticSpec(
        data_kind, r.randint(2, 3000), r.randint(2, 3000), dim, r.uniform(0.0, 3.0), r.randint(0, 2**32), r.uniform(-4.0, 4.0)
    )
    algorithm = r.choice(list(RULES))
    free = RULES[algorithm] == "free"
    free_steps = r.randint(1, 8)
    schedule_kind = r.choice(["constant", "vanishing_c_over_t", "vanishing_c_over_mt"])
    m = free_steps if free and schedule_kind == "vanishing_c_over_mt" else r.randint(1, 8)
    lam = r.uniform(0.01, 10.0)
    train = TrainConfig(
        algorithm,
        PerturbationSet(r.choice(["l2", "linf"]), r.uniform(0.0, 2.0), dim),
        StepSchedule(schedule_kind, r.uniform(0.01, 5.0), m),
        batch_size=r.randint(1, 64),
        total_iterations=(free_steps if free else 1) * r.randint(0, 100),
        seed=r.randint(0, 2**63),
        attack_lr=maybe(r.uniform(0.0, 2.0)),
        fast_step=maybe(r.uniform(0.0, 2.0)),
        free_steps=free_steps,
        trades_lambda=lam if algorithm != RULES[algorithm] else maybe(lam),
        inner_attack=attack(),
    )
    model_kind = r.choice(["softmax_linear", "mlp", "scalar_logistic"])
    return ExperimentConfig(
        model_kind,
        data,
        train,
        eval_attack=attack(),
        eval_seed=r.randint(0, 2**32),
        checkpoint_every=maybe(r.randint(1, 500)),
        trials=r.randint(1, 6),
        hidden_dim=r.randint(1, 40),
        class_count=2 if model_kind == "scalar_logistic" else r.randint(2, 5),
        bounded_loss=r.random() < 0.5,
        budget_axis=r.choice(["updates", "oracle_calls"]),
        attach_bounds=True,
    )


def test_random_valid_configs_round_trip_through_their_layout():
    r = random.Random(12)
    seen, optional = set(), {key: set() for key in _OPTIONAL}
    for _ in range(240):
        cfg = _random_config(r)
        layout = config_to_dict(cfg)
        assert config_from_dict(layout) == cfg
        assert config_from_dict(json.loads(json.dumps(layout))) == cfg
        t = cfg.train
        seen |= {t.algorithm, t.pset.norm, t.schedule.kind, cfg.model_kind, cfg.budget_axis}
        for key in _OPTIONAL:
            section, *rest = key.split(".")
            value = layout[section]
            for part in rest:
                value = value[part]
            optional[key].add(value is None)
    assert seen >= set(RULES) | {"l2", "linf", "constant", "vanishing_c_over_t", "vanishing_c_over_mt"}
    assert seen >= {"softmax_linear", "mlp", "scalar_logistic", "updates", "oracle_calls"}
    assert all(both == {True, False} for both in optional.values()), optional


def test_spearman_equals_scipy_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(400):
        k = int(rng.integers(2, 10))
        if trial % 2:  # ties in both vectors
            x = rng.integers(0, 4, size=k).astype(float)
            y = np.round(rng.normal(size=k), 1)
        else:  # distinct sizes against distinct gaps
            x = np.sort(rng.choice(np.arange(20.0, 4000.0), size=k, replace=False))
            y = rng.normal(size=k)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            assert np.isnan(_spearman(x, y))
            continue
        assert _spearman(x, y) == float(stats.spearmanr(x, y).statistic), (x, y)
        checked += 1
    assert checked > 300


# -- checkpoint evaluation on every CPU -------------------------------------------

_PINNED_GAP = """
import hashlib, json, os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from advstab.experiments import ExperimentConfig, run_gap_experiment
from advstab.reportio import report_to_dict
from advstab.synth import SyntheticSpec
from advstab.threat import AttackConfig, PerturbationSet
from advstab.trainers import StepSchedule, TrainConfig
data = SyntheticSpec("two_gaussians", n_train=200, n_test=400, dim=8, noise=1.0, seed=5)
print(len(os.sched_getaffinity(0)))
for algorithm, schedule in [("free", StepSchedule("vanishing_c_over_mt", c=2.0, m=4)), ("vanilla", StepSchedule("vanishing_c_over_t", c=0.5))]:
    train = TrainConfig(algorithm, PerturbationSet("l2", 0.5, 8), schedule, batch_size=20, total_iterations=80, seed=3,
                        inner_attack=AttackConfig(steps=3))
    cfg = ExperimentConfig("mlp", data, train, eval_attack=AttackConfig(steps=5, restarts=2), checkpoint_every=8, trials=2, hidden_dim=8)
    report = report_to_dict(run_gap_experiment(cfg))
    text = json.dumps(report).encode()
    print(len(report["trials"][1]["checkpoints"]), len(report["bounds"]), hashlib.sha256(text).hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_gap_report_is_the_same_on_one_cpu_and_on_all(threads):
    """Inline and forked evaluation give the same reports, bound constants
    included: the constants are estimated while the workers evaluate."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    runs = {}
    for mode in ("pin", "all"):
        done = subprocess.run([sys.executable, "-c", _PINNED_GAP, mode], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs[mode] = done.stdout.split()
    assert runs["pin"][:3] == ["1", "10", "1"] and runs["pin"][4:6] == ["10", "1"]  # a bound attached to each
    assert runs["pin"][1:] == runs["all"][1:]


def _lines(path) -> list:
    return path.read_text().split() if path.exists() else []


@pytest.mark.parametrize("cores", [1, 4])
def test_evaluation_failure_raises_the_lowest_failing_mark(monkeypatch, tmp_path, cores):
    log, evaluate = tmp_path / "started", experiments._checkpoint

    def failing(*args):
        iteration = args[-1]
        with open(log, "a") as fh:  # written by the workers, read by the test
            fh.write(f"{iteration}\n")
        if iteration == 3:
            time.sleep(0.3)  # so that mark 5 fails first
        if iteration in (3, 5):
            raise ValueError(f"mark {iteration}")
        time.sleep(0.01)
        return evaluate(*args)

    monkeypatch.setattr(experiments, "_checkpoint", failing)
    monkeypatch.setattr(experiments, "_cores", lambda: cores)
    with pytest.raises(ValueError, match="^mark 3$"):
        run_gap_experiment(replace(_cfg(T=24, trials=1), checkpoint_every=1))
    started = [int(mark) for mark in _lines(log)]
    if cores == 1:
        assert started == [1, 2, 3]
    else:
        assert 5 in started and 24 not in started  # no mark starts after a failure
    assert multiprocessing.active_children() == []


def test_caller_errstate_reaches_the_worker_processes(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "_cores", lambda: 4)
    evaluate = experiments._checkpoint

    def divide(*args):
        try:
            np.divide(np.ones(3), 0.0)
            raised = "no"
        except FloatingPointError:
            raised = "yes"
        (tmp_path / f"{args[-1]}").write_text(f"{os.getpid()} {raised}")
        time.sleep(0.01)
        return evaluate(*args)

    monkeypatch.setattr(experiments, "_checkpoint", divide)
    with np.errstate(all="raise"):
        run_gap_experiment(replace(_cfg(T=16, trials=1), checkpoint_every=1))
    seen = [path.read_text().split() for path in tmp_path.iterdir()]
    assert len(seen) == 16 and all(raised == "yes" for _, raised in seen)
    pids = {int(pid) for pid, _ in seen}
    assert os.getpid() not in pids and len(pids) > 1  # the workers, not the caller, evaluated


def test_every_mark_is_evaluated_exactly_once(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "_cores", lambda: 8)  # more workers than CPUs
    log, evaluate = tmp_path / "evaluated", experiments._checkpoint

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{args[-1]}\n")
        return evaluate(*args)

    monkeypatch.setattr(experiments, "_checkpoint", logged)
    report = run_gap_experiment(replace(_cfg(T=300, trials=2), checkpoint_every=1))
    marks = list(range(1, 301))
    assert [c.iteration for t in report.trials for c in t.checkpoints] == marks * 2
    assert sorted(int(mark) for mark in _lines(log)) == sorted(marks * 2)


@pytest.mark.parametrize("cores", [1, 4])
def test_no_worker_outlives_a_call(monkeypatch, cores):
    monkeypatch.setattr(experiments, "_cores", lambda: cores)
    cfg = replace(_cfg(T=24, trials=2), checkpoint_every=2)
    run_gap_experiment(cfg)
    assert multiprocessing.active_children() == []

    def failing(*args):
        raise ValueError("evaluation failed")

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_checkpoint", failing)
        with pytest.raises(ValueError, match="evaluation failed"):
            run_gap_experiment(cfg)
    assert multiprocessing.active_children() == []

    workers = []

    def blowing_up(*args, on_snapshot, **kwargs):
        def hook(update, w):
            on_snapshot(update, w)
            if update == 6:
                workers.extend(p.pid for p in multiprocessing.active_children())
                raise FloatingPointError("update 6 made the weights of trajectory 0 non-finite")

        return train(*args, on_snapshot=hook, **kwargs)

    monkeypatch.setattr(experiments, "train", blowing_up)
    with pytest.raises(FloatingPointError, match="update 6"):
        run_gap_experiment(cfg)
    assert len(workers) == (4 if cores > 1 else 0)  # the workers were running mid-trial
    assert multiprocessing.active_children() == []
    for pid in workers:  # joined, so reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_worker_failure_carries_its_traceback(monkeypatch):
    monkeypatch.setattr(experiments, "_cores", lambda: 2)

    def failing(*args):
        raise ValueError("evaluation failed")

    monkeypatch.setattr(experiments, "_checkpoint", failing)
    with pytest.raises(ValueError, match="evaluation failed") as info:
        run_gap_experiment(_cfg(T=8, trials=1))
    assert "in failing" in str(info.value.__cause__)


_DYING_WORKER = """
import multiprocessing, os
from advstab import experiments
from advstab.synth import SyntheticSpec
from advstab.threat import AttackConfig, PerturbationSet
from advstab.trainers import StepSchedule, TrainConfig
experiments._cores = lambda: 4
evaluate = experiments._checkpoint
def dying(*args):
    if args[-1] == 6:
        os._exit(3)
    return evaluate(*args)
experiments._checkpoint = dying
data = SyntheticSpec("two_gaussians", n_train=40, n_test=60, dim=4, noise=1.0, seed=21)
train = TrainConfig("vanilla", PerturbationSet("l2", 0.3, 4), StepSchedule("constant", c=0.3), batch_size=8, total_iterations=24, seed=100)
cfg = experiments.ExperimentConfig("mlp", data, train, checkpoint_every=2, trials=1, hidden_dim=6)
try:
    experiments.run_gap_experiment(cfg)
    print("returned")
except RuntimeError:
    print("RuntimeError")
print(len(multiprocessing.active_children()))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="evaluation runs inline without fork")
def test_a_dying_worker_raises_and_leaves_no_worker_behind():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", _DYING_WORKER], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["RuntimeError", "0"]


def test_no_fork_copies_a_running_thread(monkeypatch):
    """The experiment's workers fork once, before their pool starts a
    thread, and serve every trial."""
    monkeypatch.setattr(experiments, "_cores", lambda: 4)
    threads, fork = [], os.fork

    def counting_fork():
        threads.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    before = threading.active_count()
    run_gap_experiment(replace(_cfg(T=24, trials=3), checkpoint_every=2))
    if "fork" in multiprocessing.get_all_start_methods():
        assert threads == [before] * 4  # four workers for the three trials
    assert threading.active_count() == before


def test_on_snapshot_sees_each_mark_once_in_order():
    cfg = _cfg("free", T=40, train_kw=dict(free_steps=4)).train
    data, _ = make_synthetic(_cfg().data)
    model = make_model("mlp", input_dim=4, class_count=2, hidden_dim=6)
    seen = []
    _, trace = train(model, data, cfg, snapshot_at=[12, 4, 40, 20], on_snapshot=lambda u, w: seen.append((u, w.copy())))
    assert [u for u, _ in seen] == [4, 12, 20, 40]
    assert all(np.array_equal(w, trace.snapshots[u]) for u, w in seen)


# -- checkpoint evaluation on one binding ----------------------------------------


def _two_call_evaluate(model, w, train_ds, test_ds, pset, attack, eval_seed, iteration):
    """Checkpoint evaluation as two fresh ``empirical_robust_risk`` calls,
    one per set, each with its own stream."""
    train_risk, train_acc = empirical_robust_risk(model, w, train_ds, pset, attack, stream(eval_seed, 7, iteration, 0))
    test_risk, test_acc = empirical_robust_risk(model, w, test_ds, pset, attack, stream(eval_seed, 7, iteration, 1))
    return CheckpointStat(iteration=iteration, train_risk=train_risk, train_acc=train_acc, test_risk=test_risk, test_acc=test_acc)


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("kind", ["softmax_linear", "mlp", "scalar_logistic"])
def test_fused_evaluation_equals_one_attack_per_set_bit_for_bit(kind, bounded):
    """Marks evaluated in a scrambled order through one binding of both sets
    give the numbers of fresh per-set evaluations at each mark."""
    train_ds, test_ds = make_synthetic(SyntheticSpec("two_gaussians", n_train=37, n_test=53, dim=5, noise=1.0, seed=41))
    model = make_model(kind, input_dim=5, hidden_dim=4, bounded=bounded)
    oracle = model.attack_oracle(np.vstack([train_ds.X, test_ds.X]), np.concatenate([train_ds.y, test_ds.y]))
    rng = stream(42, 0)
    marks = []
    for norm, radius in (("l2", 0.6), ("linf", 0.2)):
        pset = PerturbationSet(norm, radius, 5)
        for init, restarts in itertools.product(("zero", "uniform"), (1, 2)):
            attack = AttackConfig(steps=4, step_size=radius / 2, init=init, restarts=restarts)
            for iteration in (3, 8):
                marks.append((pset, attack, iteration, model.init_params(rng) + rng.standard_normal(model.param_dim)))
    random.Random(43).shuffle(marks)
    for pset, attack, iteration, w in marks:
        got = experiments._checkpoint(model, oracle, (37, 53), pset, attack, 777, w, iteration)
        want = _two_call_evaluate(model, w, train_ds, test_ds, pset, attack, 777, iteration)
        assert [float(v).hex() for v in asdict(got).values()] == [float(v).hex() for v in asdict(want).values()]


def _report_json(cfg) -> str:
    return json.dumps(report_to_dict(run_gap_experiment(cfg)))


def test_one_pool_and_one_evaluation_binding_per_experiment(monkeypatch, tmp_path):
    """Three trials fork one pool and bind the evaluation rows where they
    are evaluated: once in the caller on one CPU, else at most once in each
    worker and never in the caller. Both report the same, byte for byte."""
    cfg = replace(_cfg(T=24, trials=3), checkpoint_every=2)
    rows, marks = cfg.data.n_train + cfg.data.n_test, 12
    log, pools = tmp_path / "bound", []
    attack_oracle, pool = SmoothModel.attack_oracle, concurrent.futures.ProcessPoolExecutor

    def counted(self, X, *args):
        if X.shape[-2] == rows:
            with open(log, "a") as fh:  # by the workers too
                fh.write(f"{os.getpid()}\n")
        return attack_oracle(self, X, *args)

    class CountedPool(pool):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(SmoothModel, "attack_oracle", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    reports = {}
    for cores in (1, 4):
        monkeypatch.setattr(experiments, "_cores", lambda: cores)
        log.unlink(missing_ok=True)
        reports[cores] = _report_json(cfg)
        bound = _lines(log)
        if cores == 1 or "fork" not in multiprocessing.get_all_start_methods():
            assert bound == [str(os.getpid())]
        else:
            assert str(os.getpid()) not in bound
            assert 1 <= len(bound) <= min(4, marks) and len(set(bound)) == len(bound)
    if "fork" in multiprocessing.get_all_start_methods():
        assert len(pools) == 1
    assert reports[1] == reports[4]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="evaluation runs inline without fork")
def test_a_worker_that_cannot_bind_fails_its_mark(monkeypatch):
    """A worker's failure to bind the evaluation is the failure of the mark
    it was binding for: the run raises the lowest such mark's, with the
    worker's traceback as its cause, and leaves no worker behind."""
    caller, attack_oracle = os.getpid(), SmoothModel.attack_oracle

    def failing(self, *args):
        if os.getpid() == caller:
            return attack_oracle(self, *args)
        frame = sys._getframe()
        while frame.f_code.co_name != "_evaluate_in_worker":  # the mark the worker is binding for
            frame = frame.f_back
        mark = frame.f_locals["mark"]
        if mark == 1:
            time.sleep(0.3)  # so that a later mark fails first
        raise ValueError(f"no binding at mark {mark}")

    monkeypatch.setattr(SmoothModel, "attack_oracle", failing)
    monkeypatch.setattr(experiments, "_cores", lambda: 4)
    with pytest.raises(ValueError, match="^no binding at mark 1$") as info:
        run_gap_experiment(replace(_cfg(T=24, trials=2), checkpoint_every=1))
    assert "in failing" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores", [1, 4])
def test_a_failing_mark_in_a_later_trial_raises_that_trials_lowest(monkeypatch, tmp_path, cores):
    flag, evaluate = tmp_path / "trial", experiments._checkpoint

    def flagged(model, dataset, cfg, **kwargs):
        flag.write_text(str(cfg.seed))  # after every mark of the trial before is evaluated
        return train(model, dataset, cfg, **kwargs)

    def failing(*args):
        seed, iteration = int(flag.read_text()), args[-1]
        if seed == 101 and iteration == 3:
            time.sleep(0.3)  # so that mark 5 fails first
        if seed == 101 and iteration in (3, 5):
            raise ValueError(f"trial {seed} mark {iteration}")
        return evaluate(*args)

    monkeypatch.setattr(experiments, "train", flagged)
    monkeypatch.setattr(experiments, "_checkpoint", failing)
    monkeypatch.setattr(experiments, "_cores", lambda: cores)
    with pytest.raises(ValueError, match="^trial 101 mark 3$"):
        run_gap_experiment(replace(_cfg(T=24, trials=3), checkpoint_every=1))
    assert multiprocessing.active_children() == []
