import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from advstab import experiments
from advstab.cli import main
from advstab.errors import ConfigError, DimensionError
from advstab.experiments import config_from_dict, config_to_dict

_BASE = {
    "model": {"kind": "mlp", "hidden_dim": 5},
    "data": {"kind": "two_gaussians", "n_train": 30, "n_test": 40, "dim": 4, "noise": 1.0, "seed": 3},
    "train": {
        "algorithm": "vanilla",
        "norm": "l2",
        "eps": 0.3,
        "schedule": {"kind": "constant", "c": 0.3},
        "batch_size": 6,
        "total_iterations": 20,
        "seed": 7,
        "inner_attack": {"steps": 2, "step_size": 1.0},
    },
    "eval": {"attack": {"steps": 3, "step_size": 1.0}, "seed": 99, "checkpoint_every": 10},
    "trials": 1,
}


def _write_cfg(tmp_path, **overrides):
    cfg = json.loads(json.dumps(_BASE))
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gap_command_writes_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["gap", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "trace.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["algorithm"] == "vanilla"
    assert report["config"]["train"]["total_iterations"] == 20


def _files(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


# free under a c/(m t) schedule attaches bounds; without checkpoint_every the
# echo holds null and the cadence is one epoch
_FREE_BOUNDED = {
    "train": {**_BASE["train"], "algorithm": "free", "schedule": {"kind": "vanishing_c_over_mt", "c": 0.5, "m": 4}},
    "eval": {"attack": {"steps": 3, "step_size": 1.0}, "seed": 99},
}


@pytest.mark.parametrize("overrides", [{}, _FREE_BOUNDED], ids=["vanilla", "free-bounded"])
def test_gap_report_config_replays_every_output_byte_for_byte(tmp_path, overrides):
    cfg, out = _write_cfg(tmp_path, **overrides), tmp_path / "out"
    assert main(["gap", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(json.loads((out / "report.json").read_text())["config"]))
    replay = tmp_path / "replay"
    assert main(["gap", "--config", str(echo), "--out", str(replay)]) == 0
    assert _files(replay) == _files(out)
    assert {"report.json", "trace.csv"} < set(_files(out))


@pytest.mark.parametrize("command", [["vs-n", "--n-values", "20,30"], ["free-trades"]])
def test_each_sub_report_config_replays_through_gap(tmp_path, command):
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 0
    reports = json.loads((out / "report.json").read_text())
    assert len(reports) == 2
    for k, report in enumerate(reports):
        echo = tmp_path / f"echo{k}.json"
        echo.write_text(json.dumps(report["config"]))
        assert main(["gap", "--config", str(echo), "--out", str(tmp_path / f"replay{k}")]) == 0
        assert json.loads((tmp_path / f"replay{k}" / "report.json").read_text()) == report


# the defaults as the command line wrote them out before they were derived
# from one ExperimentConfig; no default may move
_DEFAULT_CONFIG = {
    "model": {"kind": "mlp", "hidden_dim": 16, "class_count": 2, "bounded_loss": False},
    "data": {"kind": "two_gaussians", "n_train": 500, "n_test": 1000, "dim": 20, "noise": 1.0, "seed": 1, "separation": 2.0},
    "train": {
        "algorithm": "free",
        "norm": "l2",
        "eps": 0.5,
        "schedule": {"kind": "constant", "c": 0.2, "m": 4},
        "batch_size": 25,
        "total_iterations": 400,
        "seed": 11,
        "attack_lr": None,
        "fast_step": None,
        "free_steps": 4,
        "trades_lambda": None,
        "inner_attack": {"steps": 10, "step_size": None, "restarts": 1, "init": "uniform"},
    },
    "eval": {"attack": {"steps": 10, "step_size": None, "restarts": 1, "init": "uniform"}, "seed": 9999, "checkpoint_every": None},
    "trials": 2,
    "budget_axis": "updates",
}


def test_derived_defaults_equal_the_written_out_defaults():
    derived = config_to_dict(experiments._DEFAULTS)
    assert derived == _DEFAULT_CONFIG
    # the text also pins each number's JSON type (1.0, not 1), which the type checks read
    assert json.dumps(derived) == json.dumps(_DEFAULT_CONFIG)
    assert config_from_dict() == experiments._DEFAULTS


def test_gap_flag_overrides(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["gap", "--config", str(cfg), "--out", str(out), "--algorithm", "fast", "--iterations", "10", "--seed", "42"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["algorithm"] == "fast"
    assert report["config"]["train"]["total_iterations"] == 10
    assert report["trials"][0]["seed"] == 42


def test_gap_rerun_bit_exact(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["gap", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["gap", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()
    assert (out1 / "trace.csv").read_text() == (out2 / "trace.csv").read_text()


def test_vs_n_command(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["vs-n", "--config", str(cfg), "--out", str(out), "--n-values", "20,30"])
    assert code == 0
    summary = json.loads((out / "vs_n_summary.json").read_text())
    assert summary["n_values"] == [20, 30]
    assert len(summary["mean_gaps"]) == 2


def test_transfer_command(tmp_path):
    cfg = _write_cfg(tmp_path)
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({"train": {"algorithm": "fast", "seed": 8}}))
    out = tmp_path / "out"
    code = main(["transfer", "--config", str(cfg), "--config-b", str(cfg_b), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["accuracy"]) == {"a->a", "a->b", "b->a", "b->b"}


def test_transfer_flags_reach_both_configs(tmp_path, monkeypatch):
    from advstab import cli
    from advstab.experiments import TransferReport

    seen = []

    def capture(cfg_a, cfg_b):
        seen.extend([cfg_a, cfg_b])
        return TransferReport(accuracy={}, per_trial=[], clean_accuracy={})

    monkeypatch.setattr(cli, "run_transfer_experiment", capture)
    cfg = _write_cfg(tmp_path)
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({"train": {"algorithm": "fast", "seed": 8}}))
    flags = ["--seed", "31", "--iterations", "12", "--trials", "3"]
    code = main(["transfer", "--config", str(cfg), "--config-b", str(cfg_b), "--out", str(tmp_path / "out")] + flags)
    assert code == 0
    cfg_a, cfg_b = seen
    assert cfg_b.train.algorithm == "fast"
    for c in (cfg_a, cfg_b):
        assert (c.train.seed, c.train.total_iterations, c.trials) == (31, 12, 3)


def test_free_trades_command(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["free-trades", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    reports = json.loads((out / "report.json").read_text())
    assert {r["algorithm"] for r in reports} == {"trades_seq", "free_trades"}


def test_stability_command(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["stability", "--config", str(cfg), "--out", str(out), "--pairs", "3"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["pairs"]) == 3
    assert {"final_d_w", "first_divergence_step", "encounters"} <= set(report["pairs"][0])


def test_bounds_command(tmp_path):
    cfg = _write_cfg(tmp_path)
    # vanishing schedule so the bound applies
    raw = json.loads(cfg.read_text())
    raw["train"]["schedule"] = {"kind": "vanishing_c_over_t", "c": 0.5}
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["bounds", "--config", str(cfg), "--out", str(out), "--probes", "100"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["bounds"]) == ["vanilla", "free", "fast"]
    assert report["constants"]["lipschitz"] >= report["constants"]["lipschitz_w"]


def test_bounds_command_reports_each_rule_on_its_own(tmp_path, capsys):
    # T=30 trains the vanilla rule and fits the fast bound, but the free bound
    # needs m=4 to divide T: only that entry carries the error
    train = {**_BASE["train"], "schedule": {"kind": "vanishing_c_over_t", "c": 0.5}, "total_iterations": 30}
    cfg = _write_cfg(tmp_path, train=train)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out), "--probes", "100"]) == 0
    bounds = json.loads((out / "report.json").read_text())["bounds"]
    assert list(bounds) == ["vanilla", "free", "fast"]
    assert bounds["free"] == {"error": "ConfigError: T=30 must be divisible by m=4"}
    for rule in ("vanilla", "fast"):
        assert bounds[rule]["algorithm"] == rule
        assert bounds[rule]["n_steps"] == 30
        assert bounds[rule]["bound_value"] > 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "rule, error",
    [("vanilla", ConfigError("the trained rule's own bound")), ("fast", DimensionError("not a precondition"))],
)
def test_bounds_command_propagates_other_failures(tmp_path, capsys, monkeypatch, rule, error):
    # only another rule's ConfigError becomes an entry: a failed bound for the
    # trained rule (vanilla) or any other error fails the command
    from advstab import cli

    def fail(inputs):
        raise error

    monkeypatch.setitem(cli.RULE_FACTS, rule, cli.RULE_FACTS[rule]._replace(bound=fail))
    train = {**_BASE["train"], "schedule": {"kind": "vanishing_c_over_t", "c": 0.5}}
    cfg = _write_cfg(tmp_path, train=train)
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out"), "--probes", "100"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": type(error).__name__, "message": str(error)}
    assert not (tmp_path / "out").exists()


def test_failure_is_machine_readable(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, train={**_BASE["train"], "batch_size": 500})
    code = main(["gap", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert "batch_size" in payload["message"]


def test_debug_flag_prints_traceback_before_the_error_line(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, train={**_BASE["train"], "batch_size": 500})
    args = ["gap", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert main(["--debug", *args]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("Traceback (most recent call last)")
    assert any("ConfigError: batch_size" in line for line in err)
    assert json.loads(err[-1])["error"] == "ConfigError"


def test_console_entry_point_runs():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "advstab", "gap", "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--config" in proc.stdout


# one misspelled key per config section, with the dotted path it is named by
_UNKNOWN_KEYS = [
    ({"trails": 3}, "trails"),
    ({"model_kind": "softmax_linear"}, "model_kind"),
    ({"model": {"hiden_dim": 32}}, "model.hiden_dim"),
    ({"data": {"sead": 4}}, "data.sead"),
    ({"train": {"fre_steps": 8}}, "train.fre_steps"),
    ({"train": {"schedule": {"mm": 2}}}, "train.schedule.mm"),
    ({"train": {"inner_attack": {"stpes": 2}}}, "train.inner_attack.stpes"),
    ({"eval": {"sed": 1}}, "eval.sed"),
    ({"eval": {"attack": {"stpes": 2}}}, "eval.attack.stpes"),
]


@pytest.mark.parametrize("extra, dotted", _UNKNOWN_KEYS)
def test_unknown_config_key_is_rejected_with_its_dotted_path(tmp_path, capsys, extra, dotted):
    with pytest.raises(ConfigError, match=f"unknown config key {dotted}$"):
        config_from_dict(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(extra))
    assert main(["gap", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": f"unknown config key {dotted}"}
    assert not (tmp_path / "out").exists()


def test_unknown_key_in_config_b_is_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({"train": {"algorithm": "fast", "fre_steps": 8}}))
    code = main(["transfer", "--config", str(cfg), "--config-b", str(cfg_b), "--out", str(tmp_path / "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": "unknown config key train.fre_steps"}


# a non-object value where the defaults hold a section
_NOT_SECTIONS = [
    ({"train": 5}, "config train must be an object, got int"),
    ({"data": None}, "config data must be an object, got NoneType"),
    ({"train": {"schedule": "constant"}}, "config train.schedule must be an object, got str"),
    ({"eval": {"attack": [10]}}, "config eval.attack must be an object, got list"),
    ([], "config file must be an object, got list"),
]


@pytest.mark.parametrize("raw, message", _NOT_SECTIONS)
def test_non_object_section_is_rejected_with_its_dotted_path(tmp_path, capsys, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["gap", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "out").exists()


# a scalar whose JSON type does not fit its default, and the other values
# that construction rejects, each with the dotted key or field it names
_BAD_VALUES = [
    ({"trials": {"n": 3}}, "config trials must be an int, got dict"),
    ({"train": {"batch_size": "25"}}, "config train.batch_size must be an int, got str"),
    ({"train": {"batch_size": 25.0}}, "config train.batch_size must be an int, got float"),
    ({"trials": True}, "config trials must be an int, got bool"),
    ({"train": {"eps": True}}, "config train.eps must be a number, got bool"),
    ({"train": {"attack_lr": "0.5"}}, "config train.attack_lr must be a number or null, got str"),
    ({"model": {"bounded_loss": 1}}, "config model.bounded_loss must be a bool, got int"),
    ({"budget_axis": None}, "config budget_axis must be a string, got NoneType"),
    ({"eval": {"attack": {"steps": [10]}}}, "config eval.attack.steps must be an int, got list"),
    ({"eval": {"checkpoint_every": 0}}, "checkpoint_every must be >= 1"),
    ({"eval": {"checkpoint_every": 2.5}}, "checkpoint_every must be an int or None, got 2.5"),
    ({"eval": {"checkpoint_every": 4.0}}, "checkpoint_every must be an int or None, got 4.0"),
    ({"model": {"kind": "scalar_logistic", "class_count": 3}}, "scalar_logistic has 2 classes, got class_count=3"),
    ({"model": {"kind": "linear"}}, "unknown model kind 'linear'"),
]


@pytest.mark.parametrize("raw, message", _BAD_VALUES)
def test_bad_value_is_rejected_before_any_output(tmp_path, capsys, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "out").exists()


def test_scalars_that_fit_their_defaults_load():
    cfg = config_from_dict({"train": {"eps": 1, "attack_lr": 2, "fast_step": 0.25, "trades_lambda": None}, "data": {"noise": 2}})
    assert (cfg.train.pset.radius, cfg.train.attack_lr, cfg.train.fast_step, cfg.data.noise) == (1, 2, 0.25, 2)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(readme.split("An example config:\n\n```json\n")[1].split("```")[0])
    cfg = config_from_dict(example)
    assert (cfg.train.algorithm, cfg.train.attack_lr, cfg.trials, cfg.eval_seed) == ("free", 0.5, 5, 4242)


def test_layers_are_checked_against_the_defaults(tmp_path, monkeypatch):
    # the file's ints sit under the second config's floats; both fit a float or null default
    from advstab import cli
    from advstab.experiments import TransferReport

    seen = []
    monkeypatch.setattr(cli, "run_transfer_experiment", lambda a, b: seen.extend([a, b]) or TransferReport({}, [], {}))
    cfg = _write_cfg(tmp_path, train={**_BASE["train"], "eps": 1, "attack_lr": 1})
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({"train": {"eps": 0.5, "attack_lr": 0.25}}))
    assert main(["transfer", "--config", str(cfg), "--config-b", str(cfg_b), "--out", str(tmp_path / "t")]) == 0
    assert [(c.train.pset.radius, c.train.attack_lr) for c in seen] == [(1, 1), (0.5, 0.25)]


def test_flags_apply_before_the_config_is_validated(tmp_path, monkeypatch):
    # 30 iterations are not a multiple of the 4 free steps; the flag's 8 are
    cfg = _write_cfg(tmp_path, train={**_BASE["train"], "algorithm": "free", "total_iterations": 30})
    out = tmp_path / "out"
    assert main(["gap", "--config", str(cfg), "--out", str(out), "--iterations", "8"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train"]["total_iterations"] == 8
    assert report["trials"][0]["checkpoints"][-1]["iteration"] == 8

    from advstab import cli
    from advstab.experiments import TransferReport

    seen = []

    def capture(cfg_a, cfg_b):
        seen.extend([cfg_a, cfg_b])
        return TransferReport(accuracy={}, per_trial=[], clean_accuracy={})

    monkeypatch.setattr(cli, "run_transfer_experiment", capture)
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps({"train": {"total_iterations": 30, "seed": 8}, "trials": 4}))
    flags = ["--iterations", "8", "--seed", "31", "--trials", "2"]
    assert main(["transfer", "--config", str(cfg), "--config-b", str(cfg_b), "--out", str(tmp_path / "t")] + flags) == 0
    for c in seen:
        assert (c.train.algorithm, c.train.total_iterations, c.train.seed, c.trials) == ("free", 8, 31, 2)


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from advstab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_vs_n_runs_without_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    args = ["vs-n", "--config", str(cfg), "--out", str(out), "--n-values", "20,30,40"]
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads((out / "vs_n_summary.json").read_text())
    assert -1.0 <= summary["spearman"] <= 1.0


def _strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "flags, train, message",
    [
        (["--pairs", "0"], {}, "stability needs --pairs >= 1, got 0"),
        (["--pairs", "-2"], {}, "stability needs --pairs >= 1, got -2"),
        ([], {"total_iterations": 0}, "stability needs at least one training iteration"),
    ],
)
def test_stability_command_rejects_no_pairs_and_no_iterations(tmp_path, capsys, monkeypatch, flags, train, message):
    from advstab import cli

    def no_training(*args, **kwargs):
        raise AssertionError("the command trained before rejecting its input")

    monkeypatch.setattr(cli, "coupled_run", no_training)
    cfg = _write_cfg(tmp_path, train={**_BASE["train"], **train})
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg), "--out", str(out), *flags]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": message}
    assert not out.exists()


def _no_training(*args, **kwargs):
    raise AssertionError("the command trained before rejecting its input")


@pytest.mark.parametrize("probes", [1, 0, -3])
def test_bounds_command_rejects_fewer_than_two_probes(tmp_path, capsys, monkeypatch, probes):
    from advstab import cli

    monkeypatch.setattr(cli, "train", _no_training)
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out), "--probes", str(probes)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": f"bounds needs --probes >= 2, got {probes}"}
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("train", "eps", float("nan"), "radius must be >= 0, got nan"),
        ("train", "eps", float("inf"), "radius must be >= 0, got inf"),
        ("train", "attack_lr", float("nan"), "attack_lr must be nonnegative, got nan"),
        ("data", "noise", float("nan"), "noise must be >= 0"),
    ],
)
def test_non_finite_config_numbers_are_rejected_before_training(tmp_path, capsys, monkeypatch, section, key, value, message):
    # Python's json reads NaN and Infinity, and both pass the JSON type check
    from advstab import cli

    monkeypatch.setattr(cli, "run_gap_experiment", _no_training)
    cfg = _write_cfg(tmp_path, **{section: {**_BASE[section], key: value}})
    out = tmp_path / "out"
    assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_separation_is_rejected_before_any_data_is_drawn(tmp_path, capsys, monkeypatch, value):
    from advstab import cli, experiments

    monkeypatch.setattr(experiments, "make_synthetic", _no_training)
    monkeypatch.setattr(cli, "make_synthetic", _no_training)
    cfg = _write_cfg(tmp_path, data={**_BASE["data"], "separation": value})
    out = tmp_path / "out"
    assert main(["gap", "--config", str(cfg), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": f"separation must be finite, got {value}"}
    assert not out.exists()


_U64 = 2**64 - 1


@pytest.mark.parametrize(
    "overrides, name, seed",
    [
        ({"eval": {**_BASE["eval"], "seed": -5}}, "eval.seed", -5),
        ({"eval": {**_BASE["eval"], "seed": 2**64}}, "eval.seed", 2**64),
        ({"data": {**_BASE["data"], "seed": -1}}, "data.seed", -1),
        ({"train": {**_BASE["train"], "seed": -1}}, "train.seed", -1),
        ({"train": {**_BASE["train"], "seed": _U64}, "trials": 2}, "train.seed + trials - 1", 2**64),
    ],
)
@pytest.mark.parametrize("command", ["gap", "stability"])
def test_out_of_range_seeds_are_rejected_before_any_data_is_drawn(tmp_path, capsys, monkeypatch, command, overrides, name, seed):
    from advstab import cli, experiments

    for module in (experiments, cli):
        monkeypatch.setattr(module, "make_synthetic", _no_training)
    cfg, out = _write_cfg(tmp_path, **overrides), tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": f"{name} must be a 64-bit unsigned integer, got {seed}"}
    assert not out.exists()


@pytest.mark.parametrize("pairs, accepted", [(1, True), (2, False)])
def test_stability_rejects_a_last_pair_seed_out_of_range(tmp_path, capsys, monkeypatch, pairs, accepted):
    from advstab import cli

    monkeypatch.setattr(cli, "coupled_run", _no_training)
    cfg, out = _write_cfg(tmp_path, train={**_BASE["train"], "seed": _U64}), tmp_path / "out"
    main(["stability", "--config", str(cfg), "--out", str(out), "--pairs", str(pairs)])
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    if accepted:  # the seed itself is in range, so the command went on to train
        assert payload["error"] == "AssertionError"
        return
    assert payload == {"error": "ConfigError", "message": f"train.seed + pairs - 1 must be a 64-bit unsigned integer, got {2**64}"}
    assert not out.exists()


@pytest.mark.parametrize("n_values", ["30", "30,30"])
def test_vs_n_reports_no_slope_below_two_distinct_sizes(tmp_path, capsys, n_values):
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    assert main(["vs-n", "--config", str(cfg), "--out", str(out), "--n-values", n_values]) == 0
    summary = _strict_json((out / "vs_n_summary.json").read_text())
    assert summary["loglog_slope"] is None and summary["loglog_slope_se"] is None
    assert summary["spearman"] is None
    shown = capsys.readouterr().out
    assert _strict_json(shown[shown.index("{") :]) == summary
    if n_values == "30,30":
        first, second = json.loads((out / "report.json").read_text())
        assert first == second  # equal sizes give equal reports


def test_vs_n_summary_is_strict_json_with_two_sizes(tmp_path, capsys):
    # two sizes pin the slope but leave no degree of freedom for its error
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    assert main(["vs-n", "--config", str(cfg), "--out", str(out), "--n-values", "20,30"]) == 0
    summary = _strict_json((out / "vs_n_summary.json").read_text())
    assert summary["loglog_slope_se"] is None
    assert -1.0 <= summary["spearman"] <= 1.0 and len(summary["mean_gaps"]) == 2
    shown = capsys.readouterr().out
    assert _strict_json(shown[shown.index("{") :]) == summary


@pytest.mark.parametrize("n_values", ["250,,500", "20,2.5", "", "20,x"])
def test_vs_n_rejects_a_size_that_is_not_an_integer_before_training(tmp_path, capsys, monkeypatch, n_values):
    from advstab import cli

    monkeypatch.setattr(cli, "run_vs_n_experiment", _no_training)
    cfg, out = _write_cfg(tmp_path), tmp_path / "out"
    assert main(["vs-n", "--config", str(cfg), "--out", str(out), "--n-values", n_values]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "ConfigError", "message": f"--n-values must be comma-separated integers, got {n_values!r}"}
    assert not out.exists()
