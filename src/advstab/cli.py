"""Command-line front end.

Subcommands: gap, vs-n, transfer, free-trades, stability, bounds, check.
A JSON config file (the layout of ``experiments.config_from_dict``), then
the --config-b overrides, then the common flags are laid over the defaults
and validated as a whole; an unknown key or a value whose type does not fit
its default is a ConfigError. Outputs land in --out as report.json /
trace.csv / plotdata_*.csv; the ``config`` that gap, vs-n and free-trades
reports echo is in that layout, so ``--config`` replays it. Exit code 0 on
success; failures print a machine-readable error object to stderr and exit
nonzero. ``advstab --debug <command>`` prints the full traceback of a
failure before that error object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .checks import run_all_checks
from .errors import ConfigError
from .experiments import (
    ExperimentConfig,
    bound_inputs,
    config_from_dict,
    run_free_trades_comparison,
    run_gap_experiment,
    run_transfer_experiment,
    run_vs_n_experiment,
)
from .reportio import emit_report
from .rng import _check_seed
from .stability import RULE_FACTS, coupled_run, make_neighbor
from .synth import draw_replacement, make_synthetic
from .trainers import FREE_TRADES, RULES, TRADES_SEQ, train


def _load_config(args, overrides: dict | None = None) -> ExperimentConfig:
    """The --config file, then ``overrides``, then the common flags, laid
    over the defaults and validated once as a whole."""
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    train = {"seed": args.seed, "algorithm": args.algorithm, "total_iterations": args.iterations}
    flags = {"train": {key: value for key, value in train.items() if value is not None}}
    if args.trials is not None:
        flags["trials"] = args.trials
    return config_from_dict(raw, overrides or {}, flags)


def _emit(reports, out: str):
    paths = emit_report(reports, "json", out)
    paths += emit_report(reports, "csv", out)
    for p in paths:
        print(p)


def _json_safe(obj):
    """``obj`` with every non-finite float as None, since JSON has no NaN."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(out: str, name: str, payload, shown) -> None:
    """Write ``payload`` to ``out/name``, print that path, then ``shown``;
    a non-finite float is written as null in both."""
    target = Path(out) / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(_json_safe(payload), indent=2, allow_nan=False))
    print(target)
    print(json.dumps(_json_safe(shown), indent=2, allow_nan=False))


def cmd_gap(args) -> int:
    cfg = _load_config(args)
    report = run_gap_experiment(cfg)
    _emit([report], args.out)
    print(f"mean final accuracy gap: {report.mean_final_acc_gap():.4f} +- {report.std_final_acc_gap():.4f}")
    return 0


def cmd_vs_n(args) -> int:
    try:
        n_values = [int(v) for v in args.n_values.split(",")]
    except ValueError:
        raise ConfigError(f"--n-values must be comma-separated integers, got {args.n_values!r}") from None
    cfg = _load_config(args)
    res = run_vs_n_experiment(cfg, n_values)
    _emit(res.reports, args.out)
    payload = {
        "algorithm": res.algorithm,
        "n_values": res.n_values,
        "mean_gaps": [float(g) for g in res.mean_gaps()],
        "loglog_slope": res.slope,
        "loglog_slope_se": res.slope_se,
        "spearman": res.spearman,
        "predicted_rate": res.predicted_rate,
    }
    _write_json(args.out, "vs_n_summary.json", payload, payload)
    return 0


def cmd_transfer(args) -> int:
    cfg_a = _load_config(args)
    cfg_b = _load_config(args, json.loads(Path(args.config_b).read_text()) if args.config_b else {})
    res = run_transfer_experiment(cfg_a, cfg_b)
    payload = {
        "accuracy": {f"{s}->{t}": v for (s, t), v in res.accuracy.items()},
        "clean_accuracy": res.clean_accuracy,
    }
    _write_json(args.out, "report.json", payload, payload)
    return 0


def cmd_free_trades(args) -> int:
    cfg = _load_config(args)
    lam = cfg.train.trades_lambda if cfg.train.trades_lambda is not None else 1.0 / 6.0
    seq = replace(cfg, train=replace(cfg.train, algorithm=TRADES_SEQ, trades_lambda=lam, free_steps=1))
    sim = replace(cfg, train=replace(cfg.train, algorithm=FREE_TRADES, trades_lambda=lam))
    res = run_free_trades_comparison(seq, sim)
    _emit([res.sequential, res.simultaneous], args.out)
    print(f"gap(sequential) - gap(simultaneous) = {res.gap_difference():.4f}")
    return 0


def cmd_stability(args) -> int:
    cfg = _load_config(args)
    tc = cfg.effective_train_config()
    if args.pairs < 1:
        raise ConfigError(f"stability needs --pairs >= 1, got {args.pairs}")
    _check_seed(tc.seed + args.pairs - 1, "train.seed + pairs - 1")  # the last pair's seed
    if tc.total_iterations < 1:
        raise ConfigError("stability needs at least one training iteration")
    train_ds, _ = make_synthetic(cfg.data)
    model = cfg.build_model()
    rows = []
    for k in range(args.pairs):
        replacement = draw_replacement(cfg.data, k)
        pair = make_neighbor(train_ds, k % train_ds.n, replacement)
        trace = coupled_run(model, pair, tc.with_seed(tc.seed + k))
        rows.append(
            {
                "pair": k,
                "final_d_w": float(trace.d_w[-1]),
                "first_divergence_step": trace.first_divergence_step(),
                "encounters": int((trace.s_count > 0).sum()),
                "min_grad_delta_norm": float(trace.min_grad_delta.min()),
            }
        )
    _write_json(args.out, "report.json", {"algorithm": tc.algorithm, "pairs": rows}, rows[:3])
    return 0


def _bound_entry(build, inputs, trained: bool) -> dict:
    """One rule's bound report, or the ``ConfigError`` its builder raised: a
    rule whose preconditions the trained config misses (free needs m | T)
    must not sink the other rules' reports. The trained rule's own bound and
    every other error still propagate."""
    try:
        return build(inputs).to_dict()
    except ConfigError as exc:
        if trained:
            raise
        return {"error": f"{type(exc).__name__}: {exc}"}


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    if args.probes < 2:
        raise ConfigError(f"bounds needs --probes >= 2, got {args.probes}")
    train_ds, _ = make_synthetic(cfg.data)
    model = cfg.build_model()
    tc = cfg.effective_train_config()
    _, trace = train(model, train_ds, tc)
    inputs, psi_est = bound_inputs(model, train_ds, tc, trace, cfg.eval_seed, args.probes)
    consts = inputs.constants
    payload = {
        "constants": {
            "lipschitz": consts.lipschitz,
            "lipschitz_w": consts.lipschitz_w,
            "beta": consts.beta,
            "psi": consts.psi,
            "psi_degenerate": psi_est.degenerate,
            "region": consts.region,
        },
        "bounds": {rule: _bound_entry(facts.bound, inputs, rule == tc.rule) for rule, facts in RULE_FACTS.items()},
        "schedule_vanishing": tc.schedule.vanishing,
    }
    _write_json(args.out, "report.json", payload, payload["bounds"])
    return 0


def cmd_check(args) -> int:
    results = run_all_checks()
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advstab", description=__doc__)
    parser.add_argument("--debug", action="store_true", help="print the full traceback of a failure")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--algorithm", choices=list(RULES), default=None)
        p.add_argument("--iterations", type=int, default=None)

    p = sub.add_parser("gap", help="generalization-gap curve for one algorithm")
    common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("vs-n", help="gap against training-set size at fixed iterations")
    common(p)
    p.add_argument("--n-values", default="250,500,1000,2000")
    p.set_defaults(func=cmd_vs_n)

    p = sub.add_parser("transfer", help="transferred attacks between two independently trained models")
    common(p)
    p.add_argument("--config-b", help="JSON overrides for the second model")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("free-trades", help="sequential vs simultaneous TRADES comparison")
    common(p)
    p.set_defaults(func=cmd_free_trades)

    p = sub.add_parser("stability", help="coupled runs on neighboring datasets")
    common(p)
    p.add_argument("--pairs", type=int, default=5)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("bounds", help="estimate constants and evaluate the closed-form bounds")
    common(p)
    p.add_argument("--probes", type=int, default=1500)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="run the verification suites")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # machine-readable failure
        if args.debug:
            traceback.print_exc()
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
