"""Experiment orchestration: generalization-gap curves, gap-vs-n sweeps,
transferred attacks, and the sequential-vs-simultaneous TRADES comparison.

Fairness rules. Every algorithm inside one experiment is evaluated by the
identical attack (same steps, step size, restarts, and evaluation seed),
and trial k of every algorithm shares training seed ``train.seed + k``, so
comparisons are paired. ``config_to_dict`` writes a config in the one
layout ``config_from_dict`` reads (``model``, ``data``, ``train``, ``eval``,
``trials``, ``budget_axis``); reports echo it, so feeding a report's
``config`` back in reproduces every number bit-exactly.

Compute accounting. A vanilla step whose inner attack runs K iterations
from each of r restarts costs K*r + 1 gradient evaluations, plus r
restart-scoring evaluations when r > 1, while a free update costs one
(``TrainConfig.oracle_per_update`` and ``forward_per_update``); reports
carry the oracle-call counts, and ``budget_axis="oracle_calls"`` rescales
the iteration budget so algorithms match on evaluations instead of updates.

Checkpoint evaluation. Each checkpoint re-points an ``AttackOracle``
bound to the train and test rows together, attacks through it (each set
drawing its starts from its own stream) and scores by its forward pass and
loss head. On more than one CPU ``run_gap_experiment`` forks one process
pool (``concurrent.futures``) at the first snapshot; each worker binds on
its first mark, keeps the binding for every trial and evaluates while
training goes on, and the caller binds none but estimates the bound
constants, on a stream of their own. On one CPU, or where ``fork`` does not
exist, the caller binds once and evaluates each trial's checkpoints after
training it. The reports are the same either way, byte for byte.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial

import numpy as np

from .bounds import BoundInputs, RegionSampler, estimate_constants, estimate_psi
from .errors import ConfigError, DimensionError, _check_seed, _count, _int_field
from .models import SmoothModel, make_model
from .rng import stream
from .stability import RULE_FACTS
from .synth import SyntheticSpec, make_synthetic
from .threat import AttackConfig, PerturbationSet, _attacked_risk, pgd_attack_batch
from .trainers import FREE_TRADES, TRADES_SEQ, StepSchedule, TrainConfig, TrainTrace, train

__all__ = [
    "ExperimentConfig",
    "config_to_dict",
    "config_from_dict",
    "CheckpointStat",
    "TrialResult",
    "GapReport",
    "VsNReport",
    "TransferReport",
    "PairedGapReport",
    "run_gap_experiment",
    "bound_inputs",
    "run_vs_n_experiment",
    "run_transfer_experiment",
    "run_free_trades_comparison",
]

_EVAL_STREAM = 7


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    data: SyntheticSpec
    train: TrainConfig
    eval_attack: AttackConfig = field(default_factory=AttackConfig)
    eval_seed: int = 9999
    checkpoint_every: int | None = None  # None: one epoch analog, n_train // batch_size
    trials: int = 1
    hidden_dim: int = 16
    class_count: int = 2
    bounded_loss: bool = False
    budget_axis: str = "updates"  # or "oracle_calls"
    attach_bounds: bool = True

    def __post_init__(self):
        for name, least in (("trials", 1), ("hidden_dim", 1), ("class_count", 2)):
            _int_field(getattr(self, name), name, least)
        if not isinstance(self.bounded_loss, bool):
            t = type(self.bounded_loss)  # an np.bool_ is named "bool": name its module too
            name = t.__qualname__ if t.__module__ == "builtins" else f"{t.__module__}.{t.__qualname__}"
            raise ConfigError(f"bounded_loss must be a bool, got {name}")
        every = self.checkpoint_every
        if every is not None and (isinstance(every, bool) or not isinstance(every, int)):
            raise ConfigError(f"checkpoint_every must be an int or None, got {every!r}")
        if every is not None and every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if self.budget_axis not in ("updates", "oracle_calls"):
            raise ConfigError("budget_axis must be 'updates' or 'oracle_calls'")
        if self.data.dim != self.train.pset.dim:
            raise DimensionError("data dim and perturbation set dim disagree")
        _int_field(self.eval_seed, "eval.seed")
        _check_seed(self.train.seed + self.trials - 1, "train.seed + trials - 1")  # the last trial's seed
        self.build_model()  # an unknown or self-contradicting model section fails here

    def build_model(self) -> SmoothModel:
        return make_model(
            self.model_kind,
            input_dim=self.data.dim,
            class_count=self.class_count,
            hidden_dim=self.hidden_dim,
            bounded=self.bounded_loss,
        )

    def resolved_checkpoint(self) -> int:
        if self.checkpoint_every is not None:
            return self.checkpoint_every
        return max(1, self.data.n_train // self.train.batch_size)

    def effective_train_config(self) -> TrainConfig:
        """Apply the budget axis: on the oracle-call axis, iteration budgets
        shrink by each algorithm's per-update gradient cost."""
        cfg = self.train
        if self.budget_axis == "updates":
            return cfg
        T, m = cfg.total_iterations // cfg.oracle_per_update, cfg.inner_steps
        return replace(cfg, total_iterations=max(m, T - T % m))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """``cfg`` in the layout ``config_from_dict`` reads, each field as set,
    so ``config_from_dict(config_to_dict(cfg)) == cfg`` up to
    ``attach_bounds``, which the layout leaves out (it reads back True)."""
    train = asdict(cfg.train)
    pset = train.pop("pset")
    return {
        "model": {"kind": cfg.model_kind, "hidden_dim": cfg.hidden_dim, "class_count": cfg.class_count, "bounded_loss": cfg.bounded_loss},
        "data": asdict(cfg.data),
        "train": {"algorithm": train.pop("algorithm"), "norm": pset["norm"], "eps": pset["radius"], **train},
        "eval": {"attack": asdict(cfg.eval_attack), "seed": cfg.eval_seed, "checkpoint_every": cfg.checkpoint_every},
        "trials": cfg.trials,
        "budget_axis": cfg.budget_axis,
    }


# what config_from_dict fills in: the command line's choices, every other
# field at its dataclass default
_DEFAULTS = ExperimentConfig(
    model_kind="mlp",
    data=SyntheticSpec("two_gaussians", n_train=500, n_test=1000, dim=20, noise=1.0, seed=1),
    train=TrainConfig(
        "free", PerturbationSet("l2", 0.5, 20), StepSchedule("constant", c=0.2, m=4), batch_size=25, total_iterations=400, seed=11
    ),
    trials=2,
)

# the JSON types a scalar may take, by the type of its default: ints pass
# where floats are expected, and a null default stands for an optional number
_SCALAR_TYPES = {
    bool: ("a bool", (bool,)),
    int: ("an int", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    type(None): ("a number or null", (int, float, type(None))),
}


def _merge(base: dict, extra: dict, defaults: dict, path: str = "") -> dict:
    """``base`` overlaid with ``extra``, section by section. A key that
    ``defaults`` lacks, a section that is not an object, or a scalar whose
    type does not fit its default is rejected with its dotted path."""
    if not isinstance(extra, dict):
        raise ConfigError(f"config {path[:-1] or 'file'} must be an object, got {type(extra).__name__}")
    out = dict(base)
    for key, value in extra.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(base[key], value, defaults[key], f"{path}{key}.")
            continue
        expected, types = _SCALAR_TYPES[type(defaults[key])]
        if type(value) not in types:
            raise ConfigError(f"config {path}{key} must be {expected}, got {type(value).__name__}")
        out[key] = value
    return out


def config_from_dict(*layers: dict) -> ExperimentConfig:
    """The experiment config of ``layers`` laid over the defaults in turn,
    each checked against the defaults' keys and types, then validated once
    as a whole."""
    defaults = cfg = config_to_dict(_DEFAULTS)
    for layer in layers:
        cfg = _merge(cfg, layer, defaults)
    data = SyntheticSpec(**cfg["data"])
    t = dict(cfg["train"])
    train_cfg = TrainConfig(
        pset=PerturbationSet(t.pop("norm"), t.pop("eps"), data.dim),
        schedule=StepSchedule(**t.pop("schedule")),
        inner_attack=AttackConfig(**t.pop("inner_attack")),
        **t,
    )
    model, ev = dict(cfg["model"]), cfg["eval"]
    return ExperimentConfig(
        model_kind=model.pop("kind"),
        data=data,
        train=train_cfg,
        eval_attack=AttackConfig(**ev["attack"]),
        eval_seed=ev["seed"],
        checkpoint_every=ev["checkpoint_every"],
        trials=cfg["trials"],
        budget_axis=cfg["budget_axis"],
        **model,
    )


@dataclass
class CheckpointStat:
    iteration: int
    train_risk: float
    train_acc: float
    test_risk: float
    test_acc: float

    @property
    def acc_gap(self) -> float:
        return self.train_acc - self.test_acc

    @property
    def risk_gap(self) -> float:
        return self.test_risk - self.train_risk

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "train_risk": self.train_risk,
            "train_acc": self.train_acc,
            "test_risk": self.test_risk,
            "test_acc": self.test_acc,
            "acc_gap": self.acc_gap,
            "risk_gap": self.risk_gap,
        }


@dataclass
class TrialResult:
    seed: int
    checkpoints: list
    oracle_calls: int
    forward_calls: int
    min_grad_delta_norm: float
    grad_degenerate: bool

    @property
    def final(self) -> CheckpointStat:
        return self.checkpoints[-1]


@dataclass
class GapReport:
    algorithm: str
    config: dict
    trials: list
    bounds: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def final_acc_gaps(self) -> np.ndarray:
        return np.array([t.final.acc_gap for t in self.trials])

    def final_risk_gaps(self) -> np.ndarray:
        return np.array([t.final.risk_gap for t in self.trials])

    def mean_final_acc_gap(self) -> float:
        return float(self.final_acc_gaps().mean())

    def std_final_acc_gap(self) -> float:
        gaps = self.final_acc_gaps()
        return float(gaps.std(ddof=1)) if gaps.size > 1 else 0.0

    def checkpoint_table(self):
        """(iteration, mean, stderr) rows per metric across trials."""
        iters = [c.iteration for c in self.trials[0].checkpoints]
        out = []
        for j, it in enumerate(iters):
            row = {"iteration": it}
            for name in ("train_risk", "train_acc", "test_risk", "test_acc", "acc_gap", "risk_gap"):
                vals = np.array([getattr(t.checkpoints[j], name) for t in self.trials])
                row[f"{name}_mean"] = float(vals.mean())
                row[f"{name}_stderr"] = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            out.append(row)
        return out


def _checkpoint(model, oracle, parts, pset, attack, eval_seed, w, mark: int) -> CheckpointStat:
    """The checkpoint at ``mark`` through ``oracle``, bound to the train
    rows followed by the test rows and re-pointed at ``w``; each set draws
    its starts from its own stream, so its numbers are those of it alone."""
    rngs = [stream(eval_seed, _EVAL_STREAM, mark, s) for s in range(len(parts))]
    (train_risk, train_acc), (test_risk, test_acc) = _attacked_risk(model, oracle.point(w), pset, attack, rngs, parts)
    return CheckpointStat(iteration=mark, train_risk=train_risk, train_acc=train_acc, test_risk=test_risk, test_acc=test_acc)


def _cores() -> int:
    """CPUs this process may run on; ``taskset`` narrows them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# a pool worker's ``bind``, installed by ``_install_bind`` when it forks
_worker_bind = None


def _install_bind(bind) -> None:
    global _worker_bind
    _worker_bind = bind
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's, which shuts the pool down


def _evaluate_in_worker(w: np.ndarray, mark: int):
    return _worker_bind()(w, mark)  # a failure to bind is this mark's


class _Checkpoints:
    """The evaluation of an experiment's checkpoint marks, ``bind()(w,
    mark)`` each, trial after trial, in mark order, where ``bind`` builds
    the evaluation and its binding once in each process that evaluates.

    On more than one CPU, a ``ProcessPoolExecutor`` of ``min(_cores(),
    len(marks))`` workers starts by ``fork`` at the first snapshot and
    evaluates every trial while training goes on. The workers inherit
    ``bind`` (the model, the data and the attack, never pickled) and the
    caller's ``np.errstate``, and each binds on its first mark, so the
    caller binds none. ``put``, given to ``train`` as its ``on_snapshot``
    hook, submits each snapshot with its mark. On one CPU, or where ``fork``
    does not exist, ``results`` binds on the calling process, once, and
    evaluates a trial's marks there in order.

    Either way ``results`` raises the failure of the trial's lowest failing
    mark (a failure to bind included), as the plain loop would, with a
    worker's traceback as its cause; a worker that dies raises
    ``BrokenProcessPool``, a ``RuntimeError``. Used as a context manager: the pool is shut down, its workers joined
    and its marks not yet handed out cancelled, before the block is left.
    """

    def __init__(self, bind, marks: list):
        import multiprocessing

        self.bind, self.marks = cache(bind), marks
        self.forks = _cores() > 1 and "fork" in multiprocessing.get_all_start_methods()
        self.pool, self.futures = None, []

    def __enter__(self):
        return self

    def __exit__(self, *_):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def put(self, update: int, w: np.ndarray) -> None:
        """``train``'s ``on_snapshot`` hook. ``w`` must not change after
        the call: the pool pickles it only when it hands the mark out."""
        if not self.forks:
            return
        if self.pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # With the fork context the pool forks all its workers before it
            # starts its manager thread, so no fork copies a running thread.
            ctx = multiprocessing.get_context("fork")
            workers = min(_cores(), len(self.marks))
            self.pool = ProcessPoolExecutor(workers, ctx, initializer=_install_bind, initargs=(self.bind,))
        self.futures.append(self.pool.submit(_evaluate_in_worker, w, update))

    def results(self, snapshots: dict) -> list:
        """Every mark's result for the trial that stored ``snapshots``, in
        mark order, once its training is done."""
        if not self.forks:
            evaluate = self.bind()
            return [evaluate(snapshots[mk], mk) for mk in self.marks]
        from concurrent.futures import FIRST_EXCEPTION, wait

        futures, self.futures = self.futures, []
        wait(futures, return_when=FIRST_EXCEPTION)
        # Only marks not yet handed out can be cancelled, and the pool hands
        # marks out in order, so every mark below a failure still runs.
        for future in futures:
            future.cancel()
        return [future.result() for future in futures]


def _checkpoint_marks(tc: TrainConfig, cadence: int) -> list:
    T = tc.total_iterations
    marks = list(range(cadence, T + 1, cadence))
    if not marks or marks[-1] != T:
        marks.append(T)
    m = tc.inner_steps
    return sorted({max(m, mk - mk % m) for mk in marks})


def run_gap_experiment(cfg: ExperimentConfig) -> GapReport:
    """Train with the configured algorithm over the trial seeds, evaluating
    train/test attacked risk and accuracy at every checkpoint with the fixed
    evaluation adversary; attach bound evaluations when the schedule is a
    vanishing one."""
    train_ds, test_ds = make_synthetic(cfg.data)
    model = cfg.build_model()
    tc = cfg.effective_train_config()
    if tc.total_iterations < 1:
        raise ConfigError("gap experiments need at least one training iteration")
    cadence = cfg.resolved_checkpoint()
    report = GapReport(algorithm=tc.algorithm, config=config_to_dict(cfg), trials=[])
    marks = _checkpoint_marks(tc, cadence)

    def bind():
        # both sets in one batch, re-pointed at every mark of every trial
        oracle = model.attack_oracle(np.concatenate([train_ds.X, test_ds.X]), np.concatenate([train_ds.y, test_ds.y]))
        return partial(_checkpoint, model, oracle, (train_ds.n, test_ds.n), tc.pset, cfg.eval_attack, cfg.eval_seed)

    with _Checkpoints(bind, marks) as checkpoints:
        for k in range(cfg.trials):
            trial_cfg = tc.with_seed(tc.seed + k)
            _, trace = train(model, train_ds, trial_cfg, snapshot_at=marks, on_snapshot=checkpoints.put)
            if k == 0 and cfg.attach_bounds:
                # over the envelope of the first trial's run, while its checkpoints are evaluated
                bounds = _estimate_bounds(model, train_ds, trace, cfg.eval_seed)
            min_gd = trace.min_grad_delta_norm()
            report.trials.append(
                TrialResult(
                    seed=trial_cfg.seed,
                    checkpoints=checkpoints.results(trace.snapshots),
                    oracle_calls=trace.oracle_calls,
                    forward_calls=trace.forward_calls,
                    min_grad_delta_norm=min_gd,
                    grad_degenerate=not (min_gd > 0.0),
                )
            )

    if cfg.attach_bounds:
        _attach_bounds(report, tc.rule, bounds)
    return report


def bound_inputs(model: SmoothModel, train_ds, trace: TrainTrace, eval_seed: int, probes: int):
    """Estimate the constants over the weight envelope of ``trace``, with psi
    from its perturbation-gradient norms, and pack them with the schedule of
    its run into the bound formulas' inputs. Returns (BoundInputs, PsiEstimate)."""
    tc = trace.cfg
    sampler = RegionSampler.from_envelope(trace.w_low, trace.w_high, tc.pset, train_ds)
    psi = estimate_psi(trace)
    consts = estimate_constants(model, sampler, stream(eval_seed, 31), probes=probes, psi=psi.psi)
    inputs = BoundInputs(
        n=train_ds.n,
        b=tc.batch_size,
        T=tc.total_iterations,
        m=tc.free_steps,
        c=tc.schedule.c,
        eps=tc.pset.radius,
        constants=consts,
        alpha_delta=tc.resolved_attack_lr,
        fast_step=tc.resolved_fast_step,
    )
    return inputs, psi


def _estimate_bounds(model, train_ds, trace: TrainTrace, eval_seed: int):
    """The bound inputs over the envelope of ``trace``, or the note that
    says why there are none."""
    if not trace.cfg.schedule.vanishing:
        return "bounds_not_applicable: constant step schedule"
    if trace.cfg.pset.norm != "l2":
        return "bounds_not_applicable: bounds are stated for L2 balls"
    try:
        return bound_inputs(model, train_ds, trace, eval_seed, probes=800)[0]
    except (ValueError, OverflowError) as exc:  # a failed estimate must not sink the experiment
        return f"bounds_attachment_failed: {type(exc).__name__}: {exc}"


def _attach_bounds(report: GapReport, rule: str, inputs):
    """Set ``_estimate_bounds``'s result against the measured gap."""
    if isinstance(inputs, str):
        report.notes.append(inputs)
        return
    try:
        rep = RULE_FACTS[rule].bound(inputs).with_measured_gap(float(np.mean(report.final_risk_gaps())))
    except (ValueError, OverflowError) as exc:
        report.notes.append(f"bounds_attachment_failed: {type(exc).__name__}: {exc}")
        return
    report.bounds.append(rep)
    consts = inputs.constants
    report.notes.append(
        "constants: L={:.6g} L_w={:.6g} beta={:.6g} psi={:.6g}".format(
            consts.lipschitz, consts.lipschitz_w, consts.beta, consts.psi
        )
    )


@dataclass
class VsNReport:
    algorithm: str
    n_values: list
    reports: list
    slope: float
    slope_se: float
    spearman: float
    predicted_rate: str = ""

    def mean_gaps(self) -> np.ndarray:
        return np.array([r.mean_final_acc_gap() for r in self.reports])


def run_vs_n_experiment(cfg: ExperimentConfig, n_values) -> VsNReport:
    """One gap experiment per training-set size at fixed T, plus the fitted
    log-log slope of the mean gap against n and its Spearman correlation."""
    n_values = [_count(n, f"n_values[{i}]", 1) for i, n in enumerate(n_values)]
    if any(n < cfg.train.batch_size for n in n_values):
        raise ConfigError("every n must be at least the batch size")
    reports = []
    for n in n_values:
        sub = replace(cfg, data=replace(cfg.data, n_train=n))
        reports.append(run_gap_experiment(sub))
    gaps = np.array([r.mean_final_acc_gap() for r in reports])
    slope, slope_se = _loglog_slope(np.array(n_values, dtype=float), gaps)
    spearman = _spearman(np.array(n_values, dtype=float), gaps)
    return VsNReport(
        algorithm=cfg.train.algorithm,
        n_values=n_values,
        reports=reports,
        slope=slope,
        slope_se=slope_se,
        spearman=spearman,
        predicted_rate=RULE_FACTS[cfg.train.rule].predicted_rate,
    )


def _loglog_slope(n_values: np.ndarray, gaps: np.ndarray):
    """Least-squares slope of log gap against log n and its standard error;
    NaN when a gap is not positive or fewer than two distinct n pin a line."""
    if np.any(gaps <= 0) or np.unique(n_values).size < 2:
        return float("nan"), float("nan")
    x = np.log(n_values)
    y = np.log(gaps)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(x) - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        cov = s2 * np.linalg.inv(A.T @ A)
        return float(coef[0]), float(np.sqrt(cov[0, 0]))
    return float(coef[0]), float("nan")


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``v``; tied values share the mean of their ranks."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[starts, s.size])
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of the average ranks, the arithmetic of
    ``scipy.stats.spearmanr``."""
    if np.unique(x).size < 2 or np.unique(y).size < 2:
        return float("nan")  # rank correlation undefined for constant input
    ranked = np.stack([_average_ranks(x), _average_ranks(y)], axis=1)
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


@dataclass
class TransferReport:
    accuracy: dict  # (source, target) -> robust accuracy, averaged over trials
    per_trial: list
    clean_accuracy: dict


def _require_fair_evaluation(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig):
    if cfg_a.eval_attack != cfg_b.eval_attack or cfg_a.eval_seed != cfg_b.eval_seed:
        raise ConfigError("compared configs must share the evaluation adversary and its seed")


def run_transfer_experiment(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> TransferReport:
    """Train two models independently and evaluate each against attacks
    crafted on itself (white-box) and on the other (transfer), on the shared
    test set. Keys of the 2x2 table are ('a'|'b', 'a'|'b')."""
    if cfg_a.data != cfg_b.data:
        raise ConfigError("transfer experiments must share the data spec")
    _require_fair_evaluation(cfg_a, cfg_b)
    train_ds, test_ds = make_synthetic(cfg_a.data)
    model_a, model_b = cfg_a.build_model(), cfg_b.build_model()
    pset = cfg_a.train.pset
    attack = cfg_a.eval_attack
    trials = min(cfg_a.trials, cfg_b.trials)
    per_trial = []
    for k in range(trials):
        wa, _ = train(model_a, train_ds, cfg_a.effective_train_config().with_seed(cfg_a.train.seed + k))
        wb, _ = train(model_b, train_ds, cfg_b.effective_train_config().with_seed(cfg_b.train.seed + k))
        X, y = test_ds.X, test_ds.y
        entry = {}
        deltas = {}
        for tag, model, w in (("a", model_a, wa), ("b", model_b, wb)):
            deltas[tag] = pgd_attack_batch(model, w, X, y, pset, attack, stream(cfg_a.eval_seed, _EVAL_STREAM, k, 2))
        for src in ("a", "b"):
            for dst, model, w in (("a", model_a, wa), ("b", model_b, wb)):
                preds = model.predict_batch(w, X, deltas[src])
                entry[(src, dst)] = float((preds == y).mean())
        entry[("clean", "a")] = float((model_a.predict_batch(wa, X) == y).mean())
        entry[("clean", "b")] = float((model_b.predict_batch(wb, X) == y).mean())
        per_trial.append(entry)
    accuracy = {
        key: float(np.mean([e[key] for e in per_trial]))
        for key in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    }
    clean = {tag: float(np.mean([e[("clean", tag)] for e in per_trial])) for tag in ("a", "b")}
    return TransferReport(accuracy=accuracy, per_trial=per_trial, clean_accuracy=clean)


@dataclass
class PairedGapReport:
    sequential: GapReport
    simultaneous: GapReport

    def gap_difference(self) -> float:
        """Mean final accuracy gap, sequential minus simultaneous."""
        return self.sequential.mean_final_acc_gap() - self.simultaneous.mean_final_acc_gap()


def run_free_trades_comparison(cfg_sequential: ExperimentConfig, cfg_simultaneous: ExperimentConfig) -> PairedGapReport:
    """Sequential TRADES (full inner attack per step) against the
    simultaneous free variant, paired trial for trial."""
    if cfg_sequential.train.algorithm != TRADES_SEQ:
        raise ConfigError("first config must use the sequential TRADES algorithm")
    if cfg_simultaneous.train.algorithm != FREE_TRADES:
        raise ConfigError("second config must use the free TRADES algorithm")
    _require_fair_evaluation(cfg_sequential, cfg_simultaneous)
    return PairedGapReport(
        sequential=run_gap_experiment(cfg_sequential),
        simultaneous=run_gap_experiment(cfg_simultaneous),
    )
