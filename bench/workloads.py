"""The benchmark's three workloads.

Each workload builds its inputs from a workload seed at construction (the
set-up the benchmark times as ``setup_s``) and then runs identical passes.
A pass calls the library in a closed loop, one call after the previous one
returns, and checks every output it gets back. Library calls go through
module attributes (``experiments.run_gap_experiment``) so the tracer's
wrappers see them.

Seed ``s`` shifts every data, trial, pair and probe seed by ``s``; ``s = 0``
reproduces the seeds of the acceptance suite (c09, c11, c13).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from advstab import bounds, experiments, reportio, rng, stability, trainers
from advstab.models import LabeledSample, make_model
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet
from advstab.trainers import StepSchedule, TrainConfig

clock = time.perf_counter

# Sizes of each workload. "full" is what the benchmark measures; "tiny" keeps
# every code path and check but runs in a second, for the smoke test.
SIZES = {
    "full": {
        "gap": dict(n_train=500, n_test=2000, T=2000),
        "coupled": dict(n=40, b=8, T=60, probes=1500, pairs=20),
    },
    "tiny": {
        "gap": dict(n_train=100, n_test=60, T=40),
        "coupled": dict(n=16, b=4, T=8, probes=20, pairs=3),
    },
}

DIM = 20
HIDDEN = 16
EPS = 0.5
INNER_K = 10  # inner PGD steps of the gap workloads
COUPLED_K = 5  # inner PGD steps of the vanilla coupled family


@dataclass
class PassResult:
    """What one pass did and what its checks found."""

    op_times: list = field(default_factory=list)  # seconds per trial or pair
    failures: dict = field(default_factory=dict)  # op label -> list of reasons ([] = passed)
    updates: int = 0  # weight updates described by the outputs
    probes: int = 0  # constant-estimation probes timed by the benchmark
    probe_s: float = 0.0
    digest: str = ""
    summary: dict = field(default_factory=dict)  # values checked against the recorded reference

    def op(self, label: str, reasons=()):
        self.failures.setdefault(label, []).extend(reasons)

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for reasons in self.failures.values() if reasons)


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _digest_json(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True).encode())


def _gap_config(algorithm, seed, data_seed, n_train, n_test, T, schedule, trades_lambda=None, bounds_on=False):
    """The acceptance suite's ``_gap_config``: 20-16-2 tanh MLP, L2 ball of
    radius 0.5, b = 25, inner PGD K = 10 of step 0.125 from a uniform start."""
    data = SyntheticSpec("two_gaussians", n_train=n_train, n_test=n_test, dim=DIM, noise=1.0, seed=data_seed)
    attack = AttackConfig(steps=INNER_K, step_size=0.125, init="uniform")
    tc = TrainConfig(
        algorithm,
        PerturbationSet("l2", EPS, DIM),
        schedule,
        25,
        T,
        seed,
        attack_lr=0.5,
        free_steps=4,
        trades_lambda=trades_lambda,
        inner_attack=attack,
    )
    return experiments.ExperimentConfig(
        model_kind="mlp",
        hidden_dim=HIDDEN,
        data=data,
        train=tc,
        eval_attack=attack,
        eval_seed=4242,
        checkpoint_every=None if bounds_on else T,
        trials=1,
        attach_bounds=bounds_on,
    )


def _oracle_per_update(tc: TrainConfig) -> int:
    """Gradient-oracle calls per weight update, as each algorithm states it."""
    if tc.algorithm in ("vanilla", "trades_seq"):
        return tc.inner_attack.steps + 1
    return 2 if tc.algorithm == "fast" else 1


class _GapWorkload:
    """Shared pass of the two gap workloads: one ``run_gap_experiment`` call
    (a single trial) per config, each output checked."""

    configs: list

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.sizes = SIZES[size]["gap"]
        self.out_dir = out_dir
        self.configs = self._configs(seed)
        # set-up ends with the data and model built, as for the coupled
        # workload; run_gap_experiment still rebuilds both from the config
        make_synthetic(self.configs[0].data)
        self.configs[0].build_model()

    def _run_trial(self, res: PassResult, cfg, h, expect_checkpoints: int):
        label = f"trial:{cfg.train.algorithm}"
        t0 = clock()
        try:
            report = experiments.run_gap_experiment(cfg)
        except Exception as exc:  # a failed trial is counted, not fatal
            res.op(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        res.op_times.append(clock() - t0)
        tc = cfg.train
        reasons = []
        (trial,) = report.trials
        expected = tc.total_iterations * _oracle_per_update(tc)
        if trial.oracle_calls != expected:
            reasons.append(f"oracle_calls {trial.oracle_calls} != {expected}")
        if trial.forward_calls != 0:
            reasons.append(f"forward_calls {trial.forward_calls} != 0")
        if len(trial.checkpoints) != expect_checkpoints:
            reasons.append(f"{len(trial.checkpoints)} checkpoints, expected {expect_checkpoints}")
        # weights are checked finite by the library, which raises otherwise;
        # every reported number must be finite as well
        for c in trial.checkpoints:
            if not _finite(c.train_risk, c.test_risk, c.train_acc, c.test_acc):
                reasons.append(f"non-finite checkpoint at {c.iteration}")
                break
        for note in report.notes:
            if note.startswith("bounds_attachment_failed"):
                reasons.append(note)
        res.op(label, reasons)
        res.updates += tc.total_iterations
        _digest_json(h, reportio.report_to_dict(report))
        final = trial.final
        alg = tc.algorithm
        res.summary.update(
            {
                f"{alg}.train_risk": final.train_risk,
                f"{alg}.test_risk": final.test_risk,
                f"{alg}.train_acc": final.train_acc,
                f"{alg}.test_acc": final.test_acc,
                f"{alg}.min_grad_delta_norm": trial.min_grad_delta_norm,
            }
        )
        return report


class SeqTrain(_GapWorkload):
    name = "seq-train"

    def _configs(self, seed):
        s = self.sizes
        const = StepSchedule("constant", c=0.3)
        return [
            _gap_config("vanilla", 100 + seed, 1 + seed, s["n_train"], s["n_test"], s["T"], const),
            _gap_config("trades_seq", 100 + seed, 1 + seed, s["n_train"], s["n_test"], s["T"], const, trades_lambda=1.0),
        ]

    def run_pass(self) -> PassResult:
        res = PassResult()
        h = hashlib.sha256()
        for cfg in self.configs:
            self._run_trial(res, cfg, h, expect_checkpoints=1)
        res.digest = h.hexdigest()
        return res


class BoundCurve(_GapWorkload):
    name = "bound-curve"

    def _configs(self, seed):
        s = self.sizes
        args = (100 + seed, 1 + seed, s["n_train"], s["n_test"], s["T"])
        return [
            _gap_config("free", *args, StepSchedule("vanishing_c_over_mt", c=2.0, m=4), bounds_on=True),
            _gap_config("fast", *args, StepSchedule("vanishing_c_over_t", c=0.5), bounds_on=True),
            _gap_config(
                "free_trades", *args, StepSchedule("vanishing_c_over_mt", c=2.0, m=4), trades_lambda=1.0, bounds_on=True
            ),
        ]

    def run_pass(self) -> PassResult:
        res = PassResult()
        h = hashlib.sha256()
        reports = []
        # one-epoch cadence n_train // b; both sizes make it a multiple of m = 4
        # that divides T, so every algorithm gets T // cadence checkpoints
        checkpoints = self.sizes["T"] // (self.sizes["n_train"] // 25)
        for cfg in self.configs:
            report = self._run_trial(res, cfg, h, expect_checkpoints=checkpoints)
            if report is None:
                continue
            reports.append(report)
            alg = cfg.train.algorithm
            label = f"trial:{alg}"
            if len(report.bounds) != 1:
                res.op(label, [f"{len(report.bounds)} bounds attached, expected 1"])
                continue
            b = report.bounds[0]
            if not _finite(b.bound_value, b.lam, b.measured_gap):
                res.op(label, ["non-finite bound"])
            res.summary.update(
                {
                    f"{alg}.bound_value": b.bound_value,
                    f"{alg}.lambda": b.lam,
                    f"{alg}.curve_risk_gap_sum": float(sum(c.risk_gap for c in report.trials[0].checkpoints)),
                }
            )
        if reports:
            self._emit_round_trip(res, reports)
        res.digest = h.hexdigest()
        return res

    def _emit_round_trip(self, res: PassResult, reports):
        """Write the reports in both formats and read them back bit-exactly;
        a mismatch fails every trial written."""
        out = self.out_dir / "bound-curve-report"
        shutil.rmtree(out, ignore_errors=True)
        reasons = []
        try:
            reportio.emit_report(reports, "json", out)
            csv_paths = reportio.emit_report(reports, "csv", out)
            loaded = reportio.load_report(out / "report.json")
            expected = [reportio.report_to_dict(r) for r in reports]
            if len(reports) == 1:
                expected = expected[0]
            if not _same(loaded, expected):
                reasons.append("report.json round trip is not bit-exact")
            if not _csv_round_trip(csv_paths[0], reports):
                reasons.append("trace.csv round trip is not bit-exact")
        except Exception as exc:
            reasons.append(f"emit_report raised {type(exc).__name__}: {exc}")
        for r in reports:
            res.op(f"trial:{r.algorithm}", reasons)


def _same(a, b) -> bool:
    """Deep equality with floats compared bit for bit (NaN equals NaN)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _csv_round_trip(path: Path, reports) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(r.algorithm, t.seed, c) for r in reports for t in r.trials for c in t.checkpoints]
    if len(rows) != len(expected):
        return False
    for row, (alg, seed, c) in zip(rows, expected):
        if row["algorithm"] != alg or int(row["trial_seed"]) != seed or int(row["iteration"]) != c.iteration:
            return False
        for key in ("train_risk", "train_acc", "test_risk", "test_acc", "acc_gap", "risk_gap"):
            if not _same(float(row[key]), float(getattr(c, key))):
                return False
    return True


class CoupledGrowth:
    """The c09 family: for each of vanilla (K=5), free (m=4) and fast, two
    pilot runs with snapshots, a trajectory sampler, Lipschitz and smoothness
    estimates (``power_iters=0``), then per neighbor pair one coupled run and
    the inflated (x1.1) and deflated (x0.1) growth verifiers."""

    name = "coupled-growth"

    def __init__(self, seed: int, size: str, out_dir: Path):
        s = SIZES[size]["coupled"]
        self.sizes = s
        self.seed = seed
        n, b, T = s["n"], s["b"], s["T"]
        spec = SyntheticSpec("two_gaussians", n_train=n, n_test=10, dim=DIM, noise=1.0, seed=3 + seed)
        self.data, _ = make_synthetic(spec)
        self.model = make_model("mlp", input_dim=DIM, hidden_dim=HIDDEN)
        self.pset = PerturbationSet("l2", EPS, DIM)
        sched = StepSchedule("constant", c=0.25)
        self.configs = {
            "vanilla": TrainConfig(
                "vanilla", self.pset, sched, b, T, 5, inner_attack=AttackConfig(steps=COUPLED_K, step_size=1.0)
            ),
            "free": TrainConfig("free", self.pset, sched, b, T, 5, free_steps=4, attack_lr=0.5),
            "fast": TrainConfig("fast", self.pset, sched, b, T, 5),
        }
        self.pairs = []
        for k in range(s["pairs"]):
            src = (k * 7 + 3) % n
            x = self.data.X[src] * -1.0 + 0.3 * rng.stream(500 + seed, k).standard_normal(DIM)
            rep = LabeledSample(x=x, y=int((self.data.y[src] + 1) % 2))
            self.pairs.append(stability.make_neighbor(self.data, k % n, rep))

    def run_pass(self) -> PassResult:
        res = PassResult()
        h = hashlib.sha256()
        for alg, cfg in self.configs.items():
            self._family(res, h, alg, cfg)
        res.digest = h.hexdigest()
        return res

    def _family(self, res: PassResult, h, alg: str, cfg: TrainConfig):
        s, seed = self.sizes, self.seed
        T = cfg.total_iterations
        pair_labels = [f"pair:{alg}:{k}" for k in range(len(self.pairs))]
        try:
            pilots = []
            for p in (5, 6):
                _, tr = trainers.train(self.model, self.data, cfg.with_seed(p + seed), snapshot_at=range(1, T + 1))
                reasons = []
                expected = T * _oracle_per_update(cfg)
                if tr.oracle_calls != expected:
                    reasons.append(f"oracle_calls {tr.oracle_calls} != {expected}")
                res.op(f"pilot:{alg}:{p}", reasons)
                pilots.append(tr)
                h.update(tr.w_final.tobytes())
            sampler = bounds.TrajectorySampler.from_traces(pilots, self.pset, self.data, jitter=0.05)
            t0 = clock()
            L, _ = bounds.estimate_lipschitz(self.model, sampler, s["probes"], rng.stream(9 + seed, 0))
            beta = bounds.estimate_smoothness(
                self.model, sampler, s["probes"], 1e-3, rng.stream(9 + seed, 1), power_iters=0
            )
            res.probe_s += clock() - t0
            res.probes += 2 * s["probes"]
            res.op(f"probes:{alg}:lipschitz", [] if _finite(L) and L > 0 else [f"bad L {L}"])
            res.op(f"probes:{alg}:smoothness", [] if _finite(beta) and beta > 0 else [f"bad beta {beta}"])
        except Exception as exc:
            for label in pair_labels:
                res.op(label, [f"family set-up raised {type(exc).__name__}: {exc}"])
            return

        traces, times = [], []
        for k, pair in enumerate(self.pairs):
            t0 = clock()
            try:
                traces.append(stability.coupled_run(self.model, pair, cfg.with_seed(1000 + k + seed)))
            except Exception as exc:
                traces.append(None)
                res.op(pair_labels[k], [f"coupled_run raised {type(exc).__name__}: {exc}"])
            times.append(clock() - t0)
        live = [tr for tr in traces if tr is not None]
        psi = max(bounds.estimate_psi(tr).psi for tr in live) if live else 1.0
        up_fn, dn_fn = _verifiers(alg, beta, L, psi)
        deflated_total = 0
        for k, tr in enumerate(traces):
            if tr is None:
                continue
            reasons = _check_pair(tr)
            t0 = clock()
            try:
                up, dn = up_fn(tr), dn_fn(tr)
            except Exception as exc:
                res.op(pair_labels[k], reasons + [f"verifier raised {type(exc).__name__}: {exc}"])
                continue
            times[k] += clock() - t0
            if up.violations_absent or up.stepwise_violations:
                reasons.append(
                    f"inflated verifier: {up.violations_absent} absent, {up.stepwise_violations} stepwise violations"
                )
            deflated_total += dn.violations_absent + dn.violations_encounter + dn.stepwise_violations
            res.op(pair_labels[k], reasons)
            res.op_times.append(times[k])
            res.updates += 2 * T
            for arr in (tr.d_w, tr.s_count, tr.min_grad_delta, tr.w_final_a, tr.w_final_b):
                h.update(np.ascontiguousarray(arr).tobytes())
            _digest_json(h, [vars(up), vars(dn)])
        if live and deflated_total == 0:
            for label in pair_labels:
                res.op(label, ["deflated verifier found no violation in the family"])
        res.summary.update(
            {
                f"{alg}.lipschitz": L,
                f"{alg}.beta": beta,
                f"{alg}.psi": psi,
                f"{alg}.mean_final_d_w": float(np.mean([tr.d_w[-1] for tr in live])) if live else float("nan"),
                f"{alg}.first_divergence_sum": sum(tr.first_divergence_step() or 0 for tr in live),
            }
        )
        _digest_json(h, [L, beta, psi])


def _verifiers(alg: str, beta: float, L: float, psi: float):
    """The c09 inflated (x1.1) and deflated (x0.1) verifier calls. The
    gradient-norm floor psi is not deflated: that would void the hypothesis
    rather than tighten the bound."""
    if alg == "vanilla":
        return (
            lambda tr: stability.verify_growth_vanilla(tr, beta * 1.1, L * 1.1, EPS),
            lambda tr: stability.verify_growth_vanilla(tr, beta * 0.1, L * 0.1, EPS),
        )
    verify = stability.verify_growth_free if alg == "free" else stability.verify_growth_fast
    return (
        lambda tr: verify(tr, beta * 1.1, L * 1.1, psi * 1.1, EPS),
        lambda tr: verify(tr, beta * 0.1, L * 0.1, psi, EPS),
    )


def _check_pair(tr) -> list:
    """Divergence is exactly zero before the first encounter, and the final
    weights of both halves are finite."""
    reasons = []
    hits = np.nonzero(tr.s_count > 0)[0]
    first = int(hits[0]) + 1 if hits.size else tr.n_steps + 1
    if np.any(tr.d_w[:first] != 0.0):
        reasons.append(f"d_w nonzero before the first encounter at step {first}")
    if tr.d_w_inner is not None and np.any(tr.d_w_inner[: first - 1] != 0.0):
        reasons.append(f"inner d_w nonzero before the first encounter at step {first}")
    if not (np.isfinite(tr.w_final_a).all() and np.isfinite(tr.w_final_b).all()):
        reasons.append("non-finite final weights")
    return reasons


WORKLOADS = {w.name: w for w in (SeqTrain, BoundCurve, CoupledGrowth)}
