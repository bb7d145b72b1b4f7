"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy experiment state (the desk-scale gap runs and the coupled-run
families) is computed once in session fixtures and shared across criteria.
Run with  pytest tests/test_acceptance.py -v -s  to see the lines stream.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from advstab.bounds import (
    ConstantEstimates,
    RegionSampler,
    TrajectorySampler,
    estimate_lipschitz,
    estimate_psi,
    estimate_smoothness,
)
from advstab.checks import (
    check_bound_formulas,
    check_expansivity,
    check_lambda_reductions,
    check_projections,
    check_projgrad_identity,
)
from advstab.experiments import ExperimentConfig, run_gap_experiment, run_vs_n_experiment
from advstab.models import LabeledSample, ScalarLogistic, SoftmaxLinear, TwoLayerTanhMLP, finite_diff_report
from advstab.reportio import report_to_dict
from advstab.rng import stream
from advstab.stability import (
    coupled_run,
    estimate_uniform_stability,
    make_neighbor,
    verify_growth,
)
from advstab.synth import SyntheticSpec, make_synthetic
from advstab.threat import AttackConfig, PerturbationSet
from advstab.trainers import StepSchedule, TrainConfig, train


def _line(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} [{status}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale configurations
# ---------------------------------------------------------------------------

_EVAL_ATTACK = AttackConfig(steps=10, step_size=0.125, init="uniform")  # eps/4 at eps=0.5


def _gap_config(algorithm, seed, trials, n_train=500, T=2000, trades_lambda=None):
    data = SyntheticSpec("two_gaussians", n_train=n_train, n_test=2000, dim=20, noise=1.0, seed=1)
    tc = TrainConfig(
        algorithm,
        PerturbationSet("l2", 0.5, 20),
        StepSchedule("constant", c=0.3),
        25,
        T,
        seed,
        attack_lr=0.5,
        free_steps=4,
        trades_lambda=trades_lambda,
        inner_attack=AttackConfig(steps=10, step_size=0.125, init="uniform"),
    )
    return ExperimentConfig(
        model_kind="mlp",
        hidden_dim=16,
        data=data,
        train=tc,
        eval_attack=_EVAL_ATTACK,
        eval_seed=4242,
        checkpoint_every=T,
        trials=trials,
        attach_bounds=False,
    )


@pytest.fixture(scope="session")
def gap_direction_runs():
    """Criterion 11/14 state: five 2-seed groups for vanilla and free."""
    groups = []
    for g in range(5):
        seed = 100 + 2 * g
        van = run_gap_experiment(_gap_config("vanilla", seed, trials=2))
        fre = run_gap_experiment(_gap_config("free", seed, trials=2))
        groups.append((van, fre))
    return groups


@pytest.fixture(scope="session")
def growth_state():
    """Criterion 9 state: coupled-run families plus estimated constants."""
    dim, hid, n, b, T = 20, 16, 40, 8, 60
    spec = SyntheticSpec("two_gaussians", n_train=n, n_test=10, dim=dim, noise=1.0, seed=3)
    data, _ = make_synthetic(spec)
    model = TwoLayerTanhMLP(input_dim=dim, hidden_dim=hid)
    pset = PerturbationSet("l2", 0.5, dim)
    sched = StepSchedule("constant", c=0.25)
    configs = {
        "vanilla": TrainConfig("vanilla", pset, sched, b, T, 5, inner_attack=AttackConfig(steps=5, step_size=1.0)),
        "free": TrainConfig("free", pset, sched, b, T, 5, free_steps=4, attack_lr=0.5),
        "fast": TrainConfig("fast", pset, sched, b, T, 5),
    }
    state = {}
    for name, cfg in configs.items():
        pilots = []
        for s in (5, 6):
            _, tr = train(model, data, cfg.with_seed(s), snapshot_at=range(1, T + 1))
            pilots.append(tr)
        sampler = TrajectorySampler.from_traces(pilots, pset, data, jitter=0.05)
        # spec-literal random-direction pair quotients: tight enough that a
        # 10x deflation is detectably below the path expansion
        L, Lw = estimate_lipschitz(model, sampler, 1500, stream(9, 0))
        beta = estimate_smoothness(model, sampler, 1500, 1e-3, stream(9, 1), power_iters=0)
        traces = []
        for k in range(100):
            x = data.X[(k * 7 + 3) % n] * -1.0 + 0.3 * stream(500, k).standard_normal(dim)
            rep = LabeledSample(x=x, y=int((data.y[(k * 7 + 3) % n] + 1) % 2))
            pair = make_neighbor(data, k % n, rep)
            traces.append(coupled_run(model, pair, cfg.with_seed(1000 + k)))
        psi_hat = max(estimate_psi(tr).psi for tr in traces)
        state[name] = dict(traces=traces, consts=ConstantEstimates(lipschitz=L, lipschitz_w=Lw, beta=beta, psi=psi_hat))
    return state


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for model in (
        SoftmaxLinear(input_dim=10, class_count=3),
        TwoLayerTanhMLP(input_dim=10, hidden_dim=8, class_count=2),
        ScalarLogistic(input_dim=10),
    ):
        worst = max(worst, finite_diff_report(model, 100, 1e-5, stream(201, 0)))
    elapsed = time.time() - t0
    _line(
        1,
        "gradient correctness",
        worst < 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.3e} (tol 1e-6) over 100 configs per model kind in {elapsed:.1f}s (< 10s)",
    )


def test_c02_projection_oracles():
    t0 = time.time()
    res = check_projections(n_grads=1000, n_points=100_000)
    elapsed = time.time() - t0
    _line(2, "projection oracles", res.passed and elapsed < 30.0, f"{res.detail}; {elapsed:.1f}s (< 30s)")


def test_c03_projgrad_identity():
    res = check_projgrad_identity(n=1000)
    _line(3, "extreme-projection rescaling identity", res.passed, res.detail)


def test_c04_expansivity_algebra():
    res = check_expansivity(n=1000)
    _line(4, "expansion-matrix algebra", res.passed, res.detail)


def test_c05_lambda_reductions_and_monotonicity():
    res = check_lambda_reductions()
    _line(5, "stability-exponent reductions and monotonicity", res.passed, res.detail)


def test_c06_bound_formulas():
    res = check_bound_formulas(points=20)
    _line(6, "closed-form bounds vs independent arithmetic", res.passed, res.detail)


def test_c07_coupling_soundness():
    spec = SyntheticSpec("two_gaussians", n_train=30, n_test=10, dim=5, noise=1.0, seed=3)
    data, _ = make_synthetic(spec)
    model = TwoLayerTanhMLP(input_dim=5, hidden_dim=4)
    pset = PerturbationSet("l2", 0.3, 5)
    failures = 0
    checked = 0
    for algorithm, kw, sched in (
        ("vanilla", {}, StepSchedule("vanishing_c_over_t", c=0.5)),
        ("fast", {}, StepSchedule("vanishing_c_over_t", c=0.5)),
        ("free", dict(free_steps=4), StepSchedule("vanishing_c_over_mt", c=0.5, m=4)),
        ("free_trades", dict(free_steps=4, trades_lambda=0.5), StepSchedule("vanishing_c_over_mt", c=0.5, m=4)),
    ):
        for seed in range(10):
            cfg = TrainConfig(
                algorithm, pset, sched, 6, 20, seed, inner_attack=AttackConfig(steps=2, step_size=1.0), **kw
            )
            pair = make_neighbor(data, seed % data.n, data.sample(seed % data.n))
            trace = coupled_run(model, pair, cfg)
            checked += 1
            zero = bool((trace.d_w == 0.0).all())
            if trace.d_w_inner is not None:
                zero &= bool((trace.d_w_inner == 0.0).all() and (trace.d_delta_inner == 0.0).all())
            failures += not zero
    _line(
        7,
        "coupling soundness",
        failures == 0,
        f"{checked} identical-dataset coupled runs (4 algorithms x 10 seeds), {failures} with nonzero divergence",
    )


def test_c08_encounter_bound():
    n, b, runs = 50, 1, 500
    spec = SyntheticSpec("two_gaussians", n_train=n, n_test=10, dim=3, noise=1.0, seed=3)
    data, _ = make_synthetic(spec)
    model = SoftmaxLinear(input_dim=3, class_count=2)
    t0 = time.time()
    first_drawn = np.full(runs, np.inf)
    first_diverged = np.full(runs, np.inf)
    for k in range(runs):
        rep = LabeledSample(x=np.full(3, 1.5) + 0.2 * stream(600, k).standard_normal(3), y=1)
        pair = make_neighbor(data, k % n, rep)
        cfg = TrainConfig(
            "vanilla",
            PerturbationSet("l2", 0.3, 3),
            StepSchedule("vanishing_c_over_t", c=0.5),
            b,
            25,
            2000 + k,
            inner_attack=AttackConfig(steps=2, step_size=1.0),
        )
        trace = coupled_run(model, pair, cfg)
        enc = np.nonzero(trace.s_count > 0)[0]
        if enc.size:
            first_drawn[k] = enc[0] + 1
        div = trace.first_divergence_step()
        if div is not None:
            first_diverged[k] = div
    details = []
    ok = True
    for t0_ in (5, 10, 20):
        for label, firsts in (("drawn", first_drawn), ("diverged", first_diverged)):
            p_hat = float((firsts <= t0_).mean())
            bound = b * t0_ / n
            se = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / runs)
            ok &= p_hat <= bound + 3 * se
            if label == "drawn":
                details.append(f"t0={t0_}: {p_hat:.3f} <= {bound:.3f}+3SE")
    _line(8, "encounter probability union bound", ok, f"{runs} coupled runs; " + ", ".join(details) + f"; {time.time()-t0:.0f}s")


def test_c09_growth_recursion_verification(growth_state):
    t0 = time.time()
    details = []
    ok = True
    for name, st in growth_state.items():
        k = st["consts"]
        inflated = k.inflated(1.1)
        # the gradient-norm floor estimate psi stays as measured: deflating it
        # would void the hypothesis rather than tighten the bound
        deflated = replace(k, beta=k.beta * 0.1, lipschitz=k.lipschitz * 0.1, lipschitz_w=k.lipschitz_w * 0.1)
        up_absent = up_checked = dn_total = 0
        for tr in st["traces"]:
            up = verify_growth(tr, inflated)
            dn = verify_growth(tr, deflated)
            up_absent += up.violations_absent + getattr(up, "stepwise_violations", 0)
            up_checked += up.checked_absent
            dn_total += dn.violations_absent + dn.violations_encounter + getattr(dn, "stepwise_violations", 0)
        ok &= up_absent == 0 and dn_total > 0
        details.append(f"{name}: 0/{up_checked} inflated violations, {dn_total} deflated")
    elapsed = time.time() - t0
    _line(9, "growth-recursion verification", ok and elapsed < 300.0, "; ".join(details) + f"; verify {elapsed:.0f}s (< 5min)")


def test_c10_uniform_stability_cap():
    spec = SyntheticSpec("two_gaussians", n_train=30, n_test=10, dim=5, noise=1.0, seed=3)
    data, _ = make_synthetic(spec)
    model = TwoLayerTanhMLP(input_dim=5, hidden_dim=4)
    pset = PerturbationSet("l2", 0.3, 5)
    box = 0.8 * np.ones(model.param_dim)
    sampler = RegionSampler(w_low=-box, w_high=box, pset=pset, X=data.X, y=data.y)
    _, Lw = estimate_lipschitz(model, sampler, probes=8000, rng=stream(95, 0))
    atk = AttackConfig(steps=12, step_size=1.0)
    rng = stream(96, 0)
    pts = data.samples()[:15]
    hits = 0
    worst = np.inf
    for trial in range(100):
        w = rng.uniform(-0.75, 0.75, size=model.param_dim)
        dw = rng.standard_normal(model.param_dim)
        dw *= rng.uniform(0.01, 0.05) / np.linalg.norm(dw)
        est = estimate_uniform_stability(w, w + dw, model, pts, pset, atk, stream(97, trial))
        cap = Lw * np.linalg.norm(dw) + 1e-3
        hits += est <= cap
        worst = min(worst, cap - est)
    _line(10, "uniform-stability cap", hits == 100, f"{hits}/100 pairs under the cap, smallest margin {worst:.4f}")


def test_c11_gap_direction(gap_direction_runs):
    wins = 0
    gaps = []
    for van, fre in gap_direction_runs:
        gv, gf = van.mean_final_acc_gap(), fre.mean_final_acc_gap()
        wins += gf < gv
        gaps.append((gv, gf))
    detail = ", ".join(f"(van {a:+.3f}, free {b:+.3f})" for a, b in gaps)
    _line(11, "gap direction free < vanilla", wins >= 4, f"free wins {wins}/5 seed groups: {detail}")


def test_c12_gap_vs_n():
    t0 = time.time()
    n_values = [250, 500, 1000, 2000]
    results = {}
    for algorithm in ("vanilla", "free"):
        cfg = _gap_config(algorithm, 100, trials=5, T=1200)
        res = run_vs_n_experiment(cfg, n_values)
        results[algorithm] = res
    ok = all(results[a].spearman < 0 for a in results)
    slopes = {a: (results[a].slope, results[a].slope_se) for a in results}
    detail = (
        f"spearman vanilla {results['vanilla'].spearman:+.2f}, free {results['free'].spearman:+.2f}; "
        f"log-log slopes vanilla {slopes['vanilla'][0]:.2f}+-{slopes['vanilla'][1]:.2f}, "
        f"free {slopes['free'][0]:.2f}+-{slopes['free'][1]:.2f} (slope comparison report-only); "
        f"{time.time()-t0:.0f}s"
    )
    _line(12, "gap vs n", ok, detail)


def test_c13_free_trades_direction():
    t0 = time.time()
    wins = 0
    gaps = []
    for g in range(5):
        seed = 100 + 2 * g
        seq = run_gap_experiment(_gap_config("trades_seq", seed, trials=2, trades_lambda=1.0))
        sim = run_gap_experiment(_gap_config("free_trades", seed, trials=2, trades_lambda=1.0))
        gs, gf = seq.mean_final_acc_gap(), sim.mean_final_acc_gap()
        wins += gf < gs
        gaps.append((gs, gf))
    detail = ", ".join(f"(seq {a:+.3f}, free {b:+.3f})" for a, b in gaps)
    _line(13, "TRADES direction free < sequential", wins >= 4, f"free wins {wins}/5 seed groups: {detail}; {time.time()-t0:.0f}s")


def test_c14_psi_monitoring(gap_direction_runs):
    mins = []
    for van, fre in gap_direction_runs:
        for rep in (van, fre):
            for trial in rep.trials:
                mins.append(trial.min_grad_delta_norm)
                assert not trial.grad_degenerate
    ok = all(m > 0.0 for m in mins)
    _line(14, "perturbation-gradient-norm monitoring", ok, f"min over all runs {min(mins):.2e} (strictly positive)")


def test_c15_determinism():
    cfg = _gap_config("free", 300, trials=2, T=200)
    a = report_to_dict(run_gap_experiment(cfg))
    b = report_to_dict(run_gap_experiment(cfg))
    same_gap = a == b
    # and a bounds-attached vanishing-schedule run reproduces too
    cfg2 = _gap_config("vanilla", 301, trials=1, T=100)
    cfg2 = ExperimentConfig(
        **{
            **cfg2.__dict__,
            "train": TrainConfig(
                "vanilla",
                cfg2.train.pset,
                StepSchedule("vanishing_c_over_t", c=0.5),
                cfg2.train.batch_size,
                100,
                301,
                inner_attack=cfg2.train.inner_attack,
            ),
            "attach_bounds": True,
        }
    )
    c = report_to_dict(run_gap_experiment(cfg2))
    d = report_to_dict(run_gap_experiment(cfg2))
    _line(15, "bit-exact reproducibility", same_gap and c == d, "re-running reproduces every emitted number bit-exactly")
