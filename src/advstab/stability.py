"""Coupled runs on neighboring datasets and growth-recursion verification.

A neighboring pair is two datasets of equal size that differ at exactly one
index. A coupled run advances a trajectory on each dataset through
``trainers.lockstep``, the same loop ``train`` uses, so each half equals
``train`` on its dataset bit for bit. Both halves consume one randomness
plan: one shared initialization, one shared batch-index stream, shared
perturbation initializations, and shared attack restarts. Before the first
step whose batch contains the differing index, the two trajectories are the
same float-for-float, so every recorded divergence is exactly zero.

``verify_growth(trace, consts)`` checks the per-step divergence recursion
of the trace's update rule path-wise against estimated constants, inflated
or deflated by the caller, at the trace's radius. It dispatches through
``RULE_FACTS``, the one table of each rule's bound builder, growth verifier
and predicted gap rate; ``verify_growth_*`` are its per-rule verifiers:

  vanilla   d_t <= (1 + a*beta) d_{t-1} + 2*eps*a*beta     (differing index absent)
  fast      d_t <= (1 + a*beta*(1 + s*eps*psi*beta)) d_{t-1}
  free      [dw; dd]_{i+1} <= H [dw; dd]_i                  per inner iteration,
            with H = [[1+a*beta, a*beta], [ad*eps*psi*beta, 1+ad*eps*psi*beta]]

where a is the weight step size, s the single-step attack size, ad the
perturbation ascent rate, and psi the reciprocal of the smallest observed
perturbation-gradient norm. Steps whose batch contains the differing index
k times gain the source terms (2k/b)*a*L (weights) and (2k/b)*ad*eps*psi*L
(perturbations); batches are drawn with replacement, so k can exceed one.
Path-wise checks on the absent steps are deterministic consequences of
valid constants; the checks on encounter steps additionally rely on the
joint Lipschitz estimate. Deflating the constants must produce violations,
otherwise the verifier is vacuous.

The free verifier also checks the per-outer-step contraction of
d_t + offset against the closed-form factor (r + (1 + a(r+1))^m)/(r+1)
of the m-th power of H, with offset = 2kL/(b*beta) on encounter steps.
All of this is stated for L2 balls; the verifiers refuse L-inf traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .bounds import ConstantEstimates, _nonnegative, _positive, bound_fast, bound_free, bound_vanilla, closed_form_contraction
from .errors import ConfigError, DimensionError, TraceError, _int64s
from .models import Dataset, LabeledSample, SmoothModel
from .rng import stream
from .threat import AttackConfig, PerturbationSet, _row_norms, pgd_attack_batch
from .trainers import FAST, FREE, VANILLA, TrainConfig, lockstep

__all__ = [
    "NeighborPair",
    "StabilityTrace",
    "GrowthReport",
    "make_neighbor",
    "coupled_run",
    "RULE_FACTS",
    "verify_growth",
    "verify_growth_vanilla",
    "verify_growth_free",
    "verify_growth_fast",
    "verify_stepwise_expectation",
    "estimate_uniform_stability",
    "closed_form_contraction",
]


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets of equal size differing at exactly one index."""

    data_a: Dataset
    data_b: Dataset
    differing_index: int
    replaced_sample: LabeledSample


def make_neighbor(dataset: Dataset, index: int, replacement: LabeledSample) -> NeighborPair:
    """The neighbor of ``dataset`` obtained by replacing one sample."""
    index = dataset._row(index)
    return NeighborPair(
        data_a=dataset,
        data_b=dataset.replace_sample(index, replacement),
        differing_index=index,
        replaced_sample=replacement,
    )


@dataclass
class StabilityTrace:
    """Divergence records from one coupled run of ``cfg`` on a pair of
    datasets of size ``n``.

    ``d_w[t]`` is the weight distance after outer step t (``d_w[0] = 0``);
    ``s_count[t-1]`` is how many times the differing index appeared in the
    step-t batch. Free runs also carry per-inner-iteration weight and mean
    per-sample perturbation distances, shape (steps, m+1) with column 0
    holding the post-initialization state.
    """

    cfg: TrainConfig
    n: int
    alpha_w: np.ndarray  # (n_steps,)
    d_w: np.ndarray  # (n_steps + 1,)
    s_count: np.ndarray  # (n_steps,)
    min_grad_delta: np.ndarray  # (n_steps,), min over both runs
    w_final_a: np.ndarray
    w_final_b: np.ndarray
    d_w_inner: np.ndarray | None = None  # (n_steps, m + 1)
    d_delta_inner: np.ndarray | None = None  # (n_steps, m + 1)

    @property
    def n_steps(self) -> int:
        return self.cfg.total_iterations // self.cfg.inner_steps

    def first_divergence_step(self) -> int | None:
        hits = np.nonzero(self.d_w[1:] > 0.0)[0]
        return int(hits[0] + 1) if hits.size else None

    def to_records(self):
        for t in range(self.n_steps):
            yield {
                "step": t + 1,
                "alpha_w": float(self.alpha_w[t]),
                "d_w": float(self.d_w[t + 1]),
                "d_delta": float(self.d_delta_inner[t, -1]) if self.d_delta_inner is not None else "",
                "s_in_batch": int(self.s_count[t]),
                "min_grad_delta_norm": float(self.min_grad_delta[t]),
            }


def coupled_run(model: SmoothModel, pair: NeighborPair, cfg: TrainConfig, batch_plan: np.ndarray | None = None) -> StabilityTrace:
    """Advance a trajectory on each dataset of ``pair`` in lockstep through
    one randomness plan, recording their divergence; ``batch_plan`` is
    ``lockstep``'s, which pins when the differing index is drawn."""
    m = cfg.inner_steps
    n_steps = cfg.total_iterations // m
    free = cfg.rule == FREE
    alpha_w = np.zeros(n_steps)
    d_w = np.zeros(n_steps + 1)
    s_count = np.zeros(n_steps, dtype=np.int64)
    min_gd = np.full(n_steps, np.inf)
    inner_w = np.zeros((n_steps, m + 1)) if free else None
    inner_d = np.zeros((n_steps, m + 1)) if free else None

    updates = lockstep(model, [pair.data_a, pair.data_b], cfg, batch_plan)
    W = next(updates)[4]
    for t, i, aw, idx, W, D, (_, _, mgd) in updates:
        if i == 1:
            alpha_w[t - 1] = aw
            s_count[t - 1] = np.count_nonzero(idx == pair.differing_index)
        min_gd[t - 1] = min(min_gd[t - 1], mgd.min())
        d = W[0] - W[1]
        d_w[t] = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic
        if free:
            inner_w[t - 1, i] = d_w[t]
            # the mean row distance, np.linalg.norm(Da - Db, axis=1).mean()'s arithmetic
            inner_d[t - 1, i] = np.add.reduce(_row_norms(D[0] - D[1])[:, 0]) / cfg.batch_size
    if free:
        # column 0 is the state after the step's perturbation draw: the carried
        # weight distance, and zero perturbation distance (both halves share the draw)
        inner_w[:, 0] = d_w[:-1]

    return StabilityTrace(
        cfg=cfg,
        n=pair.data_a.n,
        alpha_w=alpha_w,
        d_w=d_w,
        s_count=s_count,
        min_grad_delta=min_gd,
        w_final_a=W[0],
        w_final_b=W[1],
        d_w_inner=inner_w,
        d_delta_inner=inner_d,
    )


# ---------------------------------------------------------------------------
# growth verification
# ---------------------------------------------------------------------------

# multiplicative and absolute guards against pure float roundoff in the
# path-wise comparisons; violations must beat both to count
_REL_GUARD = 1e-9
_ABS_GUARD = 1e-15


@dataclass
class GrowthReport:
    """Path-wise recursion check results, split by whether the differing
    index was in the step's batch (absent vs encounter steps)."""

    algorithm: str
    checked_absent: int = 0
    checked_encounter: int = 0
    violations_absent: int = 0
    violations_encounter: int = 0
    max_ratio_absent: float = 0.0
    max_ratio_encounter: float = 0.0
    hypothesis_excluded: int = 0
    stepwise_checked: int = 0
    stepwise_violations: int = 0
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations_absent == 0

    def _tally(self, actual: float, bound: float, encounter: bool):
        ratio = actual / bound if bound > 0 else (0.0 if actual == 0.0 else np.inf)
        violated = actual > bound * (1.0 + _REL_GUARD) + _ABS_GUARD
        if encounter:
            self.checked_encounter += 1
            self.violations_encounter += int(violated)
            self.max_ratio_encounter = max(self.max_ratio_encounter, ratio)
        else:
            self.checked_absent += 1
            self.violations_absent += int(violated)
            self.max_ratio_absent = max(self.max_ratio_absent, ratio)


def _report(trace: StabilityTrace, rule: str, eps: float, **consts) -> GrowthReport:
    """An empty report on ``trace``, once it is an L2 trace of ``rule``
    and the constants and the radius ``eps`` are valid."""
    if trace.cfg.pset.norm != "l2":
        raise ConfigError("growth recursions are stated for L2 perturbation sets")
    _positive(**consts)
    _nonnegative(eps=eps)
    if trace.cfg.rule != rule:
        raise TraceError(f"expected a {rule}-rule trace, got {trace.cfg.algorithm!r}")
    return GrowthReport(algorithm=trace.cfg.algorithm)


def verify_growth_vanilla(trace: StabilityTrace, beta_hat: float, L_hat: float, eps: float) -> GrowthReport:
    """Check, for every step, the divergence growth bound with the supplied
    constants; encounter steps use the mixed batch-split bound."""
    rep = _report(trace, VANILLA, eps, beta_hat=beta_hat, L_hat=L_hat)
    b = trace.cfg.batch_size
    for t in range(1, trace.n_steps + 1):
        a = trace.alpha_w[t - 1]
        prev, cur = trace.d_w[t - 1], trace.d_w[t]
        k = int(trace.s_count[t - 1])
        smooth = (1.0 + a * beta_hat) * prev + 2.0 * eps * a * beta_hat
        if k == 0:
            rep._tally(cur, smooth, encounter=False)
        else:
            bound = ((b - k) / b) * smooth + (k / b) * (prev + 2.0 * a * L_hat)
            rep._tally(cur, bound, encounter=True)
    return rep


def verify_growth_fast(trace: StabilityTrace, beta_hat: float, L_hat: float, psi_hat: float, eps: float) -> GrowthReport:
    """Fast-variant growth check: the expansion factor gains the
    single-step attack term; no additive source off the encounter steps."""
    rep = _report(trace, FAST, eps, beta_hat=beta_hat, L_hat=L_hat, psi_hat=psi_hat)
    b = trace.cfg.batch_size
    inflate = 1.0 + trace.cfg.resolved_fast_step * eps * psi_hat * beta_hat
    for t in range(1, trace.n_steps + 1):
        a = trace.alpha_w[t - 1]
        prev, cur = trace.d_w[t - 1], trace.d_w[t]
        k = int(trace.s_count[t - 1])
        if trace.min_grad_delta[t - 1] < 1.0 / psi_hat:
            rep.hypothesis_excluded += 1
            continue
        bound = (1.0 + a * beta_hat * inflate) * prev + (2.0 * k / b) * a * L_hat
        rep._tally(cur, bound, encounter=k > 0)
    return rep


def verify_growth_free(trace: StabilityTrace, beta_hat: float, L_hat: float, psi_hat: float, eps: float) -> GrowthReport:
    """Free-variant checks: the per-inner-iteration two-row inequality with
    the expansion matrix, plus the per-outer-step closed-form contraction of
    the offset weight distance. Needs per-iteration granularity."""
    rep = _report(trace, FREE, eps, beta_hat=beta_hat, L_hat=L_hat, psi_hat=psi_hat)
    if trace.d_w_inner is None or trace.d_delta_inner is None:
        raise TraceError("free growth verification needs per-iteration records")
    ad, m, b = trace.cfg.resolved_attack_lr, trace.cfg.inner_steps, trace.cfg.batch_size
    row_d = ad * eps * psi_hat * beta_hat

    for t in range(1, trace.n_steps + 1):
        if trace.min_grad_delta[t - 1] < 1.0 / psi_hat:
            rep.hypothesis_excluded += 1
            continue
        a = trace.alpha_w[t - 1]
        k = int(trace.s_count[t - 1])
        enc = k > 0
        src_w = (2.0 * k / b) * a * L_hat
        src_d = (2.0 * k / b) * ad * eps * psi_hat * L_hat
        for i in range(m):
            dw, dd = trace.d_w_inner[t - 1, i], trace.d_delta_inner[t - 1, i]
            bound_w = (1.0 + a * beta_hat) * dw + a * beta_hat * dd + src_w
            bound_d = row_d * dw + (1.0 + row_d) * dd + src_d
            rep._tally(trace.d_w_inner[t - 1, i + 1], bound_w, encounter=enc)
            rep._tally(trace.d_delta_inner[t - 1, i + 1], bound_d, encounter=enc)

        # per-outer-step contraction of the offset weight distance, using
        # the sharp closed-form factor (below any c/t relaxation of it)
        alpha = a * beta_hat
        r = ad * eps * psi_hat / a
        factor = closed_form_contraction(alpha, r, m)
        off = (2.0 * k / b) * L_hat / beta_hat
        lhs = trace.d_w[t] + off
        rhs = factor * (trace.d_w[t - 1] + off)
        rep.stepwise_checked += 1
        if lhs > rhs * (1.0 + _REL_GUARD) + _ABS_GUARD:
            rep.stepwise_violations += 1
    return rep


class RuleFacts(NamedTuple):
    bound: Callable  # BoundInputs -> BoundReport
    verify: Callable  # (StabilityTrace, ConstantEstimates) -> GrowthReport, at the trace's radius
    predicted_rate: str  # decay of the gap in n at a fixed iteration count


# What the analysis states for each update rule, in report order. The
# verifiers are looked up by name when called, so a wrapped module-level
# ``verify_growth_*`` is what the table runs. The simultaneous rules' gap
# exponent is the full -1; the sequential rule's sits between -1 and 0.
RULE_FACTS = {
    VANILLA: RuleFacts(
        bound_vanilla,
        lambda tr, k: verify_growth_vanilla(tr, k.beta, k.lipschitz, tr.cfg.pset.radius),
        "n^(-lambda/(lambda+1)) with lambda = beta*c (exponent in (-1, 0))",
    ),
    FREE: RuleFacts(bound_free, lambda tr, k: verify_growth_free(tr, k.beta, k.lipschitz, k.psi, tr.cfg.pset.radius), "n^(-1) at fixed iteration count"),
    FAST: RuleFacts(bound_fast, lambda tr, k: verify_growth_fast(tr, k.beta, k.lipschitz, k.psi, tr.cfg.pset.radius), "n^(-1) at fixed iteration count"),
}


def verify_growth(trace: StabilityTrace, consts: ConstantEstimates) -> GrowthReport:
    """The growth check of ``trace``'s update rule under the constants ``consts``."""
    return RULE_FACTS[trace.cfg.rule].verify(trace, consts)


def verify_stepwise_expectation(
    traces,
    beta_hat: float,
    L_hat: float,
    psi_hat: float,
    eps: float,
) -> dict:
    """Monte-Carlo check of the expectation-level per-step contraction for a
    family of free coupled runs sharing ``n``, ``n_steps`` and their
    config's batch size, inner steps, schedule and ascent rate; a trace of
    another rule or with another value of one of these is a ``TraceError``
    naming the value and the trace index:

        mean[d_t] + 2L/(n beta) <= factor_t * (mean[d_{t-1}] + 2L/(n beta))

    with factor_t = 1 + (beta c / t) (1 + a beta + ad eps psi beta)^(m-1),
    allowing three standard errors of the step-t mean on the left side.
    Requires the c/(m t) schedule the factor is derived for.
    """
    traces = list(traces)
    if not traces:
        raise TraceError("need at least one trace")
    t0 = traces[0]
    for j, tr in enumerate(traces):
        if tr.cfg.rule != FREE:
            raise TraceError(f"trace {j}: expected a free-rule trace, got {tr.cfg.algorithm!r}")
        for name in ("n", "cfg.batch_size", "cfg.inner_steps", "n_steps", "cfg.schedule", "cfg.resolved_attack_lr"):
            value, first = attrgetter(name)(tr), attrgetter(name)(t0)
            if value != first:
                raise TraceError(f"trace {j} has {name}={value!r}, trace 0 has {first!r}")
    sched, ad, m = t0.cfg.schedule, t0.cfg.resolved_attack_lr, t0.cfg.inner_steps
    if sched.kind != "vanishing_c_over_mt":
        raise ConfigError("the expectation-level factor needs the c/(m t) schedule")
    _positive(beta_hat=beta_hat, L_hat=L_hat, psi_hat=psi_hat)
    _nonnegative(eps=eps)
    D = np.stack([tr.d_w for tr in traces])  # (runs, n_steps + 1)
    runs = D.shape[0]
    off = 2.0 * L_hat / (t0.n * beta_hat)
    checked = violations = 0
    for t in range(1, t0.n_steps + 1):
        a = t0.alpha_w[t - 1]
        row = 1.0 + a * beta_hat + ad * eps * psi_hat * beta_hat
        factor = 1.0 + (beta_hat * sched.c / t) * row ** (m - 1)
        lhs = D[:, t].mean() + off
        rhs = factor * (D[:, t - 1].mean() + off)
        se = D[:, t].std(ddof=1) / np.sqrt(runs) if runs > 1 else 0.0
        checked += 1
        if lhs - 3.0 * se > rhs * (1.0 + _REL_GUARD) + _ABS_GUARD:
            violations += 1
    return {"checked": checked, "violations": violations, "runs": runs}


def estimate_uniform_stability(
    w: np.ndarray,
    w_prime: np.ndarray,
    model: SmoothModel,
    eval_points,
    pset: PerturbationSet,
    attack: AttackConfig,
    rng: np.random.Generator,
) -> float:
    """Finite-sample lower estimate of the worst-case attacked-loss change:
    the max over eval points of |attacked loss at w - attacked loss at w'|,
    with both weights attacked under identical randomness. Pair it with the
    Lipschitz cap lipschitz_w * ||w - w'|| for an upper estimate."""
    pts = list(eval_points)
    if not pts:
        raise DimensionError("eval_points must be nonempty")
    if np.shape(w) != (model.param_dim,) or np.shape(w_prime) != (model.param_dim,):
        raise DimensionError(f"w and w_prime must have shape ({model.param_dim},), got {np.shape(w)} and {np.shape(w_prime)}")
    X = np.stack([p.x for p in pts])
    y = _int64s([p.y for p in pts], "eval point labels")
    base = int(rng.integers(2**63))
    # both weights as a stack of two runs on the points, broadcast: each run
    # starts each restart from the same draw, so it equals its own attack
    # under stream(base, 0)
    oracle = model._bind(np.stack([w, w_prime]), np.broadcast_to(X, (2,) + X.shape), np.broadcast_to(y, (2,) + y.shape))
    D = pgd_attack_batch(model, oracle.w, oracle.X, oracle.y, pset, attack, stream(base, 0), loss_grad_fn=oracle)
    # the attacked losses from the same binding's forward and head
    la, lb = oracle._evaluate(D, True)[0]
    return float(np.abs(la - lb).max())
