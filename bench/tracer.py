"""Outside-in span tracer for the advstab layers.

The library imports names with ``from .x import y``, so a function is looked
up under several module attributes (``advstab.trainers.pgd_attack_batch``,
``advstab.stability.pgd_attack_batch``, ...). ``Tracer.install`` wraps each
target once and installs the wrapper at every attribute of every loaded
``advstab`` module that holds the original object, and on the class for
methods. ``Tracer.uninstall`` puts the originals back.

A span records its group, start, end, parent span and an optional size (rows
per oracle call, probes per estimate). Spans stay in memory; ``summary``
reduces them to per-group counts and self times, and ``write_csv`` writes
them out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import time

import numpy as np


def _rows(args):
    """Rows of the input matrix, the third positional argument of every
    sized target: ``self, w, X`` for methods, ``model, w, X`` for the TRADES
    oracle."""
    shape = np.shape(args[2])
    return shape[0] if len(shape) == 2 else 1


def _probes(args):
    return int(args[2])


# group -> [(target as "module:qualname", size function or None)]. Every
# public function of a layer that the workloads reach is wrapped.
GROUPS = {
    "rng.stream": [("advstab.rng:stream", None)],
    "rng.ball": [("advstab.rng:sample_uniform_l2_ball", None), ("advstab.rng:sample_uniform_linf_ball", None)],
    "models.oracle": [
        ("advstab.models:SmoothModel.batch_loss_and_grads", _rows),
        ("advstab.trainers:trades_batch_loss_and_grads", _rows),
    ],
    "models.forward": [("advstab.models:SmoothModel.loss_batch", _rows), ("advstab.models:SmoothModel.predict_batch", _rows)],
    "threat.pgd": [("advstab.threat:pgd_attack_batch", None)],
    "threat.project": [("advstab.threat:project_rows", None), ("advstab.threat:extreme_rows", None)],
    "threat.risk": [("advstab.threat:empirical_robust_risk", None)],
    "trainers.step": [
        ("advstab.trainers:vanilla_batch_step", None),
        ("advstab.trainers:fast_batch_step", None),
        ("advstab.trainers:free_inner_iteration", None),
    ],
    "trainers.train": [("advstab.trainers:train", None)],
    "stability.coupled": [("advstab.stability:coupled_run", None)],
    "stability.verify": [
        ("advstab.stability:verify_growth_vanilla", None),
        ("advstab.stability:verify_growth_free", None),
        ("advstab.stability:verify_growth_fast", None),
    ],
    "bounds.lipschitz": [("advstab.bounds:estimate_lipschitz", _probes)],
    "bounds.smoothness": [("advstab.bounds:estimate_smoothness", _probes)],
    "bounds.draw": [("advstab.bounds:RegionSampler.draw", None), ("advstab.bounds:TrajectorySampler.draw", None)],
    "bounds.constants": [("advstab.bounds:estimate_constants", None)],
    "experiments.run_gap": [("advstab.experiments:run_gap_experiment", None)],
    "synth.make": [("advstab.synth:make_synthetic", None)],
    "reportio.emit": [("advstab.reportio:emit_report", None)],
}

# groups whose inclusive time is reported next to their self time
INCL_GROUPS = ("threat.risk", "bounds.constants", "experiments.run_gap", "synth.make", "reportio.emit")


def _resolve(target: str):
    mod_name, qual = target.split(":")
    owner = sys.modules[mod_name]
    parts = qual.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Records spans from wrappers installed at every lookup site."""

    def __init__(self):
        self.groups: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn, size):
        groups, starts, ends, parents, sizes, stack = (
            self.groups,
            self.starts,
            self.ends,
            self.parents,
            self.sizes,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(groups)
            groups.append(group)
            parents.append(stack[-1])
            sizes.append(size(args) if size is not None else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target of every group. Raises if a target is missing,
        so a renamed library function cannot silently drop out of the trace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "advstab" or name.startswith("advstab.")]
        try:
            for group, targets in GROUPS.items():
                for target, size in targets:
                    owner, attr = _resolve(target)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(group, original, size)
                    if isinstance(owner, type):
                        self._patch(owner, attr, original, wrapper)
                        continue
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, name, original, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Per group: calls, inclusive and self seconds, summed sizes, and for
        the oracle the number of calls made under a ``threat.pgd`` span."""
        n = len(self.groups)
        out = {g: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "size": 0, "under_pgd": 0} for g in GROUPS}
        if n == 0:
            return out
        starts = np.asarray(self.starts)
        durs = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durs[has_parent])
        self_s = durs - child
        under_pgd = np.zeros(n, dtype=bool)
        for i in range(n):  # parents precede children, so one forward pass suffices
            p = self.parents[i]
            if p >= 0:
                under_pgd[i] = under_pgd[p] or self.groups[p] == "threat.pgd"
        names = np.asarray(self.groups)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        for g, row in out.items():
            mask = names == g
            row["calls"] = int(mask.sum())
            row["incl_s"] = float(durs[mask].sum())
            row["self_s"] = float(self_s[mask].sum())
            row["size"] = int(sizes[mask].sum())
            row["under_pgd"] = int(under_pgd[mask].sum())
        return out

    def write_csv(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "group", "start_s", "end_s", "parent", "size"])
            for i, g in enumerate(self.groups):
                w.writerow([i, g, f"{self.starts[i] - t0:.9f}", f"{self.ends[i] - t0:.9f}", self.parents[i], self.sizes[i]])
