"""Spans and work counters around the public functions of each extflow
module, installed from the benchmark's side: the program is not edited.

A span records a name, a start, an end, its parent span and a round id.
Spans are kept in memory and written out when the run ends. Counters are
taken at the same boundaries, so ratios are measured where the work
happens. The calls are wrapped where their callers look them up: a
function imported by name into another module is wrapped in that module.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

MIB = 2.0 ** 20
COMPLEX_BYTES = 16

# name, unit of each per-layer metric, in the order they are reported
METRICS = (
    ("cli.main.self_s", "s"), ("cli.emit_s", "s"),
    ("models.build.count", "count"), ("models.build_s", "s"),
    ("models.build.ode_steps", "count"),
    ("models.overlap.calls", "count"), ("models.overlap_s", "s"),
    ("models.quad.evals", "count"),
    ("numerics.ode.calls", "count"), ("numerics.ode.steps", "count"),
    ("numerics.ode_s", "s"), ("numerics.root.calls", "count"),
    ("numerics.quad.calls", "count"), ("numerics.quad_s", "s"),
    ("numerics.norm.calls", "count"), ("numerics.norm_s", "s"),
    ("flow.gamma_map.calls", "count"), ("flow.gamma_map_s", "s"),
    ("flow.period_s", "s"), ("flow.period.gamma_maps_per_period", "count"),
    ("mobius.classify.calls", "count"), ("mobius.classify_s", "s"),
    ("spectra.shoot_s", "s"), ("spectra.mismatch.calls", "count"),
    ("spectra.mismatch_per_rung", "count"),
    ("weylcheck.residual.calls", "count"), ("weylcheck.residual_s", "s"),
    ("weylcheck.nilpotency.norms", "count"), ("weylcheck.dense_mb", "MiB"),
)

# span name -> metric that sums its durations, and the one that counts it
_TIMED = {
    "cli.emit": "cli.emit_s", "models.build": "models.build_s",
    "models.overlap": "models.overlap_s", "numerics.ode": "numerics.ode_s",
    "numerics.quad": "numerics.quad_s", "numerics.norm": "numerics.norm_s",
    "flow.gamma_map": "flow.gamma_map_s", "flow.period": "flow.period_s",
    "mobius.classify": "mobius.classify_s", "spectra.shoot": "spectra.shoot_s",
    "weylcheck.residual": "weylcheck.residual_s",
}
_COUNTED = {
    "models.build": "models.build.count", "models.overlap": "models.overlap.calls",
    "numerics.ode": "numerics.ode.calls", "numerics.root": "numerics.root.calls",
    "numerics.quad": "numerics.quad.calls", "numerics.norm": "numerics.norm.calls",
    "flow.gamma_map": "flow.gamma_map.calls", "mobius.classify": "mobius.classify.calls",
    "spectra.mismatch": "spectra.mismatch.calls",
    "weylcheck.residual": "weylcheck.residual.calls",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.round_id = -1
        self.counts: dict = defaultdict(float)   # (round, counter) -> amount
        self._stack: list[int] = []
        self._undo: list = []

    # spans ------------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def within(self, idx: int, name: str) -> bool:
        """Whether span idx has an ancestor called name."""
        idx = self.parents[idx]
        while idx >= 0:
            if self.names[idx] == name:
                return True
            idx = self.parents[idx]
        return False

    def count(self, key: str, amount: float = 1.0):
        self.counts[(self.round_id, key)] += amount

    # wrapping ---------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None):
        original = owner.__dict__[attr]

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, result, args)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        from extflow import cli, flow, models, spectra, weylcheck

        def ode_after(idx, sol, args):
            steps = len(sol.xs) - 1
            self.count("numerics.ode.steps", steps)
            if self.within(idx, "models.build"):
                self.count("models.build.ode_steps", steps)

        def quad_after(idx, res, args):
            self.count("models.quad.evals", res.evaluations)

        def gamma_map_after(idx, res, args):
            if self.within(idx, "flow.period"):
                self.count("flow.period.gamma_maps")

        def period_after(idx, res, args):
            if res is not None:
                self.count("flow.period.found")

        def shoot_after(idx, res, args):
            self.count("spectra.rungs", len(res))

        def norm_after(idx, res, args):
            if self.within(idx, "weylcheck.nilpotency"):
                self.count("weylcheck.nilpotency.norms")

        def residual_after(idx, res, args):
            n = args[0].shape[0]
            self.count("weylcheck.dense_bytes", 3 * n * n * COMPLEX_BYTES)

        def dense(per_n):
            def after(idx, res, args):
                n = _grid_size(res)
                self.count("weylcheck.dense_bytes", per_n * n * n * COMPLEX_BYTES)
            return after

        self.wrap(cli, "emit", "cli.emit")
        self.wrap(models.InverseSquareModel, "__init__", "models.build")
        self.wrap(models.IntervalModel, "overlap_matrix", "models.overlap")
        self.wrap(models.InverseSquareModel, "overlap_matrix", "models.overlap")
        self.wrap(models, "ode_solve", "numerics.ode", ode_after)
        self.wrap(models, "quad_finite", "numerics.quad", quad_after)
        self.wrap(spectra, "ode_solve", "numerics.ode", ode_after)
        self.wrap(spectra, "find_root", "numerics.root")
        self.wrap(weylcheck, "operator_norm", "numerics.norm", norm_after)
        self.wrap(flow, "gamma_map", "flow.gamma_map", gamma_map_after)
        self.wrap(flow, "period_detect", "flow.period", period_after)
        self.wrap(flow, "classify", "mobius.classify")
        self.wrap(spectra, "shoot_negative_eigenvalues", "spectra.shoot", shoot_after)
        self.wrap(spectra, "_mismatch", "spectra.mismatch")
        self.wrap(weylcheck, "nilpotency_index", "weylcheck.nilpotency")
        # dense n x n complex arrays each call creates: the generator and the
        # position operator; one semigroup or unitary matrix; and the residual's
        # two products and their difference
        self.wrap(weylcheck, "build_interval_grid", "weylcheck.grid", dense(2))
        self.wrap(weylcheck, "semigroup", "weylcheck.semigroup", dense(1))
        self.wrap(weylcheck, "unitary_group", "weylcheck.unitary", dense(1))
        self.wrap(weylcheck, "weyl_residual", "weylcheck.residual", residual_after)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # results ----------------------------------------------------------------
    def per_layer(self, rounds: int, round_factor: list, kernel_inside) -> dict:
        """Per-round means of every per-layer metric. Durations are net of
        calibration-kernel time and converted to reference seconds with the
        factor of the round they ran in."""
        totals = defaultdict(float)
        child_time = defaultdict(float)
        durations = []
        for i, name in enumerate(self.names):
            r = self.rounds[i]
            if r < 0:
                durations.append(0.0)
                continue
            d = (self.ends[i] - self.starts[i]
                 - kernel_inside(self.starts[i], self.ends[i])) * round_factor[r]
            durations.append(d)
            if name in _TIMED:
                totals[_TIMED[name]] += d
            if name in _COUNTED:
                totals[_COUNTED[name]] += 1
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += d
        for i, name in enumerate(self.names):
            if name == "cli.main" and self.rounds[i] >= 0:
                totals["cli.main.self_s"] += durations[i] - child_time[i]
        counts = defaultdict(float)
        for (r, key), amount in self.counts.items():
            if r >= 0:
                counts[key] += amount
        for key in ("numerics.ode.steps", "models.build.ode_steps", "models.quad.evals",
                    "weylcheck.nilpotency.norms"):
            totals[key] = counts[key]
        totals["weylcheck.dense_mb"] = counts["weylcheck.dense_bytes"] / MIB
        values = {name: totals[name] / rounds for name, _ in METRICS}
        values["flow.period.gamma_maps_per_period"] = _ratio(
            counts["flow.period.gamma_maps"], counts["flow.period.found"])
        values["spectra.mismatch_per_rung"] = _ratio(
            totals["spectra.mismatch.calls"], counts["spectra.rungs"])
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write(self, path):
        with open(path, "w") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps([i, name, self.starts[i], self.ends[i],
                                         self.parents[i], self.rounds[i]]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _grid_size(result) -> int:
    first = result[0] if isinstance(result, tuple) else result
    matrix = getattr(first, "matrix", first)
    return matrix.shape[0]
