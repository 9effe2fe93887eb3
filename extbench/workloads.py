"""The four workloads: seeded CLI command lines and the checks of their
output against ``oracles``.

A workload is built from the seed alone and hands out the jobs of round r
through ``round_jobs(r)``; the program only ever sees the command lines.
Floats are passed with all 17 digits, as ``--flag=value`` so that negative
values are never taken for options.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles
from calibrate import DENSE_SHARES, INTERPRETER_SHARES

# Tolerances the program declares for its own results: the interval flow
# (cli._flow_tol), the inverse-square model's overlap accuracy, the
# power-iteration norm inside weylcheck.weyl_residual, and the root
# tolerance on log|lambda| in spectra.shoot_negative_eigenvalues.
INTERVAL_TOL = 1e-8
MODEL_TOL = 1e-6
NORM_TOL = 1e-8
ROOT_TOL = 1e-7
# Matching a computed inverse-square fixed point to its closed form. The
# gauge fault of InverseSquareModel._build_table moves the parameters by
# up to 1.5e-4 on the semibounded range; 1e-3 still tells v_F from v_K
# (they are at least 0.7 apart on the couplings used here). The accuracy
# itself is gated on the fk-params jobs and shows in oracle_digits.
IDENT_TOL = 1e-3

SELF_ADJOINT = "self-adjoint"
DISSIPATIVE = "dissipative-nonselfadjoint"


class Verdict:
    """Relative errors of the checked values, and the problems found."""

    def __init__(self):
        self.errors: list[float] = []
        self.problems: list[str] = []

    def close(self, what, value, ref, tol, scale=0.0):
        err = oracles.rel_err(value, ref, scale)
        self.errors.append(err)
        if not err <= tol:
            self.problems.append(
                f"{what}: {value!r} vs {ref!r}, error {err:.3g} > {tol:g}")

    def require(self, condition, what):
        if not condition:
            self.problems.append(what)


@dataclass
class Job:
    argv: list
    check: Callable[[dict, Verdict], None]
    known_fault: bool = False   # fails its check until a named fault is mended


def _num(x: float) -> str:
    return repr(float(x))


def _nums(xs) -> str:
    return ",".join(_num(x) for x in xs)


def _cplx(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


def _point(entry) -> complex:
    return complex(entry["re"], entry["im"])


# ---------------------------------------------------------------------------
# interval model
# ---------------------------------------------------------------------------

def _interval_jobs(length, ts, v0) -> list[Job]:
    ref = oracles.interval_fixed_point(length)
    model = ["--model=interval", f"--l={_num(length)}"]

    def fixed_points(p, v):
        rows = p["results"]["rows"]
        v.require(len(rows) == len(ts), f"{len(rows)} rows for {len(ts)} t values")
        for row in rows:
            v.require(row["kind"] == DISSIPATIVE, f"kind {row['kind']}")
            v.close("fixed point", _point(row), ref, INTERVAL_TOL, 1.0)

    def invariance(p, v):
        res = p["results"]
        v.require(res["verdict"] == "UniqueDissipative", f"verdict {res['verdict']}")
        v.require(len(res["fixed_points"]) == 1, "one invariant extension")
        for fp in res["fixed_points"]:
            v.require(fp["kind"] == DISSIPATIVE, f"kind {fp['kind']}")
            v.close("invariant point", _point(fp), ref, INTERVAL_TOL, 1.0)
        v.require(set(res["flow_class"].values()) == {"elliptic"},
                  f"classes {res['flow_class']}")

    orbit_ts = list(ts[:2]) + [oracles.interval_period(length)]

    def orbit(p, v):
        rows = p["results"]["rows"]
        v.require(len(rows) == len(orbit_ts), "one row per t")
        for row, t in zip(rows, orbit_ts):
            v.close(f"orbit at t={t:g}", complex(row["re"], row["im"]),
                    oracles.interval_orbit(length, v0, t), INTERVAL_TOL, 1.0)

    def period(p, v):
        found = p["results"]["period"]
        v.require(found is not None, "no period found")
        if found is not None:
            v.close("period", found, oracles.interval_period(length), INTERVAL_TOL)

    return [
        Job(["fixed-points", *model, f"--t={_nums(ts)}"], fixed_points),
        Job(["invariance", *model], invariance),
        Job(["flow-orbit", *model, f"--v0={_cplx(v0)}", f"--t={_nums(orbit_ts)}"], orbit),
        Job(["period", *model], period),
    ]


# ---------------------------------------------------------------------------
# inverse-square model
# ---------------------------------------------------------------------------

def _expected_points(gamma):
    """Closed-form boundary fixed points for gamma >= -1/4; None below."""
    if gamma < -0.25:
        return None
    v_f, v_k = oracles.friedrichs_krein(gamma)
    return [v_f] if gamma == -0.25 else [v_f, v_k]


def _check_points(points, gamma, v: Verdict, what):
    """Fixed points of one flow element, or the invariant ones, per regime."""
    expected = _expected_points(gamma)
    if expected is None:
        v.require(len(points) == 1, f"{what}: {len(points)} points, want one interior")
        for z, kind in points:
            v.require(kind == DISSIPATIVE and abs(z) < 1 - MODEL_TOL,
                      f"{what}: {kind} point {z!r} is not interior")
        return
    v.require(len(points) == len(expected),
              f"{what}: {len(points)} points, want {len(expected)}")
    for z, kind in points:
        v.require(kind == SELF_ADJOINT, f"{what}: kind {kind}")
        v.require(abs(abs(z) - 1) <= MODEL_TOL, f"{what}: |v| = {abs(z)!r}")
        nearest = min(expected, key=lambda e: abs(z - e))
        v.close(f"{what} vs closed form", z, nearest, IDENT_TOL, 1.0)
    if len(expected) == 2 and len(points) == 2:
        v.require(abs(points[0][0] - points[1][0]) > 2 * IDENT_TOL,
                  f"{what}: the two points coincide")


def _fixed_points_job(gamma, ts, shared=None) -> Job:
    def check(p, v):
        by_t = {}
        for row in p["results"]["rows"]:
            v.require(row["re"] is not None, f"kind {row['kind']} at t={row['t']}")
            if row["re"] is not None:
                by_t.setdefault(row["t"], []).append((_point(row), row["kind"]))
        v.require(sorted(by_t) == sorted(ts), "one set of points per t")
        for t, points in by_t.items():
            _check_points(points, gamma, v, f"gamma={gamma:g} t={t:g}")
        if gamma < -0.25 and shared is not None and by_t:
            shared["centre"] = by_t[min(by_t)][0][0]
            for points in by_t.values():
                v.require(abs(points[0][0] - shared["centre"]) <= MODEL_TOL,
                          "interior point differs between t values")

    return Job(["fixed-points", "--model=inverse-square", f"--gamma={_num(gamma)}",
                f"--t={_nums(ts)}"], check)


def _invariance_job(gamma) -> Job:
    if gamma < -0.25:
        verdict, classes = "UniqueDissipative", {"elliptic"}
    elif gamma == -0.25:
        verdict, classes = "TwoSelfAdjoint", {"parabolic"}
    else:
        verdict, classes = "TwoSelfAdjoint", {"hyperbolic"}

    def check(p, v):
        res = p["results"]
        v.require(res["verdict"] == verdict, f"verdict {res['verdict']}, want {verdict}")
        v.require(set(res["flow_class"].values()) == classes,
                  f"classes {res['flow_class']}, want {classes}")
        points = [(_point(fp), fp["kind"]) for fp in res["fixed_points"]]
        _check_points(points, gamma, v, f"invariant gamma={gamma:g}")

    return Job(["invariance", "--model=inverse-square", f"--gamma={_num(gamma)}"], check)


def _hyperbolic_orbit_job(gamma, v0, ts) -> Job:
    """At gamma = 0 the closed-form points are exact in the program's gauge,
    so the orbit must run along the hypercycle through v_F and v_K: the
    cross-ratio coordinate (v - v_F)/(v - v_K) is scaled by a positive real."""
    v_f, v_k = oracles.friedrichs_krein(gamma)
    w0 = (v0 - v_f) / (v0 - v_k)

    def check(p, v):
        rows = p["results"]["rows"]
        v.require(len(rows) == len(ts), "one row per t")
        for row in rows:
            z = complex(row["re"], row["im"])
            v.require(abs(z) < 1.0, f"orbit left the open disk: {z!r}")
            ratio = ((z - v_f) / (z - v_k)) / w0
            v.close(f"hypercycle angle at t={row['t']:g}", cmath.phase(ratio), 0.0,
                    MODEL_TOL, 1.0)

    return Job(["flow-orbit", "--model=inverse-square", f"--gamma={_num(gamma)}",
                f"--v0={_cplx(v0)}", f"--t={_nums(ts)}"], check)


def _elliptic_orbit_job(gamma, v0, ts, shared) -> Job:
    """Below -1/4 the orbit turns by the multiplier angle nu*t about the
    interior fixed point reported by the fixed-points job of the same
    round, and is back at v0 at T = 2*pi/nu."""
    orbit_ts = list(ts) + [oracles.return_time(gamma)]

    def check(p, v):
        rows = p["results"]["rows"]
        v.require(len(rows) == len(orbit_ts), "one row per t")
        centre = shared.get("centre")
        v.require(centre is not None, "no interior fixed point to turn about")
        for row, t in zip(rows, orbit_ts):
            z = complex(row["re"], row["im"])
            if centre is not None:
                want = oracles.rotate_about(centre, v0, oracles.multiplier_angle(gamma, t))
                v.close(f"orbit at t={t:g}", z, want, MODEL_TOL, 1.0)
        v.close("return at 2pi/nu", complex(rows[-1]["re"], rows[-1]["im"]), v0,
                MODEL_TOL, 1.0)

    return Job(["flow-orbit", "--model=inverse-square", f"--gamma={_num(gamma)}",
                f"--v0={_cplx(v0)}", f"--t={_nums(orbit_ts)}"], check)


def _fk_params_job(gamma) -> Job:
    v_f, v_k = oracles.friedrichs_krein(gamma)
    mu = math.sqrt(gamma + 0.25)

    def check(p, v):
        res = p["results"]
        v.close("v_friedrichs", _point(res["v_friedrichs"]), v_f, MODEL_TOL, 1.0)
        v.close("v_krein", _point(res["v_krein"]), v_k, MODEL_TOL, 1.0)
        for got, want in zip(res["exponents"], (0.5 + mu, 0.5 - mu)):
            v.close("exponent", got, want, 1e-12, 1.0)

    # The gauge of the decaying solution is fixed from two-term asymptotic
    # data at x = 40; the missing third term turns it by 2*gamma*(gamma-2)
    # / (8*40^2) rad, which exceeds the model tolerance once |gamma| > 4e-3.
    return Job(["fk-params", f"--gamma={_num(gamma)}"], check, known_fault=gamma != 0.0)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _disk_point(rng, r_lo=0.1, r_hi=0.8) -> complex:
    return cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(0.0, 2 * math.pi))


class FlowSweep:
    """Flow elements, fixed points, verdicts, orbits and periods on warm
    models: one interval length per stratum, one coupling per regime."""

    name = "flow-sweep"
    # gamma = 0, a semibounded gamma != 0, gamma = -1/4, a gamma < -1/4.
    # Fixed, not seeded: the fk-params jobs at 0.2 and -0.25 fail on the
    # gauge fault and must fail the same way in every run.
    GAMMAS = (0.0, 0.2, -0.25, -2.0)
    kernel_shares = INTERPRETER_SHARES
    warm_gammas = GAMMAS

    def __init__(self, seed: int):
        rng = random.Random(seed)
        jobs = []
        for lo, hi in ((0.5, 1.0), (1.2, 2.0)):
            length = rng.uniform(lo, hi)
            ts = sorted(rng.uniform(0.2, 2.5) for _ in range(3))
            jobs += _interval_jobs(length, ts, _disk_point(rng))
        shared: dict = {}
        for gamma in self.GAMMAS:
            ts = sorted(rng.uniform(0.3, 2.0) for _ in range(2))
            jobs.append(_fixed_points_job(gamma, ts, shared))
            jobs.append(_invariance_job(gamma))
            if gamma == 0.0:
                jobs.append(_hyperbolic_orbit_job(gamma, _disk_point(rng), ts))
            elif gamma < -0.25:
                jobs.append(_elliptic_orbit_job(gamma, _disk_point(rng), ts, shared))
            if gamma >= -0.25:
                jobs.append(_fk_params_job(gamma))
        self.jobs = jobs

    def round_jobs(self, r: int) -> list[Job]:
        return self.jobs


class CouplingScan:
    """One fresh coupling per stratum and round, so every job misses the
    model cache and builds an InverseSquareModel."""

    name = "coupling-scan"
    kernel_shares = INTERPRETER_SHARES
    warm_gammas = ()
    STRATA = ((-0.2, 0.05), (0.05, 0.3), (0.3, 0.5), (0.5, 0.7),
              (-1.0, -0.4), (-3.0, -1.0), (-10.0, -3.0), (-30.0, -10.0))

    def __init__(self, seed: int):
        self.seed = seed

    def round_jobs(self, r: int) -> list[Job]:
        rng = random.Random(f"coupling-scan:{self.seed}:{r}")
        jobs = []
        for lo, hi in self.STRATA:
            gamma = rng.uniform(lo, hi)
            if gamma < -0.25:
                # keep nu*t inside (0.3 pi, 1.6 pi): elliptic, never the identity
                t = min(5.5, rng.uniform(0.3, 1.6) * math.pi / oracles.nu_of(gamma))
            else:
                t = rng.uniform(0.3, 3.0)
            jobs.append(_fixed_points_job(gamma, [t]))
        return jobs


class FallToCenter:
    """Shooting at one seeded coupling below -1/4, with four boundary phases
    a quarter of the ladder period apart. The root brackets take between 30
    and 43 mismatch evaluations depending on the phase; spreading the phases
    over the period makes every seed do about the same work."""

    name = "fall-to-center"
    kernel_shares = INTERPRETER_SHARES
    warm_gammas = ()
    PHASES = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        gamma = rng.uniform(-2.5, -1.5)
        theta0 = rng.uniform(0.0, math.pi / self.PHASES)
        self.jobs = [self._shoot(gamma, theta0 + k * math.pi / self.PHASES)
                     for k in range(self.PHASES)]

    @staticmethod
    def _shoot(gamma, theta) -> Job:
        def check(p, v):
            res = p["results"]
            v.close("nu", res["nu"], oracles.nu_of(gamma), 1e-14)
            rows = res["rows"]
            v.require(len(rows) == 1, f"{len(rows)} eigenvalues, want 1")
            for row in rows:
                lam = row["re"]
                v.require(lam < 0 and row["im"] == 0, f"eigenvalue {lam!r}")
                if lam < 0:
                    _, rung = oracles.nearest_rung(gamma, theta, lam)
                    v.close("rung", lam, rung, ROOT_TOL)

        return Job(["shoot", f"--gamma={_num(gamma)}", f"--theta={_num(theta)}",
                    "--count=1"], check)

    def round_jobs(self, r: int) -> list[Job]:
        return self.jobs


class WeylGrid:
    """Dense grid operators from n = 128 to 1024: Weyl residuals off and on
    the grid, a refinement study and a nonequivalence certificate."""

    name = "weyl-grid"
    kernel_shares = DENSE_SHARES
    warm_gammas = ()
    SIZES = (128, 256, 512, 1024)

    # The on-grid residual is rounding noise, and the power iteration that
    # measures its norm runs for anywhere between a few and its cap of 1000
    # iterations depending on l and t (146 to 789 ms at n = 1024 for t from
    # 0.5 to 2). Fixed inputs make that job the same work in every run.
    ON_GRID_LENGTH, ON_GRID_T = 1.0, 1.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        length = rng.uniform(0.5, 2.0)
        ts = sorted(rng.uniform(0.3, 3.0) for _ in range(2))
        l1, l2 = rng.uniform(0.5, 1.0), rng.uniform(1.2, 2.0)
        sizes = ",".join(map(str, self.SIZES))
        refine_sizes = self.SIZES[:3]
        self.jobs = [
            Job(["weyl", f"--l={_num(length)}", f"--n={sizes}", f"--t={_num(ts[0])}",
                 "--jobs=1"],
                self._residual_check(length, self.SIZES, ts[:1], on_grid=False)),
            Job(["weyl", f"--l={_num(self.ON_GRID_LENGTH)}", f"--n={sizes}",
                 f"--t={_num(self.ON_GRID_T)}", "--on-grid", "--jobs=1"],
                self._residual_check(self.ON_GRID_LENGTH, self.SIZES, [self.ON_GRID_T],
                                     on_grid=True)),
            Job(["refine", f"--l={_num(length)}",
                 f"--n={','.join(map(str, refine_sizes))}", f"--t={_nums(ts)}", "--jobs=1"],
                self._refine_check(length, refine_sizes, ts)),
            Job(["certify-nonequivalence", f"--l={_num(l1)}", f"--l2={_num(l2)}",
                 "--n=512", "--jobs=1"], self._certify_check(l1, l2, 512)),
        ]

    @staticmethod
    def _grid(length, n, on_grid):
        h = length / n
        return h, (n // 3 + (0.0 if on_grid else 0.5)) * h

    @classmethod
    def _check_rows(cls, rows, length, sizes, ts, on_grid, v):
        v.require(len(rows) == len(sizes) * len(ts), f"{len(rows)} rows")
        variant = "on-grid" if on_grid else "off-grid"
        for row in rows:
            v.require(row["variant"] == variant, f"variant {row['variant']}")
            h, s = cls._grid(length, row["n"], on_grid)
            v.close("h", row["h"], h, 1e-15)
            v.close("s", row["s"], s, 1e-14)
            if on_grid:
                v.close("on-grid residual", row["residual"], 0.0, 1e-12, 1.0)
            else:
                v.close("off-grid residual", row["residual"],
                        oracles.weyl_residual(row["t"], s, h), NORM_TOL)

    @classmethod
    def _residual_check(cls, length, sizes, ts, on_grid):
        def check(p, v):
            cls._check_rows(p["results"]["rows"], length, sizes, ts, on_grid, v)
        return check

    @classmethod
    def _refine_check(cls, length, sizes, ts):
        def check(p, v):
            res = p["results"]
            cls._check_rows(res["rows"], length, sizes, ts, False, v)
            worst = []
            for n in sizes:
                h, s = cls._grid(length, n, False)
                worst.append(max(oracles.weyl_residual(t, s, h) for t in ts))
            hs = [length / n for n in sizes]
            v.close("order", res["orders"]["off-grid"], oracles.fitted_order(hs, worst), 1e-6)
        return check

    @staticmethod
    def _certify_check(l1, l2, n):
        def check(p, v):
            res = p["results"]
            v.require(p["checks"]["certified"] is True, "not certified")
            for key, length in (("1", l1), ("2", l2)):
                h = length / n
                v.close(f"h{key}", res[f"h{key}"], h, 1e-15)
                v.close(f"nilpotency index {key}", res[f"sstar_{key}"], length, h / length)
        return check

    def round_jobs(self, r: int) -> list[Job]:
        return self.jobs


WORKLOADS = {w.name: w for w in (FlowSweep, CouplingScan, FallToCenter, WeylGrid)}


def warm(name: str):
    """Set-up of a workload: import the program and build the models the
    rounds reuse. Returns the cli module."""
    from extflow import cli, models
    for gamma in WORKLOADS[name].warm_gammas:
        models.inverse_square(gamma)
    return cli
