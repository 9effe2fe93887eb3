"""The acceptance battery: nine criteria run end to end with their stated
tolerances and runtime budgets. Each criterion returns a structured result;
the CLI `all` command and the acceptance test module share this code.

A criterion is declared once, as ``@_criterion(name, budget_s)`` over its
body: the body fills the checks (name to bool) and details dicts it is given
and returns its notes, if any. The decorator times it, assembles its
``CriterionResult`` and lists it in ``ALL_CRITERIA`` in definition order.

Criterion 7 note: the shooting ladder's consecutive ratio equals
exp(2 pi / nu) because the boundary phase angle is pi-periodic; the doubled
constant exp(4 pi / nu) (reported as kappa) is the square of that step and
maps the eigenvalue set into itself two rungs at a time. The checks here
assert the single-step constant for consecutive ratios, kappa for the
set-invariance, and their square relation; the companion test module keeps
a strict expected-failure for the doubled-constant-as-consecutive reading.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import flow, models, mobius, spectra, weylcheck
from .affine import IDENTITY, AffineMap, subgroup_eval
from .errors import ExtflowError
from .flow import DISSIPATIVE, Verdict


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    budget_s: float
    details: dict
    notes: list

    def line(self) -> str:
        note = f"  [{'; '.join(self.notes)}]" if self.notes else ""
        return (f"{'PASS' if self.passed else 'FAIL'} {self.name} "
                f"({self.runtime_s:.2f}s / budget {self.budget_s:.0f}s){note}")


ALL_CRITERIA = []    # every criterion, in definition order


def _criterion(name: str, budget_s: float):
    """Declare a criterion, as the module docstring says: it passes where
    every check holds and its body ran within budget_s seconds."""
    def declare(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            checks, details = {}, {}
            notes = body(checks, details) or []
            runtime = time.perf_counter() - start
            details["checks"] = checks
            return CriterionResult(name, all(checks.values()) and runtime <= budget_s,
                                   runtime, budget_s, details, notes)
        ALL_CRITERIA.append(criterion)
        return criterion
    return declare


@_criterion("criterion 1: flow identity and group law", 10.0)
def criterion_1_identity_and_group_law(checks, details):
    interval = models.IntervalModel(1.0)
    invsq = models.inverse_square(0.0)
    halfline = models.HalflineModel()
    for model in (interval, invsq, halfline):
        dist = mobius.distance_to_identity(flow.gamma_map(model, IDENTITY))
        checks[f"identity[{model.name}]"] = dist <= 1e-12
        details[f"identity_distance[{model.name}]"] = dist
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        f = AffineMap(1.0, rng.uniform(-4, 4))
        g = AffineMap(1.0, rng.uniform(-4, 4))
        worst = max(worst, flow.check_group_law(interval, f, g))
    # measured 2.0e-15 here, and 2.3e-15 on the inverse-square model below
    checks["group_law[interval] <= 1e-13"] = worst <= 1e-13
    details["group_law_interval"] = worst
    worst = 0.0
    for _ in range(50):
        t1, t2 = rng.uniform(-2.5, 2.5, 2)
        worst = max(worst, flow.check_group_law(
            invsq, subgroup_eval("scaling", t1), subgroup_eval("scaling", t2)))
    checks["group_law[inverse-square] <= 1e-13"] = worst <= 1e-13
    details["group_law_inverse_square"] = worst


@_criterion("criterion 2: interval invariant extension", 5.0)
def criterion_2_interval_invariant_extension(checks, details):
    for length in (0.5, 1.0, 2.0):
        model = models.IntervalModel(length)
        rep = flow.invariant_extensions(model, "translation")
        ok = rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        ok = ok and len(rep.fixed_points) == 1
        v, kind = rep.fixed_points[0]
        ok = ok and kind == DISSIPATIVE
        # measured at most 2.2e-16, over 101 lengths in [0.3, 3] and these three
        ok = ok and abs(v - math.exp(-length)) <= 1e-14
        checks[f"unique dissipative at e^-l [l={length}]"] = ok
        details[f"fixed_point[l={length}]"] = v


@_criterion("criterion 3: cyclic invariance period", 10.0)
def criterion_3_cyclic_period(checks, details):
    rng = np.random.default_rng(103)
    for length in (0.5, 1.0, 2.0):
        model = models.IntervalModel(length)
        expect = 2 * math.pi / length
        period = flow.period_detect(model, "translation", t_max=1.4 * expect)
        # both sides are closed forms, and they measured equal over 774
        # lengths in [0.01, 300]: a few ulps of 2pi/l
        ok = period is not None and abs(period - expect) <= 4 * math.ulp(expect)
        details[f"period[l={length}]"] = period
        if ok:
            g = AffineMap(1.0, period)
            worst = 0.0
            for _ in range(100):
                v = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                worst = max(worst, abs(flow.gamma_apply(model, g, v) - v))
            # measured <= 7.9e-16 here, and <= 6.4e-15 over 123 lengths in
            # [0.3, 3] with 500 starts each
            ok = worst <= 1e-13
            details[f"orbit_residual[l={length}]"] = worst
        checks[f"period 2pi/l [l={length}]"] = ok


@_criterion("criterion 4: interval spectra", 1.0)
def criterion_4_interval_spectra(checks, details):
    for length in (0.5, 1.0, 2.0):
        eig = spectra.interval_sa_spectrum(length, 0.7, (-40.0, 40.0))
        gaps = np.diff([v.real for v in eig.values])
        checks[f"sa spacing [l={length}]"] = bool(
            np.allclose(gaps, 2 * math.pi / length, rtol=0, atol=1e-12))
    diss = spectra.interval_dissipative_lattice(1.0, math.exp(-1), (-25.0, 25.0))
    heights = [v.imag for v in diss.values]
    gaps = np.diff([v.real for v in diss.values])
    checks["dissipative height 1"] = all(abs(h - 1.0) <= 1e-12 for h in heights)
    checks["dissipative spacing 2pi"] = bool(
        np.allclose(gaps, 2 * math.pi, rtol=0, atol=1e-12))
    empty = spectra.interval_dissipative_lattice(1.0, 0.0, (-25.0, 25.0))
    checks["nilpotent case empty"] = len(empty) == 0
    details["dissipative_count"] = len(diss)


@_criterion("criterion 5: restricted relations on the grid", 60.0)
def criterion_5_weyl_grid(checks, details):
    rng = np.random.default_rng(105)
    rows = []
    for n in (128, 256, 512):
        # fifty group parameters of its own for each grid size
        rows += weylcheck.residual_rows(1.0, [n], rng.uniform(-10, 10, 50), on_grid=True)
        # V_l = 0 and V_{l-h} != 0: the nilpotency index is n h = l exactly
        grid = weylcheck.build_interval_grid(1.0, n)
        norms = [weylcheck.operator_norm(weylcheck.semigroup(grid, s))
                 for s in (1.0, 1.0 - grid.h)]
        checks[f"nilpotent at l [n={n}]"] = norms == [0.0, 1.0]
    worst_on, tol = max(row["residual"] for row in rows), weylcheck.ON_GRID_TOL
    checks[f"on-grid residual <= {tol:g}"] = worst_on <= tol
    details["worst_on_grid_residual"] = worst_on
    _, order = weylcheck.refine(1.0, [128, 256, 512, 1024], [1.0, 2.5], on_grid=False)
    checks[f"off-grid order >= {weylcheck.ORDER_MIN:g}"] = order >= weylcheck.ORDER_MIN
    details["off_grid_order"] = order
    cert = weylcheck.nonequivalence_certificate(1.0, 2.0)
    checks["nonequivalence certified"] = (
        cert.certified
        and abs(cert.sstar_1 - 1.0) <= cert.h1 + 1e-12
        and abs(cert.sstar_2 - 2.0) <= cert.h2 + 1e-12)
    details["nilpotency_indices"] = (cert.sstar_1, cert.sstar_2)


@_criterion("criterion 6: extremal extension fixed points", 60.0)
def criterion_6_friedrichs_krein_fixed_points(checks, details):
    for gamma in (0.0, 0.5):
        model = models.inverse_square(gamma)
        rep = flow.invariant_extensions(model, "scaling")
        v_f, v_k = model.friedrichs_krein()
        fps = [z for z, kind in rep.fixed_points]
        ok = rep.group_verdict is Verdict.TWO_SELF_ADJOINT and len(fps) == 2
        if ok:
            match = max(min(abs(z - v_f), abs(z - v_k)) for z in fps)
            ok = match <= 1e-12
            details[f"match[gamma={gamma}]"] = match
        if gamma == 0.0 and ok:
            ok = (min(abs(z - 1.0) for z in fps) <= 1e-12
                  and min(abs(z + 1j) for z in fps) <= 1e-12)
        checks[f"two boundary fixed points [gamma={gamma}]"] = ok
    # parabolic: the trace +-2 within the bound each sampled trace is held to
    m = flow.gamma_map(models.inverse_square(-0.25), subgroup_eval("scaling", 1.0))
    fps = mobius.fixed_points(m)
    ok = min(abs(m.a + m.d - 2), abs(m.a + m.d + 2)) <= flow.TRACE_TOL
    ok = ok and fps is not flow.ALL_POINTS and len(fps) == 1 and abs(abs(fps[0]) - 1) <= 1e-12
    checks["parabolic at gamma=-1/4"] = ok
    details["parabolic_fixed_points"] = fps


@_criterion("criterion 7: fall-to-center spectrum", 60.0)
def criterion_7_fall_to_center(checks, details):
    nu = math.sqrt(24.75)
    step = math.exp(2 * math.pi / nu)
    kappa = math.exp(4 * math.pi / nu)
    eig = spectra.shoot_negative_eigenvalues(-25.0, 0.7, 4)
    values = sorted(v.real for v in eig.values)
    checks["at least 3 eigenvalues"] = len(values) >= 3
    ratios = [values[i] / values[i + 1] for i in range(len(values) - 1)]
    details["eigenvalues"] = values
    details["consecutive_ratios"] = ratios
    tol = spectra.RATIO_TOL
    checks[f"consecutive ratios match exp(2pi/nu) within {tol:g} relative"] = all(
        abs(r - step) <= tol * step for r in ratios)
    checks[f"ratio^2 matches kappa within {tol:g} relative"] = all(
        abs(r * r - kappa) <= tol * kappa for r in ratios)
    mapped_ok = True
    for lam in values:
        target = kappa * lam
        if target < values[0] * (1 + 0.05):
            continue    # image falls below the retrieved window
        if not any(abs(target - w) <= tol * abs(w) for w in values):
            mapped_ok = False
    checks[f"set maps into itself under kappa within {tol:g} relative"] = mapped_ok
    literal = all(abs(r - kappa) <= 0.05 * kappa for r in ratios)
    details["literal_consecutive_matches_kappa"] = literal
    return ["consecutive ratio is exp(2pi/nu) = sqrt(kappa): the boundary phase "
            "angle is pi-periodic; kappa governs next-nearest neighbors"]


@_criterion("criterion 8: generator invariance", 30.0)
def criterion_8_generator_invariance(checks, details):
    halfline = models.HalflineModel()
    for model, group, label, ts in (
            (models.IntervalModel(1.0), "translation", "interval residual", (0.4, 1.2)),
            (models.inverse_square(0.0), "scaling", "inverse-square scaling", (0.5, -0.7)),
            (halfline, "scaling", "halfline scaling", (0.5, -0.7))):
        for t in ts:
            chk = weylcheck.generator_invariance_residual(model, group, t)
            checks[f"{label} [t={t}]"] = chk.passes(group, t)
            details[f"{label} [t={t}]"] = {"residual": chk.residual, "scale": chk.scale,
                                           "phase_factor": chk.phase_factor}
    phase = weylcheck.measure_commutation_phase(halfline, "scaling", 0.7, 0.5)
    # 1 exactly here, and within two rounding units of 1 over t in [-3.2, 5]
    # and s in [0.05, 2]
    checks["semigroup-level scaling phase = 1"] = abs(phase["phase"] - 1.0) <= 2e-15
    details["semigroup_phase"] = phase["phase"]
    details["semigroup_scale_exponent"] = phase["scale_exponent"]
    return ["measured scaling-relation phase is 1 (no e^{i s e^t} factor) "
            "and the semigroup time rescales by e^{-t} for the printed "
            "one-parameter families"]


# how far below 0 a Gram matrix's least eigenvalue may read: at g = identity,
# where it is 0 up to rounding, it reads -4.0e-16 on the interval at l = 1 and
# at worst -9.0e-16 over 271 lengths in [0.3, 3] and -1.1e-15 over 271
# couplings in [-2, 0.7]; the criterion's own draws give +9.2e-11
GRAM_TOL = 1e-13


@_criterion("criterion 9: property suites", 60.0)
def criterion_9_property_suites(checks, details):
    rng = np.random.default_rng(109)
    interval = models.IntervalModel(1.0)
    invsq = models.inverse_square(0.0)

    worst = 0.0
    for _ in range(700):
        t = rng.uniform(-6, 6)
        v = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(flow.gamma_apply(interval, AffineMap(1.0, t), v)))
    for _ in range(300):
        t = rng.uniform(-5, 5)
        v = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(flow.gamma_apply(
            invsq, subgroup_eval("scaling", t), v)))
    checks["contraction preserved (1000 samples)"] = worst <= 1.0 + flow.BALL_TOL
    details["worst_modulus"] = worst

    worst_circle = 0.0
    for model, par in ((interval, lambda r: AffineMap(1.0, r.uniform(-6, 6))),
                       (invsq, lambda r: subgroup_eval("scaling", r.uniform(-5, 5)))):
        for _ in range(100):
            v = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            out = flow.gamma_apply(model, par(rng), v)
            worst_circle = max(worst_circle, abs(abs(out) - 1.0))
    # measured <= 6.7e-16 here, and <= 4.7e-15 over 200 seeds of 25 draws on
    # the lengths 0.5, 1, 2 and six couplings in [-2, 0.7]
    checks["circle preserved for (1,1)"] = worst_circle <= 1e-13
    details["worst_circle_deviation"] = worst_circle

    counterexamples = 0
    trials = 0
    while trials < 1000:
        if trials % 2 == 0:
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
            if abs(b) >= abs(a) - 0.1:
                continue
            s = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            try:
                m = mobius.from_coefficients(a, b, s * b.conjugate(),
                                             s * a.conjugate())
            except ExtflowError:
                continue
            if not mobius.is_disk_self_map(m):
                continue
        else:
            length = rng.uniform(0.3, 3.0)
            t = rng.uniform(-8, 8)
            m = flow.gamma_map(models.IntervalModel(length), AffineMap(1.0, t))
        trials += 1
        if mobius.distance_to_identity(m) <= flow.ID_TOL:
            continue
        fps = mobius.fixed_points(m)
        if fps is flow.ALL_POINTS:
            continue
        in_disk = flow.in_ball(fps)     # interior: beyond SA_TOL inside the circle
        if len(fps) > 2 or (len(in_disk) >= 2 and DISSIPATIVE in [k for _, k in in_disk]):
            counterexamples += 1
    checks["trichotomy: zero counterexamples in 1000 trials"] = counterexamples == 0
    details["counterexamples"] = counterexamples

    def gram(model, g):
        cross = model.overlap_matrix(IDENTITY)[2]
        cpp, cpm, cmp, cmm = model.overlap_matrix(g)
        m = np.array([
            [1.0, cross, cpp, cmp],
            [np.conj(cross), 1.0, cpm, cmm],
            [np.conj(cpp), np.conj(cpm), 1.0, cross],
            [np.conj(cmp), np.conj(cmm), np.conj(cross), 1.0],
        ], dtype=complex)
        return 0.5 * (m + m.conj().T)

    grams = [gram(interval, AffineMap(1.0, rng.uniform(-8, 8))) for _ in range(300)]
    grams += [gram(invsq, subgroup_eval("scaling", rng.uniform(-5.5, 5.5)))
              for _ in range(150)]
    # one call on the stacked matrices, each decomposed as on its own
    min_eig = float(np.linalg.eigvalsh(np.array(grams)).min())
    checks[f"gram positivity within {GRAM_TOL:g}"] = min_eig > -GRAM_TOL
    details["min_gram_eigenvalue"] = min_eig



def run_all(echo) -> list[CriterionResult]:
    """Run every criterion, echoing one pass/fail line each."""
    results = []
    total = time.perf_counter()
    for criterion in ALL_CRITERIA:
        results.append(criterion())
        echo(results[-1].line())
    echo(f"total runtime {time.perf_counter() - total:.1f}s "
         f"({sum(1 for r in results if r.passed)}/{len(results)} passed)")
    return results
