"""Acceptance battery: every criterion at its stated tolerance, one
pass/fail line per criterion on stdout (run pytest with -s to see them).

The fall-to-center criterion carries one strict expected failure: the
doubled ladder constant kappa = exp(4 pi / nu) printed as the consecutive
eigenvalue ratio. The boundary phase angle is pi-periodic, so consecutive
rungs differ by exp(2 pi / nu) = sqrt(kappa); kappa relates next-nearest
rungs and the set-invariance check. The resolved assertions pass; the
literal reading is kept below as an xfail so the discrepancy stays visible.
"""

import json
import math

import numpy as np
import pytest

from extflow import acceptance, cli, flow, mobius, models, spectra, weylcheck
from extflow.affine import ALL_POINTS, subgroup_eval
from extflow.errors import InvalidArgument


def _run(criterion):
    result = criterion()
    print(result.line())
    for name, ok in result.details["checks"].items():
        print(f"    {'ok  ' if ok else 'FAIL'} {name}")
    assert result.passed, result.details
    return result


class TestAcceptance:
    def test_criterion_1_flow_identity_and_group_law(self):
        _run(acceptance.criterion_1_identity_and_group_law)

    def test_criterion_1_fails_a_group_law_off_by_1e_12(self, monkeypatch):
        # the bound is 1e-13, against 2.3e-15 measured: a group law 1e-12 off
        # (within the former bound of 1e-9) fails both checks
        real = flow.check_group_law
        monkeypatch.setattr(flow, "check_group_law", lambda *args: real(*args) + 1e-12)
        result = acceptance.criterion_1_identity_and_group_law()
        assert not result.passed
        assert [name for name, ok in result.details["checks"].items() if not ok] == [
            "group_law[interval] <= 1e-13", "group_law[inverse-square] <= 1e-13"]

    def test_criterion_2_interval_invariant_extension(self):
        result = _run(acceptance.criterion_2_interval_invariant_extension)
        assert result.details["fixed_point[l=1.0]"] == pytest.approx(
            math.exp(-1.0), abs=1e-8)

    def test_criterion_2_fails_a_fixed_point_off_by_1e_12(self, monkeypatch):
        # the bound is 1e-14, against 2.2e-16 measured: a fixed point scaled
        # by 1 + 1e-12 (within the former bound of 1e-8) fails the criterion
        real = flow.invariant_extensions

        def scaled(model, group):
            rep = real(model, group)
            rep.fixed_points = [(v * (1 + 1e-12), kind) for v, kind in rep.fixed_points]
            return rep

        monkeypatch.setattr(flow, "invariant_extensions", scaled)
        result = acceptance.criterion_2_interval_invariant_extension()
        assert not result.passed
        assert not any(result.details["checks"].values())

    def test_criterion_3_cyclic_period(self):
        result = _run(acceptance.criterion_3_cyclic_period)
        assert result.details["period[l=1.0]"] == pytest.approx(
            2 * math.pi, abs=1e-6)

    def test_criterion_3_refuses_a_period_off_by_1e_9_relative(self, monkeypatch):
        # the bound is 4 ulps of 2pi/l, against 0 measured: a period 1e-9
        # relative off (within the former bound of 1e-6) fails the period
        # check itself, before the orbit residual at that period is taken
        real = flow.period_detect
        monkeypatch.setattr(flow, "period_detect",
                            lambda *args, **kwargs: real(*args, **kwargs) * (1 + 1e-9))
        result = acceptance.criterion_3_cyclic_period()
        assert not result.passed
        for length in (0.5, 1.0, 2.0):
            assert abs(result.details[f"period[l={length}]"] - 2 * math.pi / length) <= 1e-6
            assert result.details["checks"][f"period 2pi/l [l={length}]"] is False
            assert f"orbit_residual[l={length}]" not in result.details

    def test_criterion_4_interval_spectra(self):
        _run(acceptance.criterion_4_interval_spectra)

    def test_criterion_5_weyl_grid(self):
        _run(acceptance.criterion_5_weyl_grid)

    def test_criterion_5_fails_a_semigroup_that_leaves_1e_12(self, monkeypatch):
        # V_l is the zero operator exactly: a residue of 1e-12 below the
        # shift (within the former bound of 1e-9) fails each nilpotency check
        real = weylcheck.semigroup

        def residue(grid, s):
            op = real(grid, s)
            op.diag[:op.shift] = 1e-12
            return op

        monkeypatch.setattr(weylcheck, "semigroup", residue)
        result = acceptance.criterion_5_weyl_grid()
        assert not result.passed
        assert [name for name, ok in result.details["checks"].items() if not ok] == [
            f"nilpotent at l [n={n}]" for n in (128, 256, 512)]

    def test_criterion_5_fails_a_semigroup_that_vanishes_a_step_early(self, monkeypatch):
        # V_{l-h} = 0 makes the nilpotency index (n - 1) h, short of l: the
        # check wants V_l = 0 and V_{l-h} != 0, where V_l = 0 alone passed it
        real = weylcheck.semigroup
        monkeypatch.setattr(weylcheck, "semigroup", lambda grid, s: real(grid, s + grid.h))
        result = acceptance.criterion_5_weyl_grid()
        assert not result.passed
        assert [name for name, ok in result.details["checks"].items() if not ok] == [
            f"nilpotent at l [n={n}]" for n in (128, 256, 512)]

    def test_criterion_6_friedrichs_krein_fixed_points(self):
        _run(acceptance.criterion_6_friedrichs_krein_fixed_points)

    def test_criterion_6_fails_a_coupling_1e_10_above_the_critical(self, monkeypatch):
        # there the trace at t = 1 is 2.5e-11 from 2, beyond flow.TRACE_TOL,
        # and the element has two fixed points, although mobius.classify,
        # which tests the discriminant against 1e-9, calls it parabolic
        real = models.inverse_square
        monkeypatch.setattr(models, "inverse_square",
                            lambda gamma: real(gamma + 1e-10 if gamma == -0.25 else gamma))
        result = acceptance.criterion_6_friedrichs_krein_fixed_points()
        assert not result.passed
        assert [name for name, ok in result.details["checks"].items() if not ok] == [
            "parabolic at gamma=-1/4"]
        m = flow.gamma_map(models.inverse_square(-0.25), subgroup_eval("scaling", 1.0))
        assert mobius.classify(m).tag is mobius.MapTag.PARABOLIC

    def test_criterion_7_fall_to_center(self):
        result = _run(acceptance.criterion_7_fall_to_center)
        # the doubled constant appears as the square of the measured step
        ratios = result.details["consecutive_ratios"]
        kappa = math.exp(4 * math.pi / math.sqrt(24.75))
        assert all(abs(r * r - kappa) <= 0.05 * kappa for r in ratios)

    def test_criterion_7_fails_a_ladder_off_by_one_percent(self, monkeypatch):
        # the ratio bound is spectra.RATIO_TOL = 2e-13, against 1.5e-14
        # measured: consecutive ratios 1% off exp(2pi/nu) (within the former
        # bound of 5%) fail all three ratio checks
        full = spectra._ladder
        monkeypatch.setattr(spectra, "_ladder", lambda nu, phase, count: [
            lam * 1.01 ** n for n, lam in enumerate(full(nu, phase, count))])
        result = acceptance.criterion_7_fall_to_center()
        assert not result.passed
        assert result.details["checks"] == {
            "at least 3 eigenvalues": True,
            "consecutive ratios match exp(2pi/nu) within 2e-13 relative": False,
            "ratio^2 matches kappa within 2e-13 relative": False,
            "set maps into itself under kappa within 2e-13 relative": False,
        }

    def test_criterion_8_generator_invariance(self):
        _run(acceptance.criterion_8_generator_invariance)

    def test_criterion_9_property_suites(self):
        _run(acceptance.criterion_9_property_suites)

    def test_criterion_9_counts_a_boundary_point_1e_7_inside(self, monkeypatch):
        # interior means more than flow.SA_TOL = 1e-9 inside the circle: fixed
        # points moved 1e-7 inward make each trial with two boundary points a
        # counterexample, which the former interior bound of 1e-6 let pass
        real = mobius.fixed_points

        def inward(m):
            fps = real(m)
            return fps if fps is ALL_POINTS else [z * (1 - 1e-7) for z in fps]

        monkeypatch.setattr(mobius, "fixed_points", inward)
        name = "trichotomy: zero counterexamples in 1000 trials"
        for tol, ok in ((1e-6, True), (flow.SA_TOL, False)):
            monkeypatch.setattr(flow, "SA_TOL", tol)
            assert acceptance.criterion_9_property_suites().details["checks"][name] is ok

    def test_criterion_9_fails_a_gram_eigenvalue_1e_9_below_zero(self, monkeypatch):
        # the bound is acceptance.GRAM_TOL = 1e-13, against a rounding floor
        # of 1.1e-15: eigenvalues lowered by 1e-9, to a least one of -9.1e-10
        # (within the former bound of 1e-8), fail the check, named after it
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real(m) - 1e-9)
        for tol, passed in ((1e-8, True), (acceptance.GRAM_TOL, False)):
            monkeypatch.setattr(acceptance, "GRAM_TOL", tol)
            result = acceptance.criterion_9_property_suites()
            assert -1e-8 < result.details["min_gram_eigenvalue"] < -1e-13
            assert [name for name, ok in result.details["checks"].items() if not ok] == (
                [] if passed else [f"gram positivity within {tol:g}"])


def _checks(capsys, *argv):
    """The checks of one command run in process."""
    cli.main(list(argv))
    return json.loads(capsys.readouterr().out)["checks"]


class TestSharedBounds:
    """Where a command and a criterion make the same check, both read one
    owner: patching it moves the verdict of both, and the name where that
    states the bound."""

    def test_on_grid_residual(self, monkeypatch, capsys):
        real = weylcheck.weyl_residual
        monkeypatch.setattr(weylcheck, "weyl_residual", lambda *args: real(*args) + 5e-12)
        for tol, ok in ((1e-12, False), (1e-11, True)):
            monkeypatch.setattr(weylcheck, "ON_GRID_TOL", tol)
            name = f"on-grid residual <= {tol:g}"
            assert _checks(capsys, "weyl", "--on-grid") == {name: ok}
            assert acceptance.criterion_5_weyl_grid().details["checks"][name] is ok

    def test_refinement_order(self, monkeypatch, capsys):
        for least, ok in ((0.9, True), (1.5, False)):
            monkeypatch.setattr(weylcheck, "ORDER_MIN", least)
            assert _checks(capsys, "refine", "--n", "128,256,512", "--t", "1,2.5") == {
                f"convergence order >= {least:g}": ok}
            checks = acceptance.criterion_5_weyl_grid().details["checks"]
            assert checks[f"off-grid order >= {least:g}"] is ok

    def test_closed_ball_margin(self, monkeypatch, capsys):
        # every image pushed out to modulus 1 + 1e-9, and a start there
        real = mobius.apply
        monkeypatch.setattr(mobius, "apply",
                            lambda m, z: real(m, z) / abs(real(m, z)) * (1 + 1e-9))
        interval = models.IntervalModel(1.0)
        for tol, ok in ((1e-10, False), (1e-8, True)):
            monkeypatch.setattr(flow, "BALL_TOL", tol)
            assert _checks(capsys, "flow-orbit", "--model", "interval", "--v0", "1",
                           "--t", "0.5,2") == {"contraction": ok}
            checks = acceptance.criterion_9_property_suites().details["checks"]
            assert checks["contraction preserved (1000 samples)"] is ok
            if ok:
                flow.orbit(interval, "translation", 1 + 1e-9, [0.5])
            else:
                with pytest.raises(InvalidArgument, match="exceeds the closed ball"):
                    flow.orbit(interval, "translation", 1 + 1e-9, [0.5])

    def test_generator_verdict(self, monkeypatch, capsys):
        # one predicate, GeneratorCheck.passes: a refused scaling fit fails
        # the scaling checks of both and no translation check
        monkeypatch.setattr(weylcheck.GeneratorCheck, "fits_scaling", lambda self, t: False)
        assert _checks(capsys, "generator-check", "--model", "interval") == {"t=1": True}
        assert _checks(capsys, "generator-check", "--model", "inverse-square") == {"t=1": False}
        checks = acceptance.criterion_8_generator_invariance().details["checks"]
        assert [name for name, ok in checks.items() if not ok] == [
            f"{label} scaling [t={t}]" for label in ("inverse-square", "halfline")
            for t in (0.5, -0.7)]
        monkeypatch.undo()
        monkeypatch.setattr(weylcheck, "GENERATOR_TOL", -1.0)
        assert _checks(capsys, "generator-check", "--model", "interval") == {"t=1": False}
        checks = acceptance.criterion_8_generator_invariance().details["checks"]
        assert [name for name, ok in checks.items() if ok] == ["semigroup-level scaling phase = 1"]


@pytest.mark.xfail(
    strict=True,
    reason="doubled-constant reading: consecutive rungs differ by "
           "exp(2 pi/nu), not kappa = exp(4 pi/nu); the boundary phase "
           "angle is pi-periodic (see README, fall-to-center notes)")
def test_criterion_7_literal_doubled_constant_as_consecutive_ratio():
    eig = spectra.shoot_negative_eigenvalues(-25.0, 0.7, 4)
    values = sorted(v.real for v in eig.values)
    kappa = math.exp(4 * math.pi / math.sqrt(24.75))
    ratios = [values[i] / values[i + 1] for i in range(len(values) - 1)]
    assert all(abs(r - kappa) <= 0.05 * kappa for r in ratios)
