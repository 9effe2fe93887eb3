import cmath
import math

import numpy as np
import pytest

from extflow import flow, mobius, models
from extflow.affine import (
    ALL_POINTS,
    IDENTITY,
    AffineMap,
    Scaling,
    Translation,
    compose,
    subgroup_eval,
)
from extflow.errors import NumericalInconsistency, UnsupportedIndices
from extflow.flow import (
    DISSIPATIVE,
    SELF_ADJOINT,
    Verdict,
    check_group_law,
    fixed_points_flow,
    gamma_apply,
    gamma_map,
    invariant_extensions,
    period_detect,
    verify_semibounded_fixed,
)
from extflow.mobius import IDENTITY_MAP, MapTag, classify

SCALING = Scaling(math.e, 0.0)


@pytest.fixture(scope="module")
def interval():
    return models.interval_derivative(1.0)


@pytest.fixture(scope="module")
def invsq0():
    return models.inverse_square(0.0)


@pytest.fixture(scope="module")
def halfline():
    return models.halfline_derivative()


class TestIdentityLaw:
    def test_interval(self, interval):
        assert gamma_map(interval, IDENTITY).distance_to_identity() < 1e-12

    def test_inverse_square(self, invsq0):
        assert gamma_map(invsq0, IDENTITY).distance_to_identity() < 1e-12

    def test_halfline_trivial(self, halfline):
        fm = gamma_map(halfline, IDENTITY)
        assert fm.trivial and fm.distance_to_identity() < 1e-12

    def test_identity_fixes_parameter(self, interval):
        assert gamma_apply(interval, IDENTITY, 0.5j) == pytest.approx(0.5j)


class TestIntervalFlow:
    def test_unit_translation_is_elliptic_at_dirichlet_point(self, interval):
        fm = gamma_map(interval, AffineMap(1.0, 1.0))
        cls = classify(fm.mobius)
        assert cls.tag is MapTag.ELLIPTIC
        assert cls.fixed_points[0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_full_period_translation_is_identity(self, interval):
        fm = gamma_map(interval, AffineMap(1.0, 2 * math.pi))
        assert fm.distance_to_identity() < 1e-8

    def test_dirichlet_point_invariant_for_all_t(self, interval):
        v = math.exp(-1.0)
        for t in (0.25, 1.0, 3.7, -2.2):
            out = gamma_apply(interval, AffineMap(1.0, t), v)
            assert abs(out - v) < 1e-8

    def test_circle_preservation(self, interval):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = rng.uniform(-6, 6)
            v = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            out = gamma_apply(interval, AffineMap(1.0, t), v)
            assert abs(abs(out) - 1.0) < 1e-8

    def test_contraction_preservation(self, interval):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            t = rng.uniform(-6, 6)
            v = rng.uniform(0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(gamma_apply(interval, AffineMap(1.0, t), v)) <= 1.0 + 1e-10

    def test_group_law(self, interval):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = AffineMap(1.0, rng.uniform(-4, 4))
            g = AffineMap(1.0, rng.uniform(-4, 4))
            assert check_group_law(interval, f, g) < 1e-9

    def test_inverse_law(self, interval):
        g = AffineMap(1.0, 1.3)
        assert check_group_law(interval, AffineMap(1.0, -1.3), g) < 1e-9

    def test_continuity_of_trajectories(self, interval):
        v = 0.55 - 0.2j
        ts = np.arange(-5.0, 5.0, 1e-3)
        vals = [gamma_apply(interval, AffineMap(1.0, float(t)), v) for t in ts]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 1e-2


class TestInverseSquareFlow:
    def test_group_law_quadrature_accuracy(self, invsq0):
        rng = np.random.default_rng(7)
        for _ in range(8):
            t1, t2 = rng.uniform(-2.5, 2.5, 2)
            f = subgroup_eval(SCALING, t1)
            g = subgroup_eval(SCALING, t2)
            assert check_group_law(invsq0, f, g) < 1e-6

    def test_fixed_points_are_friedrichs_and_krein(self, invsq0):
        fps = fixed_points_flow(invsq0, subgroup_eval(SCALING, 1.0), sa_tol=1e-6)
        vals = sorted((z for z, kind in fps), key=lambda z: z.real)
        assert len(vals) == 2
        assert vals[0] == pytest.approx(-1j, abs=1e-8)
        assert vals[1] == pytest.approx(1.0, abs=1e-8)
        assert all(kind == SELF_ADJOINT for _, kind in fps)

    def test_parabolic_at_critical_coupling(self):
        m = models.inverse_square(-0.25)
        fm = gamma_map(m, subgroup_eval(SCALING, 1.0))
        cls = classify(fm.mobius, eps_class=1e-6)
        assert cls.tag is MapTag.PARABOLIC
        assert len(cls.fixed_points) == 1
        assert abs(abs(cls.fixed_points[0]) - 1.0) < 1e-6

    def test_contraction_preservation(self, invsq0):
        rng = np.random.default_rng(8)
        for _ in range(60):
            t = rng.uniform(-5, 5)
            v = rng.uniform(0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            out = gamma_apply(invsq0, subgroup_eval(SCALING, t), v)
            assert abs(out) <= 1.0 + 1e-8


class TestInvariantExtensions:
    def test_interval_unique_dissipative(self):
        for length in (0.5, 1.0, 2.0):
            m = models.interval_derivative(length)
            rep = invariant_extensions(m, Translation(1.0))
            assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
            (v, kind), = rep.fixed_points
            assert kind == DISSIPATIVE
            assert v == pytest.approx(math.exp(-length), abs=1e-8)
            assert all(c.tag is MapTag.ELLIPTIC for c in rep.flow_class.values())

    def test_inverse_square_two_self_adjoint(self, invsq0):
        rep = invariant_extensions(invsq0, SCALING, fp_tol=1e-6, sa_tol=1e-6,
                                   eps_class=1e-6)
        assert rep.group_verdict is Verdict.TWO_SELF_ADJOINT
        vals = sorted((z for z, _ in rep.fixed_points), key=lambda z: z.real)
        assert vals[0] == pytest.approx(-1j, abs=1e-6)
        assert vals[1] == pytest.approx(1.0, abs=1e-6)

    def test_inverse_square_unique_dissipative_below_critical(self):
        m = models.inverse_square(-1.0)
        rep = invariant_extensions(m, SCALING, fp_tol=1e-6, sa_tol=1e-6,
                                   eps_class=1e-6)
        assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        (v, kind), = rep.fixed_points
        assert kind == DISSIPATIVE
        assert abs(v) < 0.999

    def test_halfline_returns_the_operator_itself(self, halfline):
        rep = invariant_extensions(halfline, Translation(1.0))
        assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        assert rep.fixed_points == [(None, DISSIPATIVE)]


class TestPeriodDetect:
    def test_interval_periods(self):
        for length in (1.0, 2.0):
            m = models.interval_derivative(length)
            period = period_detect(m, Translation(1.0), t_max=4.5 * math.pi,
                                   tol=1e-8)
            assert period == pytest.approx(2 * math.pi / length, abs=1e-6)

    def test_period_element_fixes_sampled_parameters(self, interval):
        period = period_detect(interval, Translation(1.0), t_max=8.0, tol=1e-8)
        g = AffineMap(1.0, period)
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = rng.uniform(0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(gamma_apply(interval, g, v) - v) < 1e-8

    def test_no_period_reported_when_absent(self, interval):
        # below the first recurrence nothing qualifies
        assert period_detect(interval, Translation(1.0), t_max=3.0, tol=1e-8) is None

    def test_fall_to_center_period_is_pi_over_halfnu(self):
        # minimal flow period under the unit-speed scaling subgroup: the
        # boundary-condition phase angle is pi-periodic, giving 2 pi / nu
        m = models.inverse_square(-25.0)
        nu = math.sqrt(24.75)
        period = period_detect(m, SCALING, t_max=1.6, tol=1e-5, grid=600)
        assert period == pytest.approx(2 * math.pi / nu, abs=1e-5)


class TestSemiboundedFixedPoints:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, -0.25])
    def test_extremal_extensions_are_fixed(self, gamma):
        m = models.inverse_square(gamma)
        rep = verify_semibounded_fixed(m)
        assert rep.residual_friedrichs < 1e-6
        assert rep.residual_krein < 1e-6
        if gamma == -0.25:
            assert rep.v_friedrichs == rep.v_krein


def random_disk_automorphism(rng):
    w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.9
    while abs(w) >= 0.95:
        w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.9
    return mobius.disk_automorphism(w, rng.uniform(0, 2 * math.pi))


class TestTrichotomyConsistency:
    """A circle-preserving flow element with three fixed points, or two of
    which one is interior, must be the identity; no counterexample may
    appear across randomized trials."""

    def _assert_no_counterexample(self, mb):
        if mobius.projective_distance(mb, IDENTITY_MAP) < 1e-8:
            return
        fps = mobius.fixed_points(mb)
        if fps is ALL_POINTS:
            return
        in_disk = [z for z in fps
                   if not mobius.is_infinite(z) and abs(z) <= 1 + 1e-9]
        interior = [z for z in in_disk if abs(z) < 1 - 1e-6]
        assert len(fps) <= 2
        assert not (len(in_disk) >= 2 and interior), (
            f"non-identity circle-preserving map with fixed points {fps}")

    def test_synthetic_automorphisms(self):
        rng = np.random.default_rng(11)
        for _ in range(600):
            # coefficient structure (a, b; s conj(b), s conj(a)) with |s| = 1
            # covers the circle-preserving maps
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
            if abs(b) >= abs(a) - 0.1:
                continue
            s = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            m = mobius.from_coefficients(a, b, s * b.conjugate(), s * a.conjugate())
            if not mobius.is_disk_self_map(m, 1e-9):
                continue
            self._assert_no_counterexample(m)

    def test_model_flow_elements(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            length = rng.uniform(0.3, 3.0)
            t = rng.uniform(-8, 8)
            m = models.interval_derivative(length)
            fm = gamma_map(m, AffineMap(1.0, t))
            conj = random_disk_automorphism(rng)
            composed = mobius.compose(conj, mobius.compose(fm.mobius,
                                                           mobius.inverse(conj)))
            self._assert_no_counterexample(composed)


class TestErrors:
    def test_matrix_indices_rejected(self, halfline):
        with pytest.raises(UnsupportedIndices):
            gamma_apply(halfline, IDENTITY, 0.5)

    def test_inconsistent_sets_detected(self, interval):
        # forcing an impossible tolerance on honest data raises rather than
        # returning a bogus verdict
        with pytest.raises(NumericalInconsistency):
            invariant_extensions(interval, Translation(1.0), fp_tol=1e-18)
