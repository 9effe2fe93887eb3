import cmath
import math

import numpy as np
import pytest

from extflow import models
from extflow.affine import IDENTITY, AffineMap, Scaling, Translation, subgroup_eval
from extflow.errors import IllPosed, InvalidBoundary, OutsideGroup, UnsupportedIndices
from extflow.numerics import quad_finite


@pytest.fixture(scope="module")
def interval():
    return models.interval_derivative(1.0)


@pytest.fixture(scope="module")
def invsq0():
    return models.inverse_square(0.0)


def gram_matrix(model, g):
    """Gram matrix of (U phi+, U phi-, phi+, phi-) from overlap blocks."""
    e = model.overlap_matrix(IDENTITY)
    o = model.overlap_matrix(g)
    m = np.array([
        [1.0, e.cmp, o.cpp, o.cmp],
        [np.conj(e.cmp), 1.0, o.cpm, o.cmm],
        [np.conj(o.cpp), np.conj(o.cpm), 1.0, e.cmp],
        [np.conj(o.cmp), np.conj(o.cmm), np.conj(e.cmp), 1.0],
    ], dtype=complex)
    return 0.5 * (m + m.conj().T)


class TestIntervalModel:
    def test_deficiency_dims(self, interval):
        assert interval.deficiency_dims == (1, 1)

    def test_plus_norm_against_quadrature(self, interval):
        oracle = quad_finite(lambda x: np.exp(2 * x), 0.0, 1.0, 1e-12).value
        assert interval.norm_plus**2 == pytest.approx(oracle.real, abs=1e-11)
        assert interval.norm_plus**2 == pytest.approx(3.1945280494653251, rel=1e-12)

    def test_identity_cross_overlap(self, interval):
        ov = interval.overlap_matrix(IDENTITY)
        assert ov.cpp == pytest.approx(1.0, abs=1e-10)
        assert ov.cmm == pytest.approx(1.0, abs=1e-10)
        # integral of e^x e^{-x} over (0,1) is 1; divide by the norms
        assert ov.cmp == pytest.approx(0.850918, abs=1e-6)
        assert ov.cmp == pytest.approx(1.0 / (interval.norm_plus * interval.norm_minus))

    def test_translated_overlap_closed_form(self, interval):
        t = 1.0
        ov = interval.overlap_matrix(AffineMap(1.0, t))
        expect = 2 * (np.exp(2 + 1j * t) - 1) / ((2 + 1j * t) * (math.e**2 - 1))
        assert abs(ov.cpp - expect) < 1e-12

    def test_overlaps_match_quadrature_across_t(self, interval):
        for t in np.linspace(-20.0, 20.0, 11):
            ov = interval.overlap_matrix(AffineMap(1.0, float(t)))
            for block, integrand in [
                (ov.cpp, lambda x: np.exp(1j * t * x) * np.exp(2 * x) / interval.norm_plus**2),
                (ov.cmm, lambda x: np.exp(1j * t * x) * np.exp(-2 * x) / interval.norm_minus**2),
                (ov.cmp, lambda x: np.exp(1j * t * x) / (interval.norm_plus * interval.norm_minus)),
            ]:
                oracle = quad_finite(integrand, 0.0, 1.0, 1e-12).value
                assert abs(block - oracle) < 1e-10

    def test_wrong_subgroup(self, interval):
        with pytest.raises(OutsideGroup):
            interval.overlap_matrix(AffineMap(2.0, 0.0))

    def test_dirichlet_parameter(self):
        for length in (0.5, 1.0, 2.0):
            m = models.interval_derivative(length)
            assert m.vn_from_boundary(0.0) == pytest.approx(math.exp(-length), abs=1e-12)

    def test_unitary_boundary_gives_unitary_parameter(self, interval):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0, 2 * math.pi, 100):
            v = interval.vn_from_boundary(cmath.exp(1j * theta))
            assert abs(abs(v) - 1.0) < 1e-12

    def test_round_trip(self, interval):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rho = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
            v = interval.vn_from_boundary(rho)
            assert interval.boundary_from_vn(v) == pytest.approx(rho, abs=1e-9)

    def test_invalid_boundary(self, interval):
        with pytest.raises(InvalidBoundary):
            interval.vn_from_boundary(1.5)

    def test_gram_positivity(self, interval):
        rng = np.random.default_rng(2)
        for t in rng.uniform(-8, 8, 500):
            g = gram_matrix(interval, AffineMap(1.0, float(t)))
            assert np.linalg.eigvalsh(g).min() > -1e-8

    def test_unitarity_consistency(self, interval):
        # transported on both sides the overlap reduces to the identity one
        xs = np.linspace(1e-6, 1.0, 20001)
        t = 1.7
        up = np.exp(1j * xs * t) * interval.deficiency_vector(1, xs)
        um = np.exp(1j * xs * t) * interval.deficiency_vector(-1, xs)
        trapz = np.trapezoid(up * np.conj(um), xs)
        assert abs(trapz - interval.overlap_matrix(IDENTITY).cmp) < 1e-6


class TestInverseSquareModel:
    def test_ill_posed(self):
        with pytest.raises(IllPosed):
            models.InverseSquareModel(0.8)

    def test_unnormalized_norm_oracle(self, invsq0):
        # at gamma = 0 the gauge-fixed representative is e^{-kx} e^{Re k},
        # k = e^{-i pi/4}, so its squared norm is e^{sqrt 2} / sqrt 2
        oracle = math.exp(math.sqrt(2)) / math.sqrt(2)
        assert invsq0._norm_sq == pytest.approx(oracle, rel=1e-8)

    def test_cross_overlap_oracle(self, invsq0):
        # <phi+, phi-> = int e^{-2kx} / ||e^{-kx}||^2 = e^{i pi/4} / sqrt 2
        expect = np.exp(1j * math.pi / 4) / math.sqrt(2)
        assert abs(invsq0.overlap_matrix(IDENTITY).cmp - expect) < 1e-8

    def test_normalized_deficiency_matches_closed_form(self, invsq0):
        xs = np.geomspace(0.5, 20.0, 200)
        k = np.exp(-1j * math.pi / 4)
        exact = 2**0.25 * np.exp(-k * xs)
        got = invsq0.deficiency_value(1, xs)
        assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-6

    def test_minus_is_conjugate(self, invsq0):
        xs = np.geomspace(1e-4, 10.0, 50)
        assert np.allclose(invsq0.deficiency_value(-1, xs),
                           np.conj(invsq0.deficiency_value(1, xs)))

    def test_table_matches_asymptotics_below_cut(self, invsq0):
        # the tabulated solution and the fitted two-term power form agree on
        # the overlap stretch of the table
        xs = np.geomspace(2e-6, 9e-4, 40)
        from_table = invsq0._table_eval(xs)
        from_form = invsq0._phi_form.eval(xs)
        assert np.max(np.abs(from_table - from_form) / np.abs(from_form)) < 1e-6

    def test_identity_blocks(self, invsq0):
        ov = invsq0.overlap_matrix(IDENTITY)
        assert abs(ov.cpp - 1.0) < 1e-9
        assert abs(ov.cmm - 1.0) < 1e-9
        # <phi+, phi-> normalized: sqrt(2) * e^{i pi/4}/2
        expect = math.sqrt(2) * np.exp(1j * math.pi / 4) / 2
        assert abs(ov.cmp - expect) < 1e-8

    def test_scaled_overlap_closed_form(self, invsq0):
        t = 1.0
        sigma = math.exp(-t / 2)
        ov = invsq0.overlap_matrix(AffineMap(math.exp(t), 0.0))
        kp = np.exp(-1j * math.pi / 4)
        expect_cpp = math.sqrt(2) * math.sqrt(sigma) / (kp * sigma + np.conj(kp))
        expect_cmp = math.sqrt(2) * math.sqrt(sigma) * np.exp(1j * math.pi / 4) / (sigma + 1.0)
        assert abs(ov.cpp - expect_cpp) < 1e-8
        assert abs(ov.cmp - expect_cmp) < 1e-8
        assert abs(ov.cmm - np.conj(expect_cpp)) < 1e-8
        assert abs(ov.cpm - np.conj(expect_cmp)) < 1e-8

    def test_friedrichs_krein_at_zero_coupling(self, invsq0):
        assert abs(invsq0.vn_from_boundary("friedrichs") - 1.0) < 1e-8
        assert abs(invsq0.vn_from_boundary("krein") - (-1j)) < 1e-8

    def test_boundary_round_trip_tags(self, invsq0):
        assert invsq0.boundary_from_vn(invsq0.vn_from_boundary("friedrichs")) == "friedrichs"
        assert invsq0.boundary_from_vn(invsq0.vn_from_boundary("krein")) == "krein"

    def test_theta_family_round_trip(self):
        m = models.inverse_square(0.5)
        for theta in (0.4, 1.0, 2.2):
            v = m.vn_from_boundary(("theta", theta))
            assert abs(abs(v) - 1.0) < 1e-9
            kind, back = m.boundary_from_vn(v)
            assert kind == "theta"
            assert back == pytest.approx(theta, abs=1e-9)

    def test_theta_family_oscillatory(self):
        m = models.inverse_square(-1.0)
        for theta in (0.3, 1.5):
            v = m.vn_from_boundary(("theta", theta))
            assert abs(abs(v) - 1.0) < 1e-9
            kind, back = m.boundary_from_vn(v)
            assert kind == "theta"
            assert back == pytest.approx(theta, abs=1e-9)

    def test_friedrichs_tag_outside_semibounded_range(self):
        with pytest.raises(InvalidBoundary):
            models.inverse_square(-1.0).vn_from_boundary("friedrichs")

    def test_wrong_subgroup(self, invsq0):
        with pytest.raises(OutsideGroup):
            invsq0.overlap_matrix(AffineMap(1.0, 1.0))

    def test_range_limit(self, invsq0):
        with pytest.raises(OutsideGroup):
            invsq0.overlap_matrix(AffineMap(math.exp(7.0), 0.0))

    def test_gram_positivity(self, invsq0):
        rng = np.random.default_rng(3)
        for t in rng.uniform(-5.5, 5.5, 500):
            g = gram_matrix(invsq0, subgroup_eval(invsq0.group, float(t)))
            assert np.linalg.eigvalsh(g).min() > -1e-8

    def test_unitarity_consistency(self, invsq0):
        t = 0.8
        w, s = math.exp(t / 4), math.exp(t / 2)
        xs = np.geomspace(1e-6, 39.0, 400001)
        up = w * invsq0.deficiency_value(1, s * xs)
        um = w * invsq0.deficiency_value(-1, s * xs)
        trapz = np.trapezoid(up * np.conj(um), xs)
        expect = invsq0.overlap_matrix(IDENTITY).cmp
        assert abs(trapz - expect) < 1e-5


class TestHalflineModel:
    def test_deficiency_dims(self):
        m = models.halfline_derivative()
        assert m.deficiency_dims == (0, 1)

    def test_minus_norm(self):
        # ||e^{-x}||^2 = 1/2 on the half-line
        m = models.halfline_derivative()
        assert m.norm_minus**2 == pytest.approx(0.5, rel=1e-14)

    def test_no_parameters(self):
        m = models.halfline_derivative()
        with pytest.raises(UnsupportedIndices):
            m.overlap_matrix(IDENTITY)
        with pytest.raises(UnsupportedIndices):
            m.vn_from_boundary(0.0)

    def test_two_representations(self):
        m = models.halfline_derivative()
        f = lambda x: np.asarray(x) * np.exp(-np.asarray(x))
        xs = np.linspace(0.1, 5.0, 7)
        tr = m.representation("translation", 0.7)(f)
        assert np.allclose(tr(xs), np.exp(1j * 0.7 * xs) * f(xs))
        sc = m.representation("scaling", 0.7)(f)
        assert np.allclose(sc(xs), math.exp(0.35) * f(math.exp(0.7) * xs))


class TestRegistry:
    def test_by_name(self):
        assert models.by_name("interval", length=2.0).length == 2.0
        assert models.by_name("inverse-square", gamma=0.0).gamma == 0.0
        assert models.by_name("halfline").deficiency_dims == (0, 1)
        with pytest.raises(ValueError):
            models.by_name("nonsense")
