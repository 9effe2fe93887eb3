import cmath
import math

import numpy as np
import pytest

from extflow import cli, flow, models, weylcheck
from extflow.affine import GROUPS, IDENTITY, AffineMap, subgroup_eval
from extflow.errors import (
    DynamicRangeExceeded,
    IllPosed,
    OutsideGroup,
    UnsupportedIndices,
)
from extflow.numerics import quad_finite


@pytest.fixture(scope="module")
def interval():
    return models.IntervalModel(1.0)


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


@pytest.mark.parametrize("name", ["interval", "inverse-square"])
def test_generator_takes_only_its_own_subgroup(name):
    # the CLI's model table names the one group each (1, 1) model states X
    # along; the other name raises OutsideGroup
    constructor, keys, groups = cli._MODELS[name]
    model = constructor(*(1.0 if key == "l" else 0.0 for key in keys))
    (own,) = groups
    assert len(model.generator(own)) == 4
    for other in set(GROUPS) - {own}:
        with pytest.raises(OutsideGroup):
            model.generator(other)


class TestIntervalModel:
    def test_deficiency_dims(self, interval):
        assert interval.deficiency_dims == (1, 1)

    def test_plus_norm_against_quadrature(self, interval):
        oracle = quad_finite(lambda x: np.exp(2 * x), 0.0, 1.0, 1e-12).value
        assert interval.norm_plus**2 == pytest.approx(oracle.real, abs=1e-11)
        assert interval.norm_plus**2 == pytest.approx(3.1945280494653251, rel=1e-12)

    @pytest.mark.parametrize("length", [1e-3, 1.0, 300.0])
    def test_norms_against_mpmath(self, length):
        # ||e^x||^2 = (e^{2l} - 1)/2 and ||e^{-x}||^2 = (1 - e^{-2l})/2; at
        # l = 1e-3 the differences cancel unless written with expm1
        mpmath = pytest.importorskip("mpmath")
        m = models.IntervalModel(length)
        with mpmath.workdps(40):
            two_l = 2 * mpmath.mpf(length)
            plus = float(mpmath.sqrt((mpmath.exp(two_l) - 1) / 2))
            minus = float(mpmath.sqrt((1 - mpmath.exp(-two_l)) / 2))
        assert m.norm_plus == pytest.approx(plus, rel=1e-15, abs=0.0)
        assert m.norm_minus == pytest.approx(minus, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("length", [354.8914, 360.0, 1e300])
    def test_length_beyond_the_float_range(self, length):
        # e^{2l} overflows above l = 354.8913...; just below, the norm is a float
        assert math.isfinite(models.IntervalModel(354.8913).norm_plus)
        with pytest.raises(DynamicRangeExceeded):
            models.IntervalModel(length)

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

    def test_gram_positivity(self, interval):
        rng = np.random.default_rng(2)
        for t in rng.uniform(-8, 8, 500):
            g = gram_matrix(interval, AffineMap(1.0, float(t)))
            assert np.linalg.eigvalsh(g).min() > -1e-8

    def test_unitarity_consistency(self, interval):
        # transported on both sides the overlap reduces to the identity one
        xs = np.linspace(1e-6, 1.0, 20001)
        t = 1.7
        up = np.exp(1j * xs * t) * np.exp(xs) / interval.norm_plus
        um = np.exp(1j * xs * t) * np.exp(-xs) / interval.norm_minus
        trapz = np.trapezoid(up * np.conj(um), xs)
        assert abs(trapz - interval.overlap_matrix(IDENTITY).cmp) < 1e-6


K = cmath.exp(-0.25j * math.pi)   # the deficiency representative is sqrt(k x) K_mu(k x)
# couplings with 0 < |gamma + 1/4| <= 1e-10, where |mu| <= 1e-5 and the
# Gamma-function pair of the branch coefficients is near 1/mu: one ulp and
# offsets 1e-16 to 1e-10 on both sides
_BAND = [value for side in (-1, 1)
         for value in (math.nextafter(-0.25, side * math.inf),
                       *(-0.25 + side * 10.0 ** -k for k in range(10, 17)))]
# the semibounded couplings at which the Friedrichs and Krein parameters are
# checked: the band above -1/4, mu = 0 and across the range
_SEMIBOUNDED = [g for g in _BAND if g > -0.25] + [-0.25, 0.0, 0.2, 0.5, 0.7499]


def _branch_coefficients(mpmath, gamma):
    """Coefficients (c_+, c_-) of the branches x^{1/2 + mu} and x^{1/2 - mu}
    of sqrt(k x) K_mu(k x) near 0, c_{+-} = (1/2) sqrt(k) Gamma(-+mu)
    (k/2)^{+-mu} (DLMF 10.27.4, 10.25.2); at mu = 0 the coefficients of
    sqrt(x) and sqrt(x) log x, -sqrt(k) (log(k/2) + gamma_E) and -sqrt(k)
    (DLMF 10.31.2). At the working precision of the caller."""
    mu = mpmath.sqrt(mpmath.mpf(gamma) + mpmath.mpf(1) / 4)
    k = mpmath.exp(-0.25j * mpmath.pi)
    if mu == 0:
        return -mpmath.sqrt(k) * (mpmath.log(k / 2) + mpmath.euler), -mpmath.sqrt(k)
    return (mpmath.sqrt(k) * mpmath.gamma(-mu) * (k / 2) ** mu / 2,
            mpmath.sqrt(k) * mpmath.gamma(mu) * (k / 2) ** -mu / 2)


def _tag_oracle(mpmath, gamma):
    """(v_F, v_K) at 40 digits: c/conj(c) for the coefficient c of the branch
    each extension excludes, x^{1/2 - mu} (Friedrichs) and x^{1/2 + mu}
    (Krein); at mu = 0 both exclude sqrt(x) log x."""
    with mpmath.workdps(40):
        c_plus, c_minus = _branch_coefficients(mpmath, gamma)
        v_f = c_minus / mpmath.conj(c_minus)
        v_k = v_f if gamma == -0.25 else c_plus / mpmath.conj(c_plus)
        return complex(v_f), complex(v_k)


class TestInverseSquareModel:
    def test_ill_posed(self):
        with pytest.raises(IllPosed):
            models.InverseSquareModel(0.8)

    def test_unnormalized_norm_oracle(self):
        # the squared norm pi/(4 cos(pi mu/2)) and the overlap integral at
        # sigma = 1 are separate closed forms; cpp at the identity is their
        # ratio, 1 (measured <= 2.3e-16)
        for gamma in (-25.0, -2.0, -0.25, 0.0, 0.5, 0.7):
            ov = models.inverse_square(gamma).overlap_matrix(IDENTITY)
            assert abs(ov.cpp - 1.0) < 3e-15
            assert abs(ov.cmm - 1.0) < 3e-15

    def test_cross_overlap_oracle(self, invsq0):
        # <phi+, phi-> = int e^{-2kx} / ||e^{-kx}||^2 = e^{i pi/4} / sqrt 2
        expect = np.exp(1j * math.pi / 4) / math.sqrt(2)
        assert abs(invsq0.overlap_matrix(IDENTITY).cmp - expect) < 2e-15

    def test_minus_is_conjugate(self):
        # the minus representative is the conjugate of the plus one, so the
        # minus blocks are the conjugate plus blocks
        for gamma in (-2.0, 0.0, 0.5):
            m = models.inverse_square(gamma)
            for t in (0.3, -1.7, 4.0):
                ov = m.overlap_matrix(subgroup_eval("scaling", t))
                assert ov.cmm == ov.cpp.conjugate()
                assert ov.cpm == ov.cmp.conjugate()

    def test_branches_match_besselk_near_zero(self):
        # the branch coefficients that the parameter oracle reads, against
        # sqrt(k x) K_mu(k x) from mpmath: the branch pair with its first
        # series term, x^s (1 - i x^2 / (2 (2s + 1))), where the next term is
        # O(x^4); the log pair at mu = 0 (DLMF 10.31.2). Measured <= 2.1e-13.
        mpmath = pytest.importorskip("mpmath")
        for gamma in (-2.0, -0.25, -0.1, 0.5):
            c1, c2 = (complex(c) for c in _branch_coefficients(mpmath, gamma))
            mu = cmath.sqrt(gamma + 0.25)
            for x in (5e-4, 1e-3):
                exact = complex(mpmath.sqrt(K * x) * mpmath.besselk(mu, K * x))
                if gamma == -0.25:
                    first = math.sqrt(x) * (1 - 0.25j * x * x)
                    got = c1 * first + c2 * (first * math.log(x) + 0.25j * x**2.5)
                else:
                    s1, s2 = 0.5 + mu, 0.5 - mu
                    got = (c1 * x**s1 * (1 - 0.5j * x * x / (2 * s1 + 1))
                           + c2 * x**s2 * (1 - 0.5j * x * x / (2 * s2 + 1)))
                assert abs(got - exact) / abs(exact) < 3e-12

    def test_identity_blocks(self, invsq0):
        ov = invsq0.overlap_matrix(IDENTITY)
        assert abs(ov.cpp - 1.0) < 1e-15
        assert abs(ov.cmm - 1.0) < 1e-15
        # <phi+, phi-> normalized: sqrt(2) * e^{i pi/4}/2
        expect = math.sqrt(2) * np.exp(1j * math.pi / 4) / 2
        assert abs(ov.cmp - expect) < 2e-15

    def test_scaled_overlap_closed_form(self, invsq0):
        # relative to each block, which lies near e^{-175} at |t| = 700
        kp = np.exp(-1j * math.pi / 4)
        for t in (1.0, 40.0, -40.0, 700.0, -700.0):
            sigma = math.exp(-t / 2)
            ov = invsq0.overlap_matrix(AffineMap(math.exp(t), 0.0))
            root = math.sqrt(2) * math.exp(-t / 4)
            expect_cpp = root / (kp * sigma + np.conj(kp))
            expect_cmp = root * np.exp(1j * math.pi / 4) / (sigma + 1.0)
            assert abs(ov.cpp - expect_cpp) < 2e-15 * abs(expect_cpp)
            assert abs(ov.cmp - expect_cmp) < 2e-15 * abs(expect_cmp)
            assert abs(ov.cmm - np.conj(expect_cpp)) < 2e-15 * abs(expect_cpp)
            assert abs(ov.cpm - np.conj(expect_cmp)) < 2e-15 * abs(expect_cmp)

    def test_friedrichs_krein_at_zero_coupling(self, invsq0):
        # Dirichlet and Neumann at 0: sqrt(pi/2) (e^{-kx} - v e^{-conj(k) x})
        # vanishes at 0 for v = 1 and its derivative for v = k/conj(k) = -i
        v_f, v_k = invsq0.friedrichs_krein()
        assert abs(v_f - 1.0) < 3e-15
        assert abs(v_k - (-1j)) < 3e-15

    def test_friedrichs_tag_outside_semibounded_range(self):
        # one ulp below -1/4 the operator is no longer semibounded
        for gamma in (-1.0, math.nextafter(-0.25, -math.inf)):
            with pytest.raises(IllPosed):
                models.inverse_square(gamma).friedrichs_krein()

    def test_wrong_subgroup(self, invsq0):
        with pytest.raises(OutsideGroup):
            invsq0.overlap_matrix(AffineMap(1.0, 1.0))

    def test_range_limit(self, invsq0):
        # the scaling group has no range of its own: the element exists while
        # its slope e^t and the inverse's e^{-t} are finite positive floats
        invsq0.overlap_matrix(AffineMap(math.exp(7.0), 0.0))
        for t in (709.78, -709.78):
            subgroup_eval("scaling", t)
        for t in (709.79, -709.79, -800.0, 1e4):
            with pytest.raises(DynamicRangeExceeded):
                subgroup_eval("scaling", t)
            with pytest.raises(DynamicRangeExceeded):
                invsq0.representation("scaling", -t)

    def test_gram_positivity(self, invsq0):
        rng = np.random.default_rng(3)
        for t in rng.uniform(-5.5, 5.5, 500):
            g = gram_matrix(invsq0, subgroup_eval("scaling", float(t)))
            assert np.linalg.eigvalsh(g).min() > 0.0

    def test_unitarity_consistency(self, invsq0):
        # at gamma = 0 the normalized plus representative is 2^{1/4} e^{-kx};
        # transported on both sides its overlap with the minus one is the
        # identity block. The trapezoid rule in u = log x converges
        # geometrically for this analytic, decaying integrand.
        t = 0.8
        w, s = math.exp(t / 4), math.exp(t / 2)
        h = 0.1
        xs = np.exp(np.arange(-40.0, 4.5, h))
        phi = 2**0.25 * np.exp(-K * s * xs)
        trapz = h * np.sum(w * w * phi * phi * xs)
        expect = invsq0.overlap_matrix(IDENTITY).cmp
        assert abs(trapz - expect) < 1e-13


def _bessel_k_lattice(mpmath, mu, h, lo, hi):
    """{j: K_mu(k e^{jh})} for lo <= jh <= hi: pi/(2 sin(mu pi)) (I_{-mu} -
    I_mu) (DLMF 10.27.4), or the series of DLMF 10.31.2 at mu = 0, with 20
    digits beyond the e^{2 Re z} that the difference cancels. Below
    |z| = 1e-3 three terms of the series of I_{+-mu} (DLMF 10.25.2) reach
    1e-19. Beyond |z| = 60 the value is below e^{-42} and is stored as 0."""
    k = mpmath.exp(-0.25j * mpmath.pi)
    orders = (-mu, mu)
    inv_gamma = [1 / mpmath.gamma(1 + nu) for nu in orders] if mu != 0 else []
    out = {}
    for j in range(math.floor(lo / h), math.ceil(hi / h) + 1):
        z = k * mpmath.exp(j * mpmath.mpf(h))
        if abs(z) > 60:
            out[j] = mpmath.mpc(0)
            continue
        with mpmath.workdps(20 + int(z.real)):
            q = z * z / 4
            if mu == 0:
                term, harmonic, i0, total, n = mpmath.mpf(1), 0, 1, 0, 0
                while n * n < abs(q) or abs(term) > mpmath.mpf(10) ** -mpmath.mp.dps:
                    n += 1
                    term *= q / (n * n)
                    harmonic += mpmath.mpf(1) / n
                    i0 += term
                    total += harmonic * term
                out[j] = total - (mpmath.log(z / 2) + mpmath.euler) * i0
                continue
            if abs(z) < 1e-3:
                i_pm = [(z / 2) ** nu * g * (1 + q / (1 + nu) * (1 + q / (2 * (2 + nu))))
                        for nu, g in zip(orders, inv_gamma)]
            else:
                i_pm = [mpmath.besseli(nu, z) for nu in orders]
            out[j] = mpmath.pi / (2 * mpmath.sin(mu * mpmath.pi)) * (i_pm[0] - i_pm[1])
    return out


def _overlap_oracle(mpmath, gamma, log_sigmas, h):
    """{s: (cpp, cmp)} at sigma = e^s for s on the lattice of step h, from
    int_0^inf x K_mu(a x) K_mu(b x) dx by the trapezoid rule in u = log x
    over u >= -24; the integrand is analytic and decays at both ends, so the
    rule converges geometrically in 1/h. Below the cut, for real mu > 0, the
    lattice sum of the leading term A^2 (ab)^{-mu} e^{(2 - 2 mu) u} is added
    as a geometric series; every other term is O(e^{2u}) there."""
    with mpmath.workdps(30):
        mu = mpmath.sqrt(mpmath.mpf(gamma) + mpmath.mpf(1) / 4)
        k = mpmath.exp(-0.25j * mpmath.pi)
        real = mpmath.im(mu) == 0 and mu != 0
        lo, hi = -24, 4.25
        shift = max(abs(s) for s in log_sigmas)
        kv = _bessel_k_lattice(mpmath, mu, h, lo - shift, hi + shift)
        j0, j1 = round(lo / h), round(hi / h)

        weight = {j: h * mpmath.exp(2 * j * h) for j in range(j0, j1 + 1)}
        kv_conj = {j: mpmath.conj(kv[j]) for j in weight}

        def integral(s, b):
            dj = round(s / h)
            second = kv if b == k else kv_conj
            total = mpmath.fsum(w * kv[j + dj] * second[j] for j, w in weight.items())
            if real:
                a = k * mpmath.exp(s)
                lead = (mpmath.gamma(mu) * 2 ** (mu - 1)) ** 2 * (a * b) ** -mu
                ratio = mpmath.exp(-(2 - 2 * mu) * h)
                total += h * lead * mpmath.exp((2 - 2 * mu) * j0 * h) * ratio / (1 - ratio)
            return total

        norm = integral(0, mpmath.conj(k))
        return {s: (complex(mpmath.exp(s) * integral(s, mpmath.conj(k)) / norm),
                    complex(mpmath.exp(s) * k * integral(s, k) / norm))
                for s in log_sigmas}


class TestClosedForms:
    """The inverse-square model's closed forms against mpmath, which shares
    none of their code: Bessel-K values summed over the half-line and the
    limits at mu = 0."""

    @pytest.mark.parametrize("gamma", [-25.0, -2.0, -0.25, 0.0, 0.5, 0.7])
    def test_overlaps_match_bessel_quadrature(self, gamma):
        # sigma in {e^-3, e^-0.5, 1, e^3}, i.e. t = -2 log sigma in {6, 1, 0, -6};
        # the oscillation x^{+-5i} at gamma = -25 needs the finer lattice.
        # Halving h moves the oracle by <= 1.6e-14 (gamma = -25, -2) and by
        # <= 3.3e-16 elsewhere; the model is within 3.0e-14 of it
        mpmath = pytest.importorskip("mpmath")
        h = 1 / 16 if gamma == -25.0 else 1 / 8
        oracle = _overlap_oracle(mpmath, gamma, (-3.0, -0.5, 0.0, 3.0), h)
        m = models.inverse_square(gamma)
        for s, (cpp, cmp) in oracle.items():
            ov = m.overlap_matrix(AffineMap(math.exp(-2 * s), 0.0))
            assert abs(ov.cpp - cpp) < 3e-13 * abs(cpp)
            assert abs(ov.cmp - cmp) < 3e-13 * abs(cmp)

    @pytest.mark.parametrize("delta", [1e-9, -1e-9])
    def test_continuous_across_the_log_case(self, delta):
        # at mu = 0 the branches of K_mu meet in a log pair (DLMF 10.31.2),
        # but the overlaps are even in mu, so they move by O(mu^2) = O(delta);
        # measured 4.7e-10
        critical = models.inverse_square(-0.25)
        near = models.inverse_square(-0.25 + delta)
        for t in (0.0, 0.3, -2.0, 6.0):
            g = subgroup_eval("scaling", t)
            a, b = critical.overlap_matrix(g), near.overlap_matrix(g)
            assert abs(a.cpp - b.cpp) < 5e-9
            assert abs(a.cmp - b.cmp) < 5e-9
        v_0 = cmath.exp(-0.25j * math.pi)
        assert critical.friedrichs_krein() == (v_0, v_0)
        if delta > 0:
            # v_F and v_K = e^{-i pi/4} e^{+-i pi mu/2}: each is 2 sin(pi mu/4),
            # about 5e-5, from the common value at mu = 0
            mu = math.sqrt(near.gamma + 0.25)
            for v in near.friedrichs_krein():
                assert abs(abs(v - v_0) - 2 * math.sin(0.25 * math.pi * mu)) < 1e-15
        else:
            with pytest.raises(IllPosed):
                near.friedrichs_krein()

    @pytest.mark.parametrize("gamma", _SEMIBOUNDED, ids=repr)
    def test_tags_match_mpmath(self, gamma):
        # measured <= 4.0e-16; the log pair of mu = 0 used at small mu would
        # read pi mu/2 off, 5.0e-6 at gamma = -1/4 + 1e-11
        mpmath = pytest.importorskip("mpmath")
        tags = models.inverse_square(gamma).friedrichs_krein()
        assert max(abs(v - ref) for v, ref in zip(tags, _tag_oracle(mpmath, gamma))) <= 1e-15

    @pytest.mark.parametrize("gamma", _BAND, ids=repr)
    def test_generator_matches_mpmath_in_the_former_band(self, gamma):
        # X = (r/2) [[i cos(pi mu/2), -e^{i pi/4}], [-e^{-i pi/4}, -i cos(pi
        # mu/2)]], r = mu/sin(pi mu/2), and its zeros e^{i pi (+-mu - 1/2)/2}
        # at 40 digits, with mu from gamma as the float gives it; det X =
        # -(gamma + 1/4)/4 is exact. Measured <= 5.2e-16 (X) and 2.5e-16 (zeros)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mu = mpmath.sqrt(mpmath.mpf(gamma) + mpmath.mpf(1) / 4)
            half_r = mu / (2 * mpmath.sin(mpmath.pi * mu / 2))
            ref = [complex(1j * half_r * mpmath.cos(mpmath.pi * mu / 2)),
                   complex(-half_r * mpmath.exp(0.25j * mpmath.pi)),
                   complex(-half_r * mpmath.exp(-0.25j * mpmath.pi))]
            zeros = [complex(mpmath.exp(0.5j * mpmath.pi * (s * mu - mpmath.mpf(1) / 2)))
                     for s in (1, -1)]
        m = models.inverse_square(gamma)
        a, b, c, det = m.generator("scaling")
        assert max(abs(x - r) for x, r in zip((a, b, c), ref)) <= 5e-15 * abs(ref[1])
        assert det == -(gamma + 0.25) / 4 != 0
        found = flow.generator(m, "scaling").zeros()
        assert len(found) == 2
        assert all(min(abs(z - r) for z in found) <= 3e-15 for r in zeros)

    @pytest.mark.parametrize("gamma", _BAND, ids=repr)
    def test_overlaps_match_mpmath_in_the_former_band(self, gamma):
        # cpp = sigma I(k sigma, conj k) and cmp = sigma k I(k sigma, k) over
        # I(k, conj k), with I(a, b) = pi (ab)^{-mu} (a^{2 mu} - b^{2 mu}) /
        # (2 sin(mu pi) (a^2 - b^2)) (Gradshteyn-Ryzhik 6.521.3) at 40
        # digits. Measured <= 6.3e-16 relative
        mpmath = pytest.importorskip("mpmath")
        m = models.inverse_square(gamma)
        with mpmath.workdps(40):
            mu = mpmath.sqrt(mpmath.mpf(gamma) + mpmath.mpf(1) / 4)
            k = mpmath.exp(-0.25j * mpmath.pi)

            def integral(a, b):
                return (mpmath.pi * (a * b) ** -mu * (a ** (2 * mu) - b ** (2 * mu))
                        / (2 * mpmath.sin(mu * mpmath.pi) * (a * a - b * b)))

            norm = integral(k, mpmath.conj(k))
            for t in (-6.0, -0.5, 0.3, 4.0, 40.0):
                g = subgroup_eval("scaling", t)
                sigma = mpmath.mpf(g.a) ** -0.5
                cpp = complex(sigma * integral(k * sigma, mpmath.conj(k)) / norm)
                cmp = complex(sigma * k * integral(k * sigma, k) / norm)
                ov = m.overlap_matrix(g)
                assert abs(ov.cpp - cpp) <= 7e-15 * abs(cpp)
                assert abs(ov.cmp - cmp) <= 7e-15 * abs(cmp)


class TestHalflineModel:
    def test_deficiency_dims(self):
        m = models.HalflineModel()
        assert m.deficiency_dims == (0, 1)

    def test_no_parameters(self):
        # indices (0, 1): the only parameter is 0, and every element fixes it
        m = models.HalflineModel()
        g = subgroup_eval("translation", 0.7)
        assert flow.gamma_map(m, g).trivial
        assert flow.gamma_apply(m, g, 0j) == 0
        with pytest.raises(UnsupportedIndices):
            flow.gamma_apply(m, g, 0.3)

    def test_two_representations(self):
        m = models.HalflineModel()
        f = lambda x: (x * np.exp(-x),)
        xs = np.linspace(0.1, 5.0, 7)
        tr = m.representation("translation", 0.7)
        assert tr == models.Representation(1.0, frequency=0.7)
        assert np.allclose(weylcheck.represent(tr, f)(xs)[0], np.exp(1j * 0.7 * xs) * f(xs)[0])
        sc = m.representation("scaling", 0.7)
        assert sc == models.Representation(math.exp(0.35), math.exp(0.7))
        assert np.allclose(weylcheck.represent(sc, f)(xs)[0], math.exp(0.35) * f(math.exp(0.7) * xs)[0])

