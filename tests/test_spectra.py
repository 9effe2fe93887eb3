import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extflow import cli, models, spectra
from extflow.numerics import find_root, ode_solve
from extflow.errors import (
    DynamicRangeExceeded,
    IllPosed,
    InsufficientData,
    InvalidArgument,
    InvalidRho,
    NoConvergence,
    NumericalInconsistency,
)

NU25 = math.sqrt(24.75)

# frozen from an independent shooting run (separate solver stack) at
# theta = 0.7: four consecutive ladder rungs
REFERENCE_LADDER = [-24.18009070, -6.83845304, -1.93400638, -0.54696301]


def scan_ladder(gamma, theta, count):
    """Reference ladder by brute-force shooting: the first ``count`` sign
    changes of sin(phase gap) over log|lambda| in [-0.6, count - 0.4] ladder
    steps, on a grid of six points per step, each refined by an Illinois
    bracket."""
    nu = math.sqrt(-gamma - 0.25)
    step = 2 * math.pi / nu
    phi_in = spectra._inward_phase(gamma, nu)

    def mismatch(u):
        return math.sin(spectra._mismatch(nu, theta, -math.exp(u), phi_in))

    us = np.linspace(-0.6 * step, (count - 0.4) * step,
                     max(12, int(6 * (count + 0.2)) + 1))
    vals = [mismatch(u) for u in us]
    roots = []
    for i in range(len(us) - 1):
        if vals[i] == 0.0:
            roots.append(us[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(find_root(mismatch, us[i], us[i + 1], tol=1e-7))
        if len(roots) >= count:
            break
    return sorted(-math.exp(u) for u in roots[:count])


def closed_form_rung(gamma, theta, lam):
    """The rung index n nearest to lam and lambda_n = -4 exp(2 (theta +
    arg Gamma(1 + i nu) + n pi) / nu), from the small-x expansion of
    sqrt(x) K_{i nu}(k x) (DLMF 10.45), with arg Gamma from mpmath."""
    mpmath = pytest.importorskip("mpmath")
    nu = math.sqrt(-gamma - 0.25)
    offset = theta + float(mpmath.arg(mpmath.gamma(1 + 1j * nu)))
    n = round((0.5 * nu * math.log(-lam / 4) - offset) / math.pi)
    return n, -4 * math.exp(2 * (offset + n * math.pi) / nu)


def phase_rate(nu):
    """phi' = nu - (e^{2 sigma}/nu) sin^2 phi, the modified Pruefer angle
    (w = r sin phi, w' = nu r cos phi) of w'' = (e^{2 sigma} - nu^2) w."""
    def rate(sigma, phi):
        s = math.sin(phi)
        return nu - math.exp(2 * sigma) / nu * s * s
    return rate


def outward_shot(nu, theta, lam, tol):
    """The outward Pruefer phase at x = 1/k by Dormand-Prince, the shot that
    the summed series replaced: from k x = 1e-6, where the boundary form's
    phase nu sigma + theta - nu log k is exact up to O((k x)^2 / nu^2)."""
    sigma0 = math.log(1e-6)
    k = math.sqrt(-lam)
    return ode_solve(phase_rate(nu), sigma0,
                     nu * sigma0 + theta - nu * math.log(k), 0.0, tol=tol).y_end


def dormand_prince_inward_phase(gamma, nu, tol):
    """The inward Pruefer phase at sigma = 0 by Dormand-Prince, the leg that
    the Magnus transfer replaced: from sigma = log(k x_in), with the phase
    of the two-term decaying asymptotics there."""
    kx_in = spectra._inward_start(nu)
    c = gamma / (2 * kx_in)
    u, xdu = 1 + c, -kx_in * (1 + c) - c      # u and x u' at x_in
    return ode_solve(phase_rate(nu), math.log(kx_in),
                     math.atan2(nu * u, xdu - 0.5 * u), 0.0, tol=tol).y_end


# the three Gauss-Legendre nodes on [0, 1], as a column
GAUSS3 = np.array([[0.5 - 0.1 * 15 ** 0.5], [0.5], [0.5 + 0.1 * 15 ** 0.5]])


def magnus_propagators(q, z, h) -> tuple:
    """The oracle for the inward leg's fused kernel: the transfer matrices
    [[m11, m12], [m21, m22]] of u'' = q(z) u for any coefficient, acting on
    (u, u'), from z_i to z_i + h_i for every i (h_i of either sign), as four
    arrays.

    Each is exp(Omega) for the sixth-order, three-Gauss-point Magnus
    exponent Omega (Blanes, Casas and Ros, BIT 40 (2000) 434). With
    A(z) = E + q(z) F in the sl_2 basis E = [[0, 1], [0, 0]],
    F = [[0, 0], [1, 0]], H = [[1, 0], [0, -1]], the exponent's
    commutators reduce to the closed form below, Omega = e E + f F + g H,
    and exp(Omega) = cosh(r) I + sinh(r)/r Omega with r^2 = g^2 + e f.
    ``q`` is called once, with a (3, n) array of nodes."""
    q1, q2, q3 = q(z + h * GAUSS3)
    b2 = 15 ** 0.5 / 3 * h * (q3 - q1)      # the F parts of the Taylor moments
    b3 = 10 / 3 * h * (q3 - 2 * q2 + q1)
    hh = h * h
    e = h + hh * (h * b2 * b2 / 15 - 4 / 3 * b3) / 240
    f = (h * q2 + b3 / 12
         + (hh * q2 * (4 / 3 * b3 + h * b2 * b2 / 15) + h * (b3 * b3 / 15 - 2 * b2 * b2)) / 240)
    g = h * b2 * (4 / 3 * hh * q2 + h * b3 / 30 - 20) / 240
    r2 = g * g + e * f
    r = np.sqrt(np.abs(r2))
    grows = r2 > 0
    ch = np.where(grows, np.cosh(r), np.cos(r))
    sh = np.divide(np.where(grows, np.sinh(r), np.sin(r)), r,
                   out=np.ones_like(r), where=r > 0)
    return ch + sh * g, sh * e, sh * f, ch - sh * g


def magnus_transfer(propagators, u: float, du: float) -> tuple:
    """(u, u') after the propagators in turn, given as rows or arrays m11,
    m12, m21, m22, applied in one pass with no renormalisation."""
    for m11, m12, m21, m22 in zip(*(m.tolist() for m in propagators)):
        u, du = m11 * u + m12 * du, m21 * u + m22 * du
    return u, du


def leg_batches(gamma, nu):
    """The (nodes, step) of each batch of propagators the inward leg forms,
    in turn: the fine leg's left nodes and its step h < 0; the coarse leg, in
    the same batch, steps 2 h from every other node. The last batch is the
    one it accepts."""
    batches = []
    batch = spectra.magnus_propagators

    def recorded(sigma, h, nu2):
        batches.append((sigma, h))
        return batch(sigma, h, nu2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "magnus_propagators", recorded)
        spectra._inward_phase(gamma, nu)
    return batches


def inward_leg(gamma, nu):
    """The fine leg's propagators in the batch the inward leg accepts, its
    left nodes and step, and its start (w, w'): w = u/sqrt(z) and
    w' = sqrt(z) (u' - u/(2 z)) from the two-term decaying asymptotics
    u = e^{-z} (1 + gamma/(2 z)) at z_in."""
    sigma, h = leg_batches(gamma, nu)[-1]
    propagators = spectra.magnus_propagators(sigma, h, nu * nu)[:, :len(sigma)]
    z_in = spectra._inward_start(nu)
    c = gamma / (2 * z_in)
    u, du = 1 + c, -(1 + c) - c / z_in
    start = (u / math.sqrt(z_in), math.sqrt(z_in) * (du - u / (2 * z_in)))
    return propagators, sigma, h, start


def counted(counts):
    """The program's kernel, appending the number of propagators of each
    batch to ``counts``."""
    batch = spectra.magnus_propagators

    def kernel(sigma, h, nu2):
        out = batch(sigma, h, nu2)
        counts.append(out.shape[1])
        return out
    return kernel


def bessel_k_phase(nu):
    """Pruefer phase at sigma = 0 of the solution that decays at infinity,
    w = K_{i nu}(e^sigma): atan2(nu K_{i nu}(1), K'_{i nu}(1)), from mpmath.
    K_{i nu}(1) ~ e^{-pi nu / 2}, hence the working precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30 + int(0.7 * nu)):
        mu = mpmath.mpc(0, nu)
        k0 = mpmath.re(mpmath.besselk(mu, 1))
        k1 = -mpmath.re(mpmath.besselk(mu - 1, 1) + mpmath.besselk(mu + 1, 1)) / 2
        return float(mpmath.atan2(nu * k0, k1))


@pytest.fixture(scope="module")
def ladder25():
    return spectra.shoot_negative_eigenvalues(-25.0, 0.7, 4)


class TestSelfAdjointLattice:
    def test_two_pi_interval(self):
        eig = spectra.interval_sa_spectrum(2 * math.pi, 0.0, (-3.5, 3.5))
        assert [v.real for v in eig.values] == pytest.approx([-3, -2, -1, 0, 1, 2, 3])

    def test_theta_shift(self):
        eig = spectra.interval_sa_spectrum(math.pi, math.pi, (0.0, 6.0))
        assert [v.real for v in eig.values] == pytest.approx([1.0, 3.0, 5.0])

    def test_exact_spacing(self):
        eig = spectra.interval_sa_spectrum(0.7, 1.1, (-40.0, 40.0))
        gaps = np.diff([v.real for v in eig.values])
        assert np.allclose(gaps, 2 * math.pi / 0.7, rtol=0, atol=1e-12)

    def test_membership_residual(self):
        eig = spectra.interval_sa_spectrum(1.3, 0.4, (-30.0, 30.0))
        assert max(eig.residuals) < 1e-12


class TestDissipativeLattice:
    def test_nilpotent_case_empty(self):
        eig = spectra.interval_dissipative_lattice(1.0, 0.0, (-10.0, 10.0))
        assert len(eig) == 0

    def test_unit_height_lattice(self):
        eig = spectra.interval_dissipative_lattice(1.0, math.exp(-1), (-20.0, 20.0))
        assert all(v.imag == pytest.approx(1.0, abs=1e-12) for v in eig.values)
        gaps = np.diff([v.real for v in eig.values])
        assert np.allclose(gaps, 2 * math.pi, rtol=0, atol=1e-12)

    def test_eigencondition_residual(self):
        rho = 0.3 - 0.4j
        eig = spectra.interval_dissipative_lattice(2.0, rho, (-15.0, 15.0))
        assert max(eig.residuals) <= 1e-10 * abs(1 / rho)

    def test_upper_half_plane(self):
        eig = spectra.interval_dissipative_lattice(1.5, 0.2 + 0.1j, (-25.0, 25.0))
        assert all(v.imag > 0 for v in eig.values)

    def test_unit_modulus_limit_matches_self_adjoint(self):
        # as |rho| -> 1 the height drops to zero and the real parts match
        theta = 0.9
        rho = (1 - 1e-9) * np.exp(1j * theta)
        diss = spectra.interval_dissipative_lattice(1.0, rho, (-10.0, 10.0))
        sa = spectra.interval_sa_spectrum(1.0, theta, (-10.0, 10.0))
        assert max(abs(v.imag) for v in diss.values) < 1e-8
        assert [v.real for v in diss.values] == pytest.approx(
            [v.real for v in sa.values], abs=1e-8)

    def test_invalid_rho(self):
        with pytest.raises(InvalidRho):
            spectra.interval_dissipative_lattice(1.0, 1.0, (-10.0, 10.0))


def _lattice_real_parts(length, phase, lo, hi):
    """(phase + 2 pi n)/length in [lo, hi], n enumerated over a wide range
    around the window's middle."""
    mid = round((lo + hi) / 2 * length / (2 * math.pi))
    parts = ((phase + 2 * math.pi * n) / length for n in range(mid - 1000, mid + 1000))
    return [x for x in parts if lo <= x <= hi]


_EPS = math.ulp(1.0)

# windows whose edge outruns the spacing 2 pi/l: at l = 300 the stepping
# stalled, at l = 1 one value repeated a million times, and by 1e17, where an
# ulp is 16, 320 points held 126 distinct values
_OUTRUN = [(300.0, (-1e300, 1e300)), (1.0, (-1e300, 1e300)),
           (1.0, (1e17, 1.00000000000002e17))]


class TestLattices:
    # both lattice functions share one loop; each keeps its own residual

    @pytest.mark.parametrize("theta", [0.0, 1.1, -3.0, math.pi, 7.5, -9.25])
    @pytest.mark.parametrize("length", [0.7, 1.0, 2 * math.pi])
    def test_self_adjoint_real_parts_are_exact(self, length, theta):
        # the lattice steps from theta's phase, read as rho's is; theta = 7.5
        # and -9.25 lie outside (-pi, pi], and their lattice is the same up
        # to rounding
        eig = spectra.interval_sa_spectrum(length, theta, (-40.0, 40.0))
        phase = math.atan2(math.sin(theta), math.cos(theta))
        assert [v.real for v in eig.values] == _lattice_real_parts(length, phase, -40.0, 40.0)
        assert [v.real for v in eig.values] == pytest.approx(
            _lattice_real_parts(length, theta, -40.0, 40.0), rel=0, abs=1e-13)
        assert all(v.imag == 0.0 for v in eig.values)

    @pytest.mark.parametrize("rho", [0.36, 0.3 - 0.4j, -0.5j, -0.2, math.exp(-1) * 1j])
    @pytest.mark.parametrize("length", [0.7, 1.0, 2.0])
    def test_dissipative_parts_are_exact(self, length, rho):
        eig = spectra.interval_dissipative_lattice(length, rho, (-30.0, 30.0))
        phase = math.atan2(complex(rho).imag, complex(rho).real)
        assert [v.real for v in eig.values] == _lattice_real_parts(length, phase, -30.0, 30.0)
        assert all(v.imag == math.log(1.0 / abs(rho)) / length for v in eig.values)

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_max_count_truncates_from_the_bottom(self, count):
        for lattice, parameter in ((spectra.interval_sa_spectrum, 7.5),
                                   (spectra.interval_dissipative_lattice, 0.3 - 0.4j)):
            full = lattice(1.3, parameter, (-50.0, 50.0))
            cut = lattice(1.3, parameter, (-50.0, 50.0), max_count=count)
            assert len(full) > 5
            assert cut.values == full.values[:count]
            assert cut.residuals == full.residuals[:count]

    @pytest.mark.parametrize("length, window", _OUTRUN, ids=["l-300", "l-1", "1e17"])
    def test_a_window_past_the_spacing_is_refused(self, length, window):
        for lattice, parameter in ((spectra.interval_sa_spectrum, 0.7),
                                   (spectra.interval_dissipative_lattice, 0.3 - 0.4j)):
            with pytest.raises(DynamicRangeExceeded, match="below 8 ulps"):
                lattice(length, parameter, window)

    @settings(max_examples=200, deadline=None)
    @example(length=2 * math.pi, phase=0.7, decades=15.0, sign=1.0, steps=50.0,
             modulus=0.5)   # a spacing of 1, exactly 8 ulps at 1e15
    @example(length=180.93093727636779, phase=3.0, decades=13.17047698955478, sign=-1.0,
             steps=1.0, modulus=0.5)   # a point on lo, one step below ceil's start
    @given(length=st.floats(1e-3, 300.0), phase=st.floats(-math.pi, math.pi),
           decades=st.floats(0.0, 17.0), sign=st.sampled_from([-1.0, 1.0]),
           steps=st.floats(0.5, 50.0), modulus=st.floats(1e-3, 0.99))
    def test_a_resolved_window_gives_every_lattice_point(self, length, phase, decades,
                                                         sign, steps, modulus):
        # wherever the spacing is at least 8 ulps of the window's edge, out to
        # 1e17, both lattices list the points (phase + 2 pi n)/length, each
        # once and in order. Far from 0 their residuals pass LATTICE_TOL
        # within the rounding of lambda l and raise (test_an_unresolved_
        # residual_raises); that bound is lifted here, where points are read
        lo = sign * 10.0 ** decades
        hi = lo + steps * 2 * math.pi / length
        assume(2 * math.pi / length >= 8 * math.ulp(max(abs(lo), abs(hi))))
        expected = _lattice_real_parts(length, phase, lo, hi)
        rho = cmath.rect(modulus, phase)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectra, "LATTICE_TOL", math.inf)
            sa = spectra.interval_sa_spectrum(length, phase, (lo, hi))
            diss = spectra.interval_dissipative_lattice(length, rho, (lo, hi))
        assert [v.real for v in sa.values] == expected
        assert [v.real for v in diss.values] == _lattice_real_parts(
            length, math.atan2(rho.imag, rho.real), lo, hi)
        assert len(set(expected)) == len(expected)

    def test_lattice_residual_is_the_rounding_of_lambda_l(self, monkeypatch):
        # over 4 lengths, both lattices and windows out to 1e12 each residual
        # stays within 1.99 floors (1 + |lambda| l + |phase|) eps, phase the
        # lattice's in [-pi, pi]: LATTICE_FLOORS keeps a factor of eight above
        monkeypatch.setattr(spectra, "LATTICE_TOL", math.inf)
        worst = 0.0
        for length in (1e-3, 0.7, 2 * math.pi, 300.0):
            spacing = 2 * math.pi / length
            for middle in (0.0, 1e3, -1e6, 1e9, -1e12):
                window = (middle - 50 * spacing, middle + 50 * spacing)
                for theta in (0.7, -3.0, 7.5):
                    eig = spectra.interval_sa_spectrum(length, theta, window)
                    phase = math.atan2(math.sin(theta), math.cos(theta))
                    worst = max(worst, *(r / ((1 + abs(v) * length + abs(phase)) * _EPS)
                                         for v, r in zip(eig.values, eig.residuals)))
                for rho in (0.36, 0.3 - 0.4j, 1e-20j):
                    eig = spectra.interval_dissipative_lattice(length, rho, window)
                    phase = cmath.phase(rho)
                    worst = max(worst, *(r / ((1 + abs(v) * length + abs(phase)) * _EPS)
                                         for v, r in zip(eig.values, eig.residuals)))
        assert 0.5 < worst and 8 * worst <= spectra.LATTICE_FLOORS

    @pytest.mark.parametrize("window", [(1e7, 10000020.0), (-1e9, -1e9 + 20)])
    def test_an_unresolved_residual_raises(self, window):
        # a residual past LATTICE_TOL within LATTICE_FLOORS floors of the
        # rounding of lambda l cannot be told from that rounding: exit 3 as
        # unresolved, not FAIL. Lifting the bound shows the residuals that raise
        for lattice, parameter in ((spectra.interval_sa_spectrum, 0.7),
                                   (spectra.interval_dissipative_lattice, 0.3 - 0.4j)):
            with pytest.raises(DynamicRangeExceeded, match="within the rounding of lambda l"):
                lattice(1.0, parameter, window)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectra, "LATTICE_FLOORS", 0.0)
                assert max(lattice(1.0, parameter, window).residuals) > spectra.LATTICE_TOL

    @pytest.mark.parametrize("length, lattice, parameter", [
        (1e-320, spectra.interval_sa_spectrum, 0.3),
        (1e-320, spectra.interval_dissipative_lattice, 0.3),
        (1e-320, spectra.interval_dissipative_lattice, 0.3 - 0.4j),
        (1e-306, spectra.interval_dissipative_lattice, 1e-300)])
    def test_a_length_past_the_floats_raises(self, length, lattice, parameter):
        # 2 pi/l, and with it phase/l, or the height log(1/|rho|)/l is not a
        # float: DynamicRangeExceeded, not a ValueError or a point at height inf
        with pytest.raises(DynamicRangeExceeded, match="not a float"):
            lattice(length, parameter, (-1.0, 1.0))

    def test_empty_window_is_invalid(self):
        for lattice, parameter in ((spectra.interval_sa_spectrum, 0.0),
                                   (spectra.interval_dissipative_lattice, 0.5)):
            with pytest.raises(InvalidArgument):
                lattice(1.0, parameter, (1.0, 1.0))

class TestShooting:
    def test_matches_independent_reference(self, ladder25):
        assert len(ladder25) == 4
        got = [v.real for v in ladder25.values]
        assert got == pytest.approx(REFERENCE_LADDER, rel=1e-5)

    def test_residuals_small(self, ladder25):
        # measured 4.1e-13
        assert max(ladder25.residuals) < 1e-9

    def test_consecutive_ratio_is_single_step_constant(self, ladder25):
        rep = spectra.progression_ratio(ladder25)
        assert rep.ratio == pytest.approx(math.exp(2 * math.pi / NU25), rel=1e-6)
        assert rep.generator_deviation <= spectra.RATIO_TOL
        # the doubled constant is the square of the consecutive ratio
        assert rep.ratio**2 == pytest.approx(rep.kappa, rel=1e-6)

    def test_set_maps_into_itself_under_kappa(self, ladder25):
        kappa = math.exp(4 * math.pi / NU25)
        values = sorted(v.real for v in ladder25.values)
        for lam in values:
            target = kappa * lam
            if target < values[0] - 0.05 * abs(values[0]):
                continue  # mapped below the retrieved window
            assert any(abs(target - w) <= 0.05 * abs(w) for w in values), (
                f"kappa * {lam} = {target} missing")

    def test_theta_plus_pi_gives_same_spectrum(self, ladder25):
        for turns in (1, 10**6):
            shifted = spectra.shoot_negative_eigenvalues(-25.0, 0.7 + turns * math.pi, 4)
            for a, b in zip(shifted.values, ladder25.values):
                assert a.real == pytest.approx(b.real, rel=1e-9)
            assert max(shifted.residuals) < 1e-8

    def test_weak_coupling_ladder(self):
        eig = spectra.shoot_negative_eigenvalues(-1.0, 0.3, 2)
        rep = spectra.progression_ratio(eig)
        assert rep.generator_deviation <= spectra.RATIO_TOL
        assert rep.generator == pytest.approx(math.exp(2 * math.pi / math.sqrt(0.75)),
                                              rel=1e-12)

    @pytest.mark.parametrize("gamma, theta, count", [(-25.0, 0.7, 4), (-1.0, 0.3, 2)])
    def test_matches_closed_form_ladder(self, gamma, theta, count):
        eig = spectra.shoot_negative_eigenvalues(gamma, theta, count)
        assert len(eig) == count
        rungs = []
        for lam in eig.values:
            n, expect = closed_form_rung(gamma, theta, lam.real)
            rungs.append(n)
            assert lam.real == pytest.approx(expect, rel=1e-8)
        assert rungs == list(range(rungs[0], rungs[0] - count, -1))

    @pytest.mark.parametrize("gamma, theta, count",
                             [(-25.0, 0.7, 4), (-1.0, 0.3, 2), (-2.0, 0.1, 1)])
    def test_scan_oracle_finds_the_same_rungs(self, gamma, theta, count):
        eig = spectra.shoot_negative_eigenvalues(gamma, theta, count)
        scanned = scan_ladder(gamma, theta, count)
        got = [lam.real for lam in eig.values]
        assert [closed_form_rung(gamma, theta, lam)[0] for lam in got] == [
            closed_form_rung(gamma, theta, lam)[0] for lam in scanned]
        assert got == pytest.approx(scanned, rel=1e-8)

    @pytest.mark.parametrize("gamma", [-2.0, -1600.0, -1e4])
    def test_residuals_at_closed_form_values(self, gamma):
        # the inward leg starts an action S_IN past the turning point nu/k,
        # 1.7 nu/k at gamma = -1600 and 1.36 nu/k at -1e4; measured
        # residuals 8.4e-14, 2.7e-13 and 4.7e-13
        eig = spectra.shoot_negative_eigenvalues(gamma, 0.7, 4)
        for lam in eig.values:
            assert lam.real == pytest.approx(
                closed_form_rung(gamma, 0.7, lam.real)[1], rel=1e-8)
        assert max(eig.residuals) <= 1e-8

    @pytest.mark.parametrize("theta", [0.7, 1.9])
    def test_residual_at_the_weakest_sampled_coupling(self, theta):
        # nu = 0.1; measured 4.4e-15
        eig = spectra.shoot_negative_eigenvalues(-0.26, theta, 1)
        assert eig.residuals[0] <= 3e-10

    def test_residual_reads_the_phase_error(self):
        # moving lambda by a factor 1 +- 1e-6 moves the outward start phase by
        # nu * 1e-6 / 2; the residual must follow that by a factor that does
        # not depend on where the matching point falls in the oscillation
        # (a normalized Wronskian read from 0.0105 to 21.3 times it here)
        gammas = [float(g) for g in -np.logspace(4, math.log10(0.5), 40)] + [-0.26]
        worst, slopes = 0.0, []
        for gamma in gammas:
            nu = math.sqrt(-gamma - 0.25)
            phi_in = spectra._inward_phase(gamma, nu)
            for theta in (0.7, 1.9, 2.8):
                (lam,) = spectra._ladder(nu, theta, 1)

                def residual(lam):
                    return abs(math.remainder(
                        spectra._mismatch(nu, theta, lam, phi_in), math.pi))

                r0 = residual(lam)
                worst = max(worst, r0)
                change = max(abs(residual(lam * (1 + e)) - r0) for e in (1e-6, -1e-6))
                slopes.append(change / (nu * 1e-6 / 2))
        # measured 0.90 to 2.73, and a worst residual of 6.7e-13
        assert max(slopes) < 4 * min(slopes)
        assert worst <= 3e-8

    def test_rung_index_from_the_phases(self, monkeypatch):
        # the phase gap of each rung counts its index: a ladder that skips a
        # rung moves it by two multiples of pi and must not pass
        eig = spectra.shoot_negative_eigenvalues(-25.0, 0.7, 3)
        full = spectra._ladder
        monkeypatch.setattr(spectra, "_ladder",
                            lambda nu, phase, count: full(nu, phase, count + 1)[::2])
        with pytest.raises(NumericalInconsistency):
            spectra.shoot_negative_eigenvalues(-25.0, 0.7, 2)
        monkeypatch.setattr(spectra, "_ladder",
                            lambda nu, phase, count: full(nu, phase, count - 1) * 2)
        with pytest.raises(NumericalInconsistency):
            spectra.shoot_negative_eigenvalues(-25.0, 0.7, 2)
        monkeypatch.setattr(spectra, "_ladder", full)
        assert spectra.shoot_negative_eigenvalues(-25.0, 0.7, 3).values == eig.values

    def test_one_inward_shot_per_ladder(self, monkeypatch):
        # the inward phase has no k in it, so one leg serves every rung, and
        # the outward phase is a summed series: one batch of propagators per
        # ladder, the leg and its coarse estimate together
        calls = []
        batch = spectra.magnus_propagators
        monkeypatch.setattr(spectra, "magnus_propagators",
                            lambda *args: calls.append(args) or batch(*args))
        for count in (1, 2, 3, 4):
            calls.clear()
            spectra.shoot_negative_eigenvalues(-25.0, 0.7, count)
            assert len(calls) == 1

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError):
            spectra.shoot_negative_eigenvalues(-2.0, theta, 1)

    def test_requires_oscillatory_coupling(self):
        with pytest.raises(IllPosed):
            spectra.shoot_negative_eigenvalues(0.0, 0.0, 2)

    def test_count_cap(self):
        with pytest.raises(ValueError):
            spectra.shoot_negative_eigenvalues(-25.0, 0.0, 5)

    def test_dynamic_range_guard(self):
        # nu = 0.1: one ladder step alone spans e^{20 pi} >> 1e12
        with pytest.raises(DynamicRangeExceeded):
            spectra.shoot_negative_eigenvalues(-0.26, 0.0, 2)


class TestMagnus:
    @pytest.mark.parametrize("q", [4.0, -9.0])
    def test_constant_coefficient_is_exact_at_any_step(self, q):
        # u'' = q u with (u, u') = (1, 0) at 0: u = cosh(k z) or cos(k z),
        # k = sqrt|q|; one Magnus step is exact for a constant q, whatever
        # its length
        z = np.array([0.0, 0.3, 1.7, 2.0, 5.5])
        u, du = magnus_transfer(
            magnus_propagators(lambda x: np.full_like(x, q), z[:-1], np.diff(z)),
            1.0, 0.0)
        k = math.sqrt(abs(q))
        if q > 0:
            want = (math.cosh(5.5 * k), k * math.sinh(5.5 * k))
        else:
            want = (math.cos(5.5 * k), -k * math.sin(5.5 * k))
        scale = max(abs(want[0]), abs(want[1]))
        # measured <= 6.3e-16 relative
        assert abs(u - want[0]) <= 1e-14 * scale and abs(du - want[1]) <= 1e-14 * scale

    def test_sixth_order_on_the_airy_equation(self):
        # u'' = z u from z = 4 down to -6 with (Ai, Ai') from mpmath: halving
        # the steps divides the error by 2^6
        mpmath = pytest.importorskip("mpmath")

        def exact(z):
            return float(mpmath.airyai(z)), float(mpmath.airyai(z, derivative=1))

        errors = []
        for n in (40, 80, 160):
            z = np.linspace(4.0, -6.0, n + 1)
            u, du = magnus_transfer(
                magnus_propagators(lambda x: x, z[:-1], np.diff(z)), *exact(4.0))
            errors.append(max(abs(u - exact(-6.0)[0]), abs(du - exact(-6.0)[1])))
        # measured ratios 66 and 64
        assert 50 < errors[0] / errors[1] < 70 and 50 < errors[1] / errors[2] < 70

    def test_step_of_either_sign(self):
        # the Gauss-point Magnus step is symmetric, exp(Omega(-h)) =
        # exp(Omega(h))^{-1}, so the transfer back over the same intervals
        # undoes the one forward to rounding
        z = np.linspace(0.0, 3.0, 13)
        forward = magnus_propagators(lambda x: 1 + x * x, z[:-1], np.diff(z))
        back = magnus_propagators(lambda x: 1 + x * x, z[:0:-1], -np.diff(z)[::-1])
        u, du = magnus_transfer(back, *magnus_transfer(forward, 0.3, -0.2))
        # measured 1.5e-13, after a growth of about e^6 and back
        assert abs(u - 0.3) <= 1e-12 and abs(du + 0.2) <= 1e-12


class TestLogGamma:
    def test_log_gamma_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for gamma in np.linspace(-30.0, 0.74, 97):
            mu2 = gamma + 0.25
            mu = math.sqrt(mu2) if mu2 > 0 else 1j * math.sqrt(-mu2)
            for z in (mu, -mu):
                if abs(z) < 1e-12:
                    continue
                ref = complex(mpmath.loggamma(z))
                # measured <= 4.3e-15
                assert abs(spectra.log_gamma(z) - ref) < 5e-14 * max(1.0, abs(ref))
        # the fall-to-center ladder reads arg Gamma(1 + i nu); measured <= 2.7e-15
        for nu in np.linspace(0.05, 100.0, 97):
            ref = complex(mpmath.loggamma(1 + 1j * nu))
            assert abs(spectra.log_gamma(1 + 1j * nu) - ref) < 5e-14 * max(1.0, abs(ref))


class TestInwardShot:
    # (gamma, bound): 10x the distance the Dormand-Prince leg measured from
    # the Bessel-K phase, 2.7e-11, 8.4e-12, 3.3e-13, 9.7e-11, 4.5e-10 and
    # 2.5e-9 in turn; the Magnus leg measures 4.9e-15, 2.7e-14, 2.0e-13,
    # 4.1e-13, 2.5e-13 and 3.9e-13, and the test below holds it to 3e-12
    INWARD_BOUNDS = [(-0.26, 3e-10), (-1.5, 9e-11), (-2.5, 4e-12), (-25.0, 1e-9),
                     (-1600.0, 5e-9), (-1e4, 3e-8)]

    @pytest.mark.parametrize("gamma, bound", INWARD_BOUNDS)
    def test_matches_the_bessel_k_phase(self, gamma, bound):
        nu = math.sqrt(-gamma - 0.25)
        got = spectra._inward_phase(gamma, nu)
        assert abs(math.remainder(got - bessel_k_phase(nu), math.pi)) <= bound

    @pytest.mark.parametrize("gamma", [float(g) for g in -np.geomspace(0.2500001, 5e4, 13)])
    def test_within_3e_12_of_the_bessel_k_phase(self, gamma):
        # the extrapolated leg over the whole range of shoot, nu from 3e-4 to
        # 224; measured <= 6.4e-13, at gamma = -5.3
        nu = math.sqrt(-gamma - 0.25)
        got = spectra._inward_phase(gamma, nu)
        assert abs(math.remainder(got - bessel_k_phase(nu), math.pi)) <= 3e-12

    @pytest.mark.parametrize("gamma", [-0.26, -2.37, -25.0, -1600.0, -1e4])
    def test_residual_is_the_inward_error(self, gamma):
        # the outward phase is exact to rounding, so at each closed-form rung
        # the residual is the inward leg's distance from the Bessel-K phase;
        # measured <= 9.8e-14 apart, at gamma = -1e4, where the rung is read
        # from the closed-form offset arg Gamma(1 + i nu) + nu log 2 ~ 430,
        # which rounds at that size
        nu = math.sqrt(-gamma - 0.25)
        inward_error = abs(math.remainder(
            spectra._inward_phase(gamma, nu) - bessel_k_phase(nu), math.pi))
        for theta in (0.7, 1.9):
            eig = spectra.shoot_negative_eigenvalues(gamma, theta, 1 if nu < 1 else 4)
            for residual in eig.residuals:
                assert abs(residual - inward_error) <= 1e-13

    def test_start_lies_an_action_s_in_out(self):
        for nu in np.logspace(-1, math.log10(224), 40):
            nu = float(nu)
            target = spectra._S_IN + spectra._action(max(nu, 1.0), nu)
            assert spectra._action(spectra._inward_start(nu), nu) >= target

    # (gamma, bound): the bounds the Dormand-Prince leg held; the transfer
    # moves the end phase by at most 4.7e-15 (measured, at gamma = -5e4)
    @pytest.mark.parametrize("gamma, bound", [
        (-0.26, 3e-14), (-2.0, 3e-14), (-25.0, 3e-14), (-1e4, 2e-11), (-5e4, 7e-11)])
    def test_start_error_is_damped(self, gamma, bound):
        # the e^{-2 S_IN} damping: moving the start phase by 0.5 rad, on the
        # leg's own mesh, barely moves the end phase, modulo pi (a shift can
        # cross a branch and end one pi over)
        nu = math.sqrt(-gamma - 0.25)
        propagators, _, _, (w, dw) = inward_leg(gamma, nu)
        radius = math.hypot(nu * w, dw)
        phi0 = math.atan2(nu * w, dw)
        ends = []
        for shift in (0.0, 0.5, -0.5):
            end_w, end_dw = magnus_transfer(propagators,
                                            radius * math.sin(phi0 + shift) / nu,
                                            radius * math.cos(phi0 + shift))
            ends.append(math.atan2(nu * end_w, end_dw))
        for end in ends[1:]:
            assert abs(math.remainder(end - ends[0], math.pi)) <= bound

    # (gamma, bound): the Bessel-K bounds above; measured 2.2e-14, 2.1e-14,
    # 2.0e-13, 6.0e-13, 5.0e-13 and 1.6e-12 apart, mostly the Dormand-Prince
    # leg's own error at tol = 1e-13
    @pytest.mark.parametrize("gamma, bound", INWARD_BOUNDS)
    def test_matches_the_dormand_prince_leg(self, gamma, bound):
        nu = math.sqrt(-gamma - 0.25)
        got = spectra._inward_phase(gamma, nu)
        oracle = dormand_prince_inward_phase(gamma, nu, tol=1e-13)
        assert abs(math.remainder(got - oracle, math.pi)) <= bound

    @pytest.mark.parametrize("gamma", [-0.26, -2.0, -25.0])
    def test_batched_transfer_is_the_scalar_product(self, gamma):
        # each interval's sixth-order Magnus exponent from the textbook
        # commutator form with 2x2 matrices (Blanes, Casas and Ros), its
        # exponential from mpmath, and the product taken one interval at a
        # time, all on the leg's own mesh; measured <= 7.6e-16 relative
        mpmath = pytest.importorskip("mpmath")
        nu = math.sqrt(-gamma - 0.25)
        propagators, sigma, h, (w, dw) = inward_leg(gamma, nu)
        gauss = [0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10]

        def a(sigma):
            return np.array([[0.0, 1.0], [math.exp(2 * sigma) - nu * nu, 0.0]])

        def bracket(x, y):
            return x @ y - y @ x

        state = np.array([w, dw])
        for s0 in sigma.tolist():
            a1, a2, a3 = (a(s0 + c * h) for c in gauss)
            b1 = h * a2
            b2 = math.sqrt(15) / 3 * h * (a3 - a1)
            b3 = 10 / 3 * h * (a3 - 2 * a2 + a1)
            c1 = bracket(b1, b2)
            c2 = -bracket(b1, 2 * b3 + c1) / 60
            omega = b1 + b3 / 12 + bracket(-20 * b1 - b3 + c1, b2 + c2) / 240
            prop = mpmath.expm(mpmath.matrix(omega.tolist()))
            state = np.array(prop.tolist(), dtype=float) @ state
        got = np.array(magnus_transfer(propagators, w, dw))
        assert np.max(np.abs(got - state)) <= 1e-14 * np.max(np.abs(state))

    def test_refines_while_the_estimate_exceeds_the_budget(self, monkeypatch):
        # at gamma = -2 the estimate reads 2.8e-9, then 4.4e-11 and 6.9e-13:
        # it falls about 64-fold as the step count doubles: against a budget of 1e-11 the count is
        # doubled twice, and the phase stays within the Bessel-K bound
        monkeypatch.setattr(spectra, "_PHASE_BUDGET", 1e-11)
        nu = math.sqrt(1.75)
        batches = leg_batches(-2.0, nu)
        assert [len(sigma) for sigma, _ in batches] == [60, 120, 240]
        got = spectra._inward_phase(-2.0, nu)
        assert abs(math.remainder(got - bessel_k_phase(nu), math.pi)) <= 7e-13

    def test_a_mesh_past_its_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_MAX_STEPS", 100)
        with pytest.raises(NoConvergence):
            spectra.shoot_negative_eigenvalues(-25.0, 0.7, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=3e-4, max_value=224.0))
    def test_mesh_falls_strictly_from_the_start_to_one(self, nu):
        # sigma = 0 is z = 1: the fine leg runs from log z_in down to exactly
        # 0 in steps of h, and the coarse leg, from every other node in steps
        # of 2 h, ends there too
        sigma, h = leg_batches(-nu * nu - 0.25, nu)[-1]
        assert sigma[0] == math.log(spectra._inward_start(nu))
        assert np.all(np.diff(sigma) < 0) and h < 0
        assert sigma[-1] + h == 0.0 and sigma[-2] + 2 * h == 0.0
        # the kernel reads the nodes as uniform: measured <= 2.8e-16 sigma_in
        # off h, over 404 values of nu
        assert np.max(np.abs(np.diff(sigma) - h)) <= 3e-15 * sigma[0]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=3e-4, max_value=224.0))
    def test_fused_kernel_is_the_generic_one(self, nu):
        # the polynomial form in e^{2 sigma} against the generic kernel with
        # q = e^{2 sigma} - nu^2 at the Gauss points, on the leg's own mesh:
        # the fine leg, then the coarse leg on every other node. Measured
        # <= 7.0e-14 of each propagator's largest entry over 404 values of
        # nu, at nu = 196, where q2 = e^{2 sigma + h} - nu^2 rounds at the
        # turning point
        sigma, h = leg_batches(-nu * nu - 0.25, nu)[-1]
        n = len(sigma)

        def q(s):
            return np.exp(2 * s) - nu * nu

        want = np.hstack([magnus_propagators(q, sigma, np.full(n, h)),
                          magnus_propagators(q, sigma[::2], np.full(n // 2, 2 * h))])
        got = spectra.magnus_propagators(sigma, h, nu * nu)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 7e-13

    def test_a_vanishing_r_takes_the_limit(self, monkeypatch):
        # r = 0 where g^2 + e f = 0: exp(Omega) = I + Omega, the limit
        # sinh(r)/r -> 1, for a nilpotent exponent and for a zero one
        h = -0.25
        monkeypatch.setattr(spectra, "_omega_polynomials",
                            lambda step, nu2: [0.0] * 4 + [step, 0.0, 0.0, 0.0] + [0.0] * 8)
        got = spectra.magnus_propagators(np.array([1.0, 0.5, 0.25]), h, 2.0)
        assert np.array_equal(got, [[1.0] * 5, [h] * 3 + [2 * h] * 2, [0.0] * 5, [1.0] * 5])
        monkeypatch.setattr(spectra, "_omega_polynomials", lambda step, nu2: [0.0] * 16)
        got = spectra.magnus_propagators(np.array([1.0, 0.5]), h, 2.0)
        assert np.array_equal(got, [[1.0] * 3, [0.0] * 3, [0.0] * 3, [1.0] * 3])

    def test_propagator_count(self, monkeypatch):
        # the benchmark's couplings, gamma in [-2.5, -1.5]: the leg and its
        # coarse estimate take 90 propagators, the same in every run
        counts = []
        monkeypatch.setattr(spectra, "magnus_propagators", counted(counts))
        gammas = [float(g) for g in np.linspace(-2.5, -1.5, 21)]
        for _ in range(2):
            for gamma in gammas:
                spectra._inward_phase(gamma, math.sqrt(-gamma - 0.25))
        assert max(counts) <= 96
        assert counts[:21] == counts[21:]

    def test_propagator_count_at_the_strongest_coupling(self, monkeypatch):
        # gamma = -5e4, nu = 224, the strongest coupling CI shoots at: the leg
        # and its estimate take 7,410 propagators, one batch for the ladder
        counts = []
        monkeypatch.setattr(spectra, "magnus_propagators", counted(counts))
        spectra.shoot_negative_eigenvalues(-5e4, 0.7, 4)
        assert len(counts) == 1 and counts[0] <= 8164


class TestOutwardSeries:
    @pytest.mark.parametrize("nu", [float(nu) for nu in np.logspace(
        math.log10(3e-4), math.log10(224), 13)])
    def test_matches_the_dormand_prince_leg(self, nu):
        # unwrapped, not modulo pi: the series must pick the branch the
        # integrated phase ends on. The leg runs at tol = 1e-13; measured
        # <= 1.6e-11 (at the program's 1e-10 it reads up to 4.2e-8, DP5's
        # own error over a leg that turns through up to 14 nu radians)
        for theta in (0.1, 0.7, 1.9, 2.8):
            for lam in (-1.0, -5.0):
                got = spectra._mismatch(nu, theta, lam, 0.0)
                assert abs(got - outward_shot(nu, theta, lam, tol=1e-13)) <= 2e-10

    @pytest.mark.parametrize("gamma", [-0.2500001, -0.26, -1.0, -2.37, -25.0, -1000.0])
    def test_matches_the_bessel_i_phase(self, gamma):
        # the regular solution is Im(e^{i psi0} 2^{i nu} Gamma(1 + i nu)
        # I_{i nu}(z)), with I_{i nu} and Gamma from mpmath; modulo 2 pi;
        # measured <= 7e-15
        mpmath = pytest.importorskip("mpmath")
        nu = math.sqrt(-gamma - 0.25)
        for theta in (0.1, 0.7, 1.9, 2.8):
            for lam in (-1.0, -0.37, -5.3):
                with mpmath.workdps(30 + int(0.7 * nu)):
                    mu = mpmath.mpc(0, nu)
                    psi0 = theta - nu * mpmath.log(mpmath.sqrt(-mpmath.mpf(lam)))
                    f = mpmath.exp(1j * psi0) * mpmath.power(2, mu) * mpmath.gamma(1 + mu)
                    i0 = mpmath.besseli(mu, 1)
                    i1 = (mpmath.besseli(mu - 1, 1) + mpmath.besseli(mu + 1, 1)) / 2
                    exact = float(mpmath.atan2(nu * mpmath.im(f * i0),
                                               mpmath.im(f * i1)))
                got = spectra._mismatch(nu, theta, lam, 0.0)
                assert abs(math.remainder(got - exact, 2 * math.pi)) <= 7e-14


class TestProgressionRatio:
    def test_constructed_progression(self):
        eig = spectra.EigenList([-1.0 + 0j, -12.5 + 0j, -156.25 + 0j],
                                [0.0, 0.0, 0.0])
        rep = spectra.progression_ratio(eig, nu=NU25)
        assert rep.ratio == pytest.approx(12.5, rel=1e-12)
        assert rep.kappa == pytest.approx(12.502586383667884, rel=1e-12)
        assert rep.kappa_deviation == pytest.approx(abs(12.5 - rep.kappa) / rep.kappa)

    def test_insufficient_data(self):
        eig = spectra.EigenList([-1.0 + 0j], [0.0])
        with pytest.raises(InsufficientData):
            spectra.progression_ratio(eig)


def fk_params(gamma):
    """The results of fk-params: the model's parameters and exponent pair."""
    cfg = cli.load_config(cli.parse_args(["fk-params", f"--gamma={gamma!r}"]))
    return cli.dispatch(cfg)["results"]


class TestFriedrichsKreinParams:
    def test_zero_coupling(self):
        fk = fk_params(0.0)
        assert fk["exponents"] == pytest.approx((1.0, 0.0))
        assert abs(fk["v_friedrichs"] - 1.0) < 3e-15
        assert abs(fk["v_krein"] - (-1j)) < 3e-15

    def test_critical_coupling_coincide(self):
        fk = fk_params(-0.25)
        assert fk["v_friedrichs"] == fk["v_krein"]
        assert fk["exponents"] == pytest.approx((0.5, 0.5))

    def test_half_coupling_exponents(self):
        fk = fk_params(0.5)
        assert fk["exponents"][0] == pytest.approx(0.5 + math.sqrt(3) / 2)
        assert fk["exponents"][1] == pytest.approx(0.5 - math.sqrt(3) / 2)
        assert abs(abs(fk["v_friedrichs"]) - 1) < 2e-15
        assert abs(abs(fk["v_krein"]) - 1) < 2e-15

    def test_range_check(self):
        with pytest.raises(IllPosed):
            models.inverse_square(-1.0).friedrichs_krein()

    @pytest.mark.parametrize("gamma", [0.2, -0.25, 0.5, 0.7, -0.2])
    def test_closed_form(self, gamma):
        # small-x branches of K_mu (DLMF 10.27.4) in the gauge of the
        # decaying solution: v_F = e^{i pi (mu - 1/2)/2}, v_K = e^{-i pi (mu + 1/2)/2}
        mu = math.sqrt(gamma + 0.25)
        v_f, v_k = models.inverse_square(gamma).friedrichs_krein()
        # measured <= 4.1e-16
        assert abs(v_f - cmath.exp(1j * math.pi * (mu - 0.5) / 2)) < 5e-15
        assert abs(v_k - cmath.exp(-1j * math.pi * (mu + 0.5) / 2)) < 5e-15


class TestScalingCovariance:
    @pytest.mark.parametrize("theta", [0.1, 0.7, 2.0])
    def test_mismatch_under_dilation(self, theta):
        # x -> k x maps the problem at lambda = -k^2 to lambda = -1 with the
        # boundary phase shifted by -nu log k
        gamma = -2.0
        nu = math.sqrt(-gamma - 0.25)
        phi_in = spectra._inward_phase(gamma, nu)
        for k in (0.3, 0.7, 2.0, 5.0):
            lhs = spectra._mismatch(nu, theta, -k * k, phi_in)
            rhs = spectra._mismatch(nu, theta - nu * math.log(k), -1.0, phi_in)
            # measured 0: both read the same start phase psi0
            assert abs(lhs - rhs) < 1e-14

    def test_ladder_invariant_under_generator_step(self, ladder25):
        step = math.exp(2 * math.pi / NU25)
        values = sorted(v.real for v in ladder25.values)
        for lam in values:
            target = step * lam
            if target < values[0] * (1 + 0.05):
                continue
            assert any(abs(target - w) <= 0.05 * abs(w) for w in values)
