"""Each oracle against a second, independent derivation.

    python3 -m pytest extbench/tests -q

None of these import extflow.
"""

import cmath
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


# ---------------------------------------------------------------------------
# interval model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("length", [0.5, 1.3, 2.0])
@pytest.mark.parametrize("t", [0.3, 1.7, 2.9])
def test_interval_orbit_transports_the_boundary_condition(length, t):
    """Multiplying by e^{ixt} turns f(0) = rho f(l) into g(0) = rho e^{-ilt} g(l),
    and v(rho) = (e^{-l} - rho)/(1 - rho e^{-l}) labels that extension, so the
    flow is rho -> rho e^{-ilt} read through v."""
    a = math.exp(-length)

    def v_of(rho):
        return (a - rho) / (1 - rho * a)

    for v0 in (0.0, 0.3 + 0.2j, -0.7j, cmath.rect(0.95, 2.0)):
        rho0 = v_of(v0)             # v_of is an involution
        want = v_of(rho0 * cmath.exp(-1j * length * t))
        assert abs(oracles.interval_orbit(length, v0, t) - want) < 1e-14


@pytest.mark.parametrize("length", [0.5, 1.3, 2.0])
def test_interval_fixed_point_and_period(length):
    fixed = oracles.interval_fixed_point(length)
    assert abs(oracles.interval_orbit(length, fixed, 0.8) - fixed) < 1e-15
    period = oracles.interval_period(length)
    v0 = 0.4 - 0.3j
    assert abs(oracles.interval_orbit(length, v0, period) - v0) < 1e-14
    for t in np.linspace(0.05, 0.95, 7) * period:
        assert abs(oracles.interval_orbit(length, v0, t) - v0) > 1e-3


# ---------------------------------------------------------------------------
# inverse-square model below -1/4
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [-0.5, -2.0, -25.0])
def test_scaling_turns_the_boundary_phase(gamma):
    """Under (U f)(x) = a^{-1/4} f(a^{-1/2} x), a = e^t, the boundary form
    sqrt(x) sin(nu log x + theta) keeps its shape with theta -> theta - nu t/2.
    The family is pi-periodic in theta, so e^{2 i theta} turns by the
    multiplier angle nu t and comes back at T = 2 pi/nu."""
    nu = oracles.nu_of(gamma)
    theta, t = 0.4, 0.37
    a = math.exp(t)
    x = np.geomspace(1e-6, 1e-2, 9)
    moved = a ** -0.25 * np.sqrt(x / math.sqrt(a)) * np.sin(nu * np.log(x / math.sqrt(a)) + theta)
    shifted = a ** -0.5 * np.sqrt(x) * np.sin(nu * np.log(x) + theta - nu * t / 2)
    assert np.allclose(moved, shifted, rtol=1e-12, atol=0)
    assert oracles.multiplier_angle(gamma, t) == pytest.approx(2 * (nu * t / 2), rel=1e-15)
    assert oracles.multiplier_angle(gamma, oracles.return_time(gamma)) == pytest.approx(2 * math.pi)


def test_rotation_has_the_multiplier():
    centre = 0.2 - 0.35j
    angle = 1.1
    h = 1e-6
    derivative = (oracles.rotate_about(centre, centre + h, angle)
                  - oracles.rotate_about(centre, centre - h, angle)) / (2 * h)
    assert abs(derivative - cmath.exp(1j * angle)) < 1e-8
    assert abs(oracles.rotate_about(centre, centre, angle) - centre) < 1e-15


# ---------------------------------------------------------------------------
# Friedrichs and Krein parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [-0.2, 0.0, 0.2, 0.7])
def test_friedrichs_krein_from_bessel_k(gamma):
    """The decaying solution of -f'' + gamma f/x^2 = i f in the gauge
    e^{-kx} at infinity, k = e^{-i pi/4}, is psi = sqrt(2k/pi) sqrt(x) K_mu(kx).
    Fitting psi = a sqrt(x) I_{-mu}(kx) + b sqrt(x) I_mu(kx) at two points
    gives the coefficients c_2 = a (k/2)^{-mu}/Gamma(1-mu) of x^{1/2-mu} and
    c_1 = b (k/2)^mu/Gamma(1+mu) of x^{1/2+mu}; then v_F = c_2/conj(c_2)
    and v_K = c_1/conj(c_1)."""
    mpmath.mp.dps = 30
    try:
        mu = mpmath.sqrt(mpmath.mpf(gamma) + mpmath.mpf(1) / 4)
        k = mpmath.exp(-1j * mpmath.pi / 4)

        def psi(x):
            return mpmath.sqrt(2 * k / mpmath.pi) * mpmath.sqrt(x) * mpmath.besselk(mu, k * x)

        assert abs(psi(mpmath.mpf(60)) * mpmath.exp(k * 60) - 1) < 1e-2
        xs = (mpmath.mpf("0.3"), mpmath.mpf("0.7"))
        m = mpmath.matrix([[mpmath.sqrt(x) * mpmath.besseli(-mu, k * x),
                            mpmath.sqrt(x) * mpmath.besseli(mu, k * x)] for x in xs])
        a, b = mpmath.lu_solve(m, mpmath.matrix([psi(x) for x in xs]))
        c2 = a * (k / 2) ** (-mu) / mpmath.gamma(1 - mu)
        c1 = b * (k / 2) ** mu / mpmath.gamma(1 + mu)
        v_f = complex(c2 / mpmath.conj(c2))
        v_k = complex(c1 / mpmath.conj(c1))
    finally:
        mpmath.mp.dps = 15
    want_f, want_k = oracles.friedrichs_krein(gamma)
    assert abs(v_f - want_f) < 1e-12
    assert abs(v_k - want_k) < 1e-12


def test_friedrichs_krein_at_zero_coupling():
    v_f, v_k = oracles.friedrichs_krein(0.0)
    assert abs(v_f - 1) < 1e-15 and abs(v_k + 1j) < 1e-15
    v_f, v_k = oracles.friedrichs_krein(-0.25)
    assert abs(v_f - v_k) < 1e-15


# ---------------------------------------------------------------------------
# fall-to-center ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,theta", [(-2.0, 0.3), (-1.7, 2.1), (-25.0, 0.7)])
def test_ladder_rung_meets_the_boundary_condition(gamma, theta):
    """At lambda_n the decaying solution sqrt(x) K_{i nu}(kx), k^2 = -lambda_n,
    is proportional to sqrt(x) sin(nu log x + theta) near 0."""
    nu = oracles.nu_of(gamma)
    mpmath.mp.dps = 30
    try:
        for n in (-1, 0, 1):
            lam = oracles.ladder_rung(gamma, theta, n)
            k = mpmath.sqrt(-mpmath.mpf(lam))
            ratios = []
            for x in (mpmath.mpf("1e-9"), mpmath.mpf("1.7e-9"), mpmath.mpf("2.9e-9")):
                bessel = mpmath.re(mpmath.besselk(1j * nu, k * x))
                ratios.append(bessel / mpmath.sin(nu * mpmath.log(x) + theta))
            assert abs(ratios[1] / ratios[0] - 1) < 1e-7
            assert abs(ratios[2] / ratios[0] - 1) < 1e-7
    finally:
        mpmath.mp.dps = 15


def test_ladder_steps_and_nearest_rung():
    gamma, theta = -2.0, 0.3
    nu = oracles.nu_of(gamma)
    rungs = [oracles.ladder_rung(gamma, theta, n) for n in range(3)]
    for lo, hi in zip(rungs, rungs[1:]):
        assert hi / lo == pytest.approx(math.exp(2 * math.pi / nu), rel=1e-13)
    assert oracles.ladder_rung(gamma, theta + math.pi, 0) == pytest.approx(rungs[1], rel=1e-13)
    for n, lam in enumerate(rungs):
        assert oracles.nearest_rung(gamma, theta, lam * 1.3) == (n, lam)


# ---------------------------------------------------------------------------
# interval grid
# ---------------------------------------------------------------------------

def _dense(length, n, t, s):
    h = length / n
    x = np.arange(1, n + 1) * h
    u = np.diag(np.exp(1j * x * t))
    v = np.eye(n, k=-int(round(s / h)))
    return np.linalg.norm(u @ v - np.exp(1j * s * t) * (v @ u), 2)


@pytest.mark.parametrize("n", [16, 24, 40])
@pytest.mark.parametrize("t", [0.4, 2.7])
def test_weyl_residual_against_dense_norm(n, t):
    length = 1.3
    h = length / n
    off = (n // 3 + 0.5) * h
    assert oracles.weyl_residual(t, off, h) == pytest.approx(_dense(length, n, t, off), rel=1e-12)
    on = (n // 3) * h
    assert _dense(length, n, t, on) < 1e-14
    assert oracles.weyl_residual(t, on, h) < 1e-14


def test_nilpotency_index_is_the_length():
    n, length = 24, 1.7
    h = length / n
    shift = np.eye(n, k=-1)
    power = np.eye(n)
    first_zero = None
    for m in range(1, n + 2):
        power = power @ shift
        if np.linalg.norm(power, 2) <= 1e-9:
            first_zero = m
            break
    assert abs(first_zero * h - length) <= h


def test_fitted_order_of_a_power_law():
    hs = [0.1, 0.05, 0.025]
    assert oracles.fitted_order(hs, [3 * h ** 1.25 for h in hs]) == pytest.approx(1.25, rel=1e-12)


def test_digits_are_capped():
    assert oracles.digits(0.0) == pytest.approx(oracles.MAX_DIGITS)
    assert oracles.digits(1e-6) == pytest.approx(6.0)
