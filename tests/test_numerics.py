import math

import numpy as np
import pytest

from extflow import numerics
from extflow.errors import NoSignChange


class TestQuadFinite:
    def test_exponential(self):
        # antiderivative oracle: (e^2 - 1)/2
        res = numerics.quad_finite(lambda x: np.exp(2 * x), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx((math.e**2 - 1) / 2, abs=1e-12)

    def test_constant(self):
        res = numerics.quad_finite(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_complex_full_period(self):
        res = numerics.quad_finite(lambda x: np.exp(1j * x), 0.0, 2 * math.pi, 1e-12)
        assert abs(res.value) < 1e-12

    def test_polynomial_exactness_to_degree_13(self):
        # the embedded pair is exact for these; checks the tabulated nodes
        rng = np.random.default_rng(7)
        for deg in range(14):
            coeffs = rng.standard_normal(deg + 1)
            exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
            res = numerics.quad_finite(
                lambda x, c=coeffs: sum(ck * x**k for k, ck in enumerate(c)),
                0.0, 1.0, 1e-10,
            )
            assert res.value == pytest.approx(exact, rel=1e-13, abs=1e-14)

    def test_budget_exhaustion(self):
        with pytest.raises(numerics.NoConvergence):
            numerics.quad_finite(
                lambda x: np.abs(x - 1 / math.pi) ** -0.9, 0.0, 1.0, 1e-13,
                max_panels=12,
            )


class TestOdeSolve:
    def test_exponential_growth(self):
        # y' = y with y(0) = 1: y = e^x
        sol = numerics.ode_solve(lambda x, y: y, 0.0, 1.0, 1.0, tol=1e-12)
        assert abs(sol.y_end - math.e) < 4e-12   # measured 3.5e-13

    def test_harmonic_oscillator(self):
        # the ratio y = u/u' of u'' = -u, u = sin x, obeys y' = 1 + y^2 and is
        # tan x; it steepens towards pi/2, so the error control rejects steps
        def run():
            return numerics.ode_solve(lambda x, y: 1.0 + y * y, 0.0, 0.0, 1.5,
                                      tol=1e-10)

        sol = run()
        assert abs(sol.y_end - math.tan(1.5)) < 5e-9 * math.tan(1.5)   # measured 4.7e-10
        assert sol.rejected > 0
        again = run()
        assert again.rejected == sol.rejected
        assert np.array_equal(again.xs, sol.xs) and np.array_equal(again.ys, sol.ys)

    def test_real_coefficient_keeps_real_state(self):
        sol = numerics.ode_solve(lambda x, y: -y, 0.0, 1.0, 1.0)
        assert sol.ys.dtype == np.float64
        assert isinstance(sol.y_end, float)

    def test_backward_run(self):
        # y' = -2 x y from x = 2 down to 0: y = e^{-x^2} scaled to y(2) = 1;
        # the nodes come back in ascending order and y_end is the value at 0
        sol = numerics.ode_solve(lambda x, y: -2 * x * y, 2.0, 1.0, 0.0, tol=1e-12)
        assert not sol.forward
        assert np.all(np.diff(sol.xs) > 0) and sol.xs[0] == 0.0
        assert sol.y_end == pytest.approx(math.exp(4.0), rel=3e-12)   # measured 2.3e-13

    def test_long_run_over_ten_periods(self):
        # y' = cos x over 20 pi: y = sin x at every node, with no drift
        sol = numerics.ode_solve(lambda x, y: math.cos(x), 0.0, 0.0, 20 * math.pi,
                                 tol=1e-10)
        assert np.max(np.abs(sol.ys - np.sin(sol.xs))) < 6e-10   # measured 5.8e-11

    def test_oscillatory_euler_equation(self):
        # u'' = gamma u / x^2 below -1/4 is solved by sqrt(x) sin(nu log x + 0.7),
        # and its Pruefer angle (tan phi = u/u') obeys
        # phi' = cos^2 phi - (gamma/x^2) sin^2 phi. The phase winds ever faster
        # towards 0, so the step control rejects steps along the way; a stale
        # derivative reused after a rejection reads 1.2e-6 here.
        gamma = -2.0
        nu = math.sqrt(-gamma - 0.25)

        def phase(x):
            angle = nu * math.log(x) + 0.7
            return math.atan2(x * math.sin(angle),
                              0.5 * math.sin(angle) + nu * math.cos(angle))

        def rate(x, phi):
            return math.cos(phi) ** 2 - gamma / (x * x) * math.sin(phi) ** 2

        sol = numerics.ode_solve(rate, 1e-3, phase(1e-3), 1.0, tol=1e-10)
        assert sol.rejected > 0
        # measured 1.6e-8
        assert abs(math.remainder(sol.y_end - phase(1.0), math.pi)) < 1.6e-7

    def test_step_underflow_near_singularity(self):
        # y' = y^2 with y(0) = 1 blows up at x = 1
        from extflow.errors import StepUnderflow
        with pytest.raises(StepUnderflow):
            numerics.ode_solve(lambda x, y: y * y, 0.0, 1.0, 2.0, tol=1e-10,
                               max_steps=2000)


def _assert_root(f, lo, hi, root, tol=1e-12):
    """The bracket closes within 20 evaluations of f, and its midpoint lies
    within tol/2 of the root."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    got = numerics.find_root(counted, lo, hi, tol)
    assert len(calls) <= 20
    assert abs(got - root) <= 0.5 * tol


class TestFindRoot:
    def test_sqrt2(self):
        _assert_root(lambda x: x * x - 2, 1.0, 2.0, math.sqrt(2))

    def test_pi(self):
        _assert_root(math.sin, 3.0, 4.0, math.pi)

    def test_log3(self):
        _assert_root(lambda x: math.exp(x) - 3, 0.0, 2.0, math.log(3))

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            numerics.find_root(lambda x: x * x + 1, -1.0, 1.0, 1e-10)
