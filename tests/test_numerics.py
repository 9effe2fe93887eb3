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
        # q = 1 with u = u' = 1 at 0: u = e^x
        sol = numerics.ode_solve(lambda x: 1.0, 0.0, (1.0, 1.0), 1.0, tol=1e-11)
        assert sol.y_end[0] == pytest.approx(math.e, abs=1e-9)

    def test_harmonic_oscillator(self):
        sol = numerics.ode_solve(lambda x: -1.0, 0.0, (0.0, 1.0), math.pi, tol=1e-10)
        assert abs(sol.y_end[0]) < 1e-8

    def test_real_coefficient_keeps_real_state(self):
        sol = numerics.ode_solve(lambda x: -1.0, 0.0, (0.0, 1.0), 1.0)
        assert sol.ys.dtype == np.float64
        assert isinstance(sol.y_end[0], float)

    def test_backward_deficiency_equation(self):
        # u'' = -i u, decaying branch e^{-e^{-i pi/4} x}; closed-form comparison.
        # Data rescaled by a positive real so the state starts at O(1); the
        # comparison is relative, which the rescaling leaves untouched.
        k = np.exp(-1j * math.pi / 4)
        y40 = np.exp(-k * 40.0) * math.exp(40.0 * k.real)
        sol = numerics.ode_solve(lambda x: -1j, 40.0, (y40, -k * y40), 1.0, tol=1e-11)
        expect = np.exp(-k * 1.0) * math.exp(40.0 * k.real)
        assert abs(sol.y_end[0] - expect) / abs(expect) < 1e-6

    def test_energy_conservation_long_run(self):
        sol = numerics.ode_solve(lambda x: -1.0, 0.0, (0.0, 1.0), 20 * math.pi,
                                 tol=1e-10)
        energy = np.abs(sol.ys[:, 0]) ** 2 + np.abs(sol.ys[:, 1]) ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-7

    def test_oscillatory_euler_equation(self):
        # u'' = gamma u / x^2 below -1/4 is solved by sqrt(x) sin(nu log x + 0.7).
        # The phase winds ever faster towards 0, so the step control rejects
        # steps along the way; a stale derivative reused after a rejection
        # costs two orders of magnitude here.
        gamma = -2.0
        nu = math.sqrt(-gamma - 0.25)

        def exact(x):
            phase = nu * math.log(x) + 0.7
            return (math.sqrt(x) * math.sin(phase),
                    (0.5 * math.sin(phase) + nu * math.cos(phase)) / math.sqrt(x))

        sol = numerics.ode_solve(lambda x: gamma / (x * x), 1e-3, exact(1e-3), 1.0,
                                 tol=1e-9)
        u, du = exact(1.0)
        assert abs(sol.y_end[0] - u) + abs(sol.y_end[1] - du) < 1e-8

    def test_step_underflow_near_singularity(self):
        from extflow.errors import StepUnderflow
        with pytest.raises(StepUnderflow):
            numerics.ode_solve(lambda x: 1 / x**4, 1.0, (1.0, 0.0), 0.0, tol=1e-10,
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
