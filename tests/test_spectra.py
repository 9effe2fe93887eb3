import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extflow import spectra
from extflow.numerics import find_root, magnus_propagators, magnus_transfer, ode_solve
from extflow.errors import (
    DynamicRangeExceeded,
    IllPosed,
    InsufficientData,
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


def inward_leg(gamma, nu):
    """The mesh the inward leg accepts, its q and its start (u, u'), read
    by running the leg once with ``_inward_mesh`` recorded."""
    meshes = []
    mesh = spectra._inward_mesh

    def recorded(*args):
        meshes.append(mesh(*args))
        return meshes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_inward_mesh", recorded)
        spectra._inward_phase(gamma, nu)
    z_in = meshes[-1][0]
    c = gamma / (2 * z_in)
    return meshes[-1], (lambda z: 1 + gamma / (z * z)), (1 + c, -(1 + c) - c / z_in)


def propagators_on(q, mesh):
    return magnus_propagators(q, mesh[:-1], np.diff(mesh))


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


class TestShooting:
    def test_matches_independent_reference(self, ladder25):
        assert len(ladder25) == 4
        got = [v.real for v in ladder25.values]
        assert got == pytest.approx(REFERENCE_LADDER, rel=1e-5)

    def test_residuals_small(self, ladder25):
        # measured 5.0e-14
        assert max(ladder25.residuals) < 1e-9

    def test_consecutive_ratio_is_single_step_constant(self, ladder25):
        rep = spectra.progression_ratio(ladder25)
        assert rep.ratio == pytest.approx(math.exp(2 * math.pi / NU25), rel=1e-6)
        assert rep.generator_deviation < 0.05
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
        assert rep.generator_deviation < 0.10
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
        # residuals 7.0e-14, 8.0e-13 and 1.3e-13
        eig = spectra.shoot_negative_eigenvalues(gamma, 0.7, 4)
        for lam in eig.values:
            assert lam.real == pytest.approx(
                closed_form_rung(gamma, 0.7, lam.real)[1], rel=1e-8)
        assert max(eig.residuals) <= 1e-8

    @pytest.mark.parametrize("theta", [0.7, 1.9])
    def test_residual_at_the_weakest_sampled_coupling(self, theta):
        # nu = 0.1; measured 9.3e-15
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
        # measured 0.90 to 2.73, and a worst residual of 1.5e-12
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


class TestInwardShot:
    # (gamma, bound): 10x the distance the Dormand-Prince leg measured from
    # the Bessel-K phase, 2.7e-11, 8.4e-12, 3.3e-13, 9.7e-11, 4.5e-10 and
    # 2.5e-9 in turn; the Magnus leg measures 8.9e-15, 7.2e-14, 2.2e-13,
    # 4.8e-14, 8.0e-13 and 1.9e-13, and the test below holds it to 3e-12
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
        # 224; measured <= 7.4e-13, at gamma = -5e4
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
        mesh, q, (u, du) = inward_leg(gamma, nu)
        z_in = mesh[0]
        radius = math.hypot(nu * u, z_in * du - 0.5 * u)
        phi0 = math.atan2(nu * u, z_in * du - 0.5 * u)    # w = u/sqrt(z), w_sigma
        propagators = propagators_on(q, mesh)
        ends = []
        for shift in (0.0, 0.5, -0.5):
            w = radius * math.sin(phi0 + shift) / nu
            end_u, end_du = magnus_transfer(
                propagators, w, (radius * math.cos(phi0 + shift) + 0.5 * w) / z_in)
            ends.append(math.atan2(nu * end_u, end_du - 0.5 * end_u))
        for end in ends[1:]:
            assert abs(math.remainder(end - ends[0], math.pi)) <= bound

    # (gamma, bound): the Bessel-K bounds above; measured 3.6e-14, 6.6e-14,
    # 2.1e-13, 2.4e-13, 5.5e-13 and 1.1e-12 apart, mostly the Dormand-Prince
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
        # time, all on the leg's own mesh; measured <= 2.0e-15 relative
        mpmath = pytest.importorskip("mpmath")
        nu = math.sqrt(-gamma - 0.25)
        mesh, q, (u, du) = inward_leg(gamma, nu)
        gauss = [0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10]

        def a(z):
            return np.array([[0.0, 1.0], [1 + gamma / (z * z), 0.0]])

        def bracket(x, y):
            return x @ y - y @ x

        state = np.array([u, du])
        for z0, z1 in zip(mesh[:-1].tolist(), mesh[1:].tolist()):
            h = z1 - z0
            a1, a2, a3 = (a(z0 + c * h) for c in gauss)
            b1 = h * a2
            b2 = math.sqrt(15) / 3 * h * (a3 - a1)
            b3 = 10 / 3 * h * (a3 - 2 * a2 + a1)
            c1 = bracket(b1, b2)
            c2 = -bracket(b1, 2 * b3 + c1) / 60
            omega = b1 + b3 / 12 + bracket(-20 * b1 - b3 + c1, b2 + c2) / 240
            prop = mpmath.expm(mpmath.matrix(omega.tolist()))
            state = np.array(prop.tolist(), dtype=float) @ state
        got = np.array(magnus_transfer(propagators_on(q, mesh), u, du))
        assert np.max(np.abs(got - state)) <= 1e-14 * np.max(np.abs(state))

    def test_refines_while_the_estimate_exceeds_the_budget(self, monkeypatch):
        # at gamma = -2 the estimate reads 1.3e-9 and falls about 64-fold a
        # halving: against a budget of 1e-11 the step is halved twice, and
        # the phase stays within the Bessel-K bound
        steps = []
        mesh = spectra._inward_mesh
        monkeypatch.setattr(spectra, "_inward_mesh",
                            lambda nu, z_in, step: steps.append(step) or mesh(nu, z_in, step))
        monkeypatch.setattr(spectra, "_PHASE_BUDGET", 1e-11)
        nu = math.sqrt(1.75)
        got = spectra._inward_phase(-2.0, nu)
        assert steps == [spectra._MESH_STEP / 2 ** k for k in range(3)]
        assert abs(math.remainder(got - bessel_k_phase(nu), math.pi)) <= 7e-13

    def test_a_mesh_past_its_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_MAX_STEPS", 100)
        with pytest.raises(NoConvergence):
            spectra.shoot_negative_eigenvalues(-25.0, 0.7, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=3e-4, max_value=224.0))
    def test_mesh_falls_strictly_from_the_start_to_one(self, nu):
        z_in = spectra._inward_start(nu)
        mesh = spectra._inward_mesh(nu, z_in, spectra._MESH_STEP)
        assert mesh[0] == z_in and mesh[-1] == 1.0
        assert np.all(np.diff(mesh) < 0)

    def test_propagator_count(self, monkeypatch):
        # the benchmark's couplings, gamma in [-2.5, -1.5]: the leg and its
        # coarse estimate take 90 to 107 propagators, the same in every run
        counts = []
        batch = spectra.magnus_propagators
        monkeypatch.setattr(spectra, "magnus_propagators",
                            lambda q, z, h: counts.append(len(z)) or batch(q, z, h))
        gammas = [float(g) for g in np.linspace(-2.5, -1.5, 21)]
        for _ in range(2):
            for gamma in gammas:
                spectra._inward_phase(gamma, math.sqrt(-gamma - 0.25))
        assert max(counts) <= 120
        assert counts[:21] == counts[21:]


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


class TestFriedrichsKreinParams:
    def test_zero_coupling(self):
        fk = spectra.friedrichs_krein_params(0.0)
        assert fk.exponents == pytest.approx((1.0, 0.0))
        assert abs(fk.v_friedrichs - 1.0) < 3e-15
        assert abs(fk.v_krein - (-1j)) < 3e-15

    def test_critical_coupling_coincide(self):
        fk = spectra.friedrichs_krein_params(-0.25)
        assert fk.v_friedrichs == fk.v_krein
        assert fk.exponents == pytest.approx((0.5, 0.5))

    def test_half_coupling_exponents(self):
        fk = spectra.friedrichs_krein_params(0.5)
        assert fk.exponents[0] == pytest.approx(0.5 + math.sqrt(3) / 2)
        assert fk.exponents[1] == pytest.approx(0.5 - math.sqrt(3) / 2)
        assert abs(abs(fk.v_friedrichs) - 1) < 2e-15
        assert abs(abs(fk.v_krein) - 1) < 2e-15

    def test_range_check(self):
        with pytest.raises(IllPosed):
            spectra.friedrichs_krein_params(-1.0)

    @pytest.mark.parametrize("gamma", [0.2, -0.25, 0.5, 0.7, -0.2])
    def test_closed_form(self, gamma):
        # small-x branches of K_mu (DLMF 10.27.4) in the gauge of the
        # decaying solution: v_F = e^{i pi (mu - 1/2)/2}, v_K = e^{-i pi (mu + 1/2)/2}
        mu = math.sqrt(gamma + 0.25)
        fk = spectra.friedrichs_krein_params(gamma)
        # measured <= 4.1e-16
        assert abs(fk.v_friedrichs - cmath.exp(1j * math.pi * (mu - 0.5) / 2)) < 5e-15
        assert abs(fk.v_krein - cmath.exp(-1j * math.pi * (mu + 0.5) / 2)) < 5e-15


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
