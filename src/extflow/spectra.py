"""Spectral oracles: closed-form lattices for the interval model, the
closed-form negative ladder of the inverse-square model under the
oscillatory boundary condition with a shooting residual per rung, and
geometric-progression diagnostics.

The fall-to-center ladder: for coupling gamma < -1/4 the boundary form
sqrt(x) sin(nu log x + theta) is pi-periodic in theta, so the negative
eigenvalues of one self-adjoint extension form a geometric progression
with consecutive ratio exp(2 pi / nu). The squared factor exp(4 pi / nu)
maps the set into itself two rungs at a time and is reported alongside as
``kappa``.

Each rung is read from the closed form and checked by shooting, which shares
no code with it: two modified Pruefer phases in sigma = log(k x) meet at
x = 1/k. The outward one sums the regular solution's power series (DLMF
10.25.2). The inward one is a Dormand-Prince shot with no k in it, one per
ladder, started where the WKB action past max(nu, 1) reaches S_IN = 18,
which damps its start error by e^{-36}. The residual is the phase gap
modulo pi, in radians, and the gap's multiple of pi counts the rungs, so a
ladder that skips or repeats one raises NumericalInconsistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DynamicRangeExceeded,
    IllPosed,
    InsufficientData,
    InvalidArgument,
    InvalidRho,
    NumericalInconsistency,
)
from .models import inverse_square, log_gamma
# find_root is unused here; extbench/tracing.py wraps spectra.find_root by name
from .numerics import find_root, ode_solve  # noqa: F401

_RANGE_LIMIT = 1e12


@dataclass
class EigenList:
    """Eigenvalues sorted by (real, imaginary) part with residual estimates."""

    values: list
    residuals: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        order = sorted(range(len(self.values)),
                       key=lambda i: (self.values[i].real, self.values[i].imag))
        self.values = [complex(self.values[i]) for i in order]
        self.residuals = [float(self.residuals[i]) for i in order]

    def __len__(self):
        return len(self.values)


def interval_sa_spectrum(length: float, theta: float, window,
                         max_count: int = 10**6) -> EigenList:
    """Lattice (theta + 2 pi n)/length inside the window, the spectrum of the
    extension with boundary condition f(0) = e^{i theta} f(length)."""
    if not length > 0:
        raise InvalidArgument("length must be positive")
    lo, hi = window
    if not lo < hi:
        raise InvalidArgument("empty window")
    spacing = 2 * math.pi / length
    n_lo = math.ceil((lo - theta / length) / spacing)
    values = []
    n = n_lo
    while True:
        lam = (theta + 2 * math.pi * n) / length
        if lam > hi or len(values) >= max_count:
            break
        if lam >= lo:
            values.append(complex(lam))
        n += 1
    residuals = [abs(np.exp(-1j * lam * length) - np.exp(-1j * theta))
                 for lam in values]
    return EigenList(values, residuals, {"length": length, "theta": theta})


def interval_dissipative_lattice(length: float, rho: complex, window,
                                 max_count: int = 10**6) -> EigenList:
    """Eigenvalues of the extension with f(0) = rho f(length), 0 <= |rho| < 1:
    the upper-half-plane lattice from e^{-i lambda length} = 1/rho; empty for
    rho = 0 (the nilpotent case has empty spectrum)."""
    if not length > 0:
        raise InvalidArgument("length must be positive")
    rho = complex(rho)
    if abs(rho) >= 1.0:
        raise InvalidRho(f"need |rho| < 1, got {abs(rho)}")
    if rho == 0:
        return EigenList([], [], {"length": length, "rho": rho})
    lo, hi = window
    if not lo < hi:
        raise InvalidArgument("empty window")
    im_part = math.log(1.0 / abs(rho)) / length
    arg = math.atan2(rho.imag, rho.real)
    spacing = 2 * math.pi / length
    n_lo = math.ceil((lo - arg / length) / spacing)
    values = []
    n = n_lo
    while True:
        re_part = (arg + 2 * math.pi * n) / length
        if re_part > hi or len(values) >= max_count:
            break
        if re_part >= lo:
            values.append(complex(re_part, im_part))
        n += 1
    residuals = [abs(np.exp(-1j * lam * length) - 1.0 / rho) for lam in values]
    return EigenList(values, residuals, {"length": length, "rho": rho})


# ---------------------------------------------------------------------------
# shooting for the inverse-square model below the critical coupling
# ---------------------------------------------------------------------------

# the inward shot starts where the WKB action beyond the matching point (or
# beyond the turning point, when that lies outside it) is S_IN. Shot inward,
# the decaying solution grows like e^{S} and the other solution, which a
# start error mixes in, shrinks like e^{-S}, so the phase error falls by
# e^{-2 S} (Olver, Asymptotics and Special Functions, ch. 6): e^{-36} =
# 2.3e-16 damps even an O(1) start error below rounding at x = 1/k
_S_IN = 18.0
# absolute local error per DP5 step, in radians of phase
_PHASE_TOL = 1e-10


def _phase_rate(nu: float):
    """phi' = nu - (e^{2 sigma}/nu) sin^2 phi, the modified Pruefer angle
    (w = r sin phi, w' = nu r cos phi) of w'' = (e^{2 sigma} - nu^2) w."""
    exp, sin = math.exp, math.sin   # looked up once: six calls per DP5 step

    def phase_rate(sigma, phi):
        s = sin(phi)
        return nu - exp(2 * sigma) / nu * s * s
    return phase_rate


def _action(z: float, nu: float) -> float:
    """WKB action S(z) = int_nu^z sqrt(t^2 - nu^2) dt / t from the turning
    point z = nu, in closed form."""
    return math.sqrt(z * z - nu * nu) - nu * math.acos(nu / z)


def _inward_start(nu: float) -> float:
    """k x_in with S(k x_in) = S_IN + S(max(nu, 1)), by Newton's method from
    above: S(z) > z - pi nu / 2, so the first guess is past the root, and S
    is increasing and convex, so no Newton step undershoots it. A step that
    would cross the target by rounding is not taken."""
    target = _S_IN + _action(max(nu, 1.0), nu)
    z = target + 0.5 * math.pi * nu
    while True:
        nxt = z - (_action(z, nu) - target) * z / math.sqrt(z * z - nu * nu)
        if not nxt < z or _action(nxt, nu) < target:
            return z
        z = nxt


def _inward_phase(gamma: float, nu: float) -> float:
    """Pruefer phase at sigma = 0 of the solution that decays at infinity,
    the same for every rung: shot inward from sigma = log(k x_in), beyond
    the turning point, from the two-term decaying asymptotics
    u = e^{-k x} (1 + gamma/(2 k x)) up to a constant factor (DLMF 10.40.2).
    Any error in that start data is damped by e^{-2 S_IN} on the way in."""
    kx_in = _inward_start(nu)
    c = gamma / (2 * kx_in)
    u, xdu = 1 + c, -kx_in * (1 + c) - c      # u and x u' at x_in
    return ode_solve(_phase_rate(nu), math.log(kx_in),
                     math.atan2(nu * u, xdu - 0.5 * u), 0.0,
                     tol=_PHASE_TOL).y_end


def _mismatch(nu: float, theta: float, lam: float, phi_in: float) -> float:
    """Unwrapped phase gap phi_out - phi_in at x = 1/sqrt(|lam|): a multiple
    of pi exactly at an eigenvalue; a rung's residual is |remainder(gap, pi)|.

    With z = k x = e^sigma and lam = -k^2, w = u/sqrt(x) solves
    w'' = (e^{2 sigma} - nu^2) w. The solution with the boundary form
    sqrt(x) sin(nu log x + theta) is w = Im(e^{i psi0} z^{i nu} sum a_m z^2m),
    psi0 = theta - nu log k, a_m = (1/4)^m / (m! (1 + i nu)_m) (DLMF 10.25.2
    over Gamma(1 + i nu)), summed at z = 1 to 1e-17. The phase lags
    psi0 + nu sigma by less than pi (phi' <= nu, and phi never crosses a
    multiple of pi downward), which fixes the branch; ``phi_in`` is the
    ladder's one ``_inward_phase``."""
    psi0 = theta - nu * math.log(math.sqrt(-lam))
    term, total, slope = 1.0 + 0j, 1.0 + 0j, 0j   # slope: sum of 2 m a_m
    for m in range(1, 64):            # |a_m| <= 1 / (4^m m!^2): m <= 10
        term /= 4 * m * (m + 1j * nu)
        total += term
        slope += 2 * m * term
        if 2 * m * abs(term) <= 1e-17 * abs(total):
            break
    c = complex(math.cos(psi0), math.sin(psi0))
    w, dw = (c * total).imag, (c * (1j * nu * total + slope)).imag
    phi_out = psi0 + math.remainder(math.atan2(nu * w, dw) - psi0, 2 * math.pi)
    return phi_out - phi_in


def _ladder(nu: float, phase: float, count: int) -> list:
    """The first ``count`` rungs with nu log|lambda| >= -1.2 pi, from the
    small-x form of sqrt(x) K_{i nu}(k x) (DLMF 10.45): lambda_n = -k_n^2
    with nu log k_n = offset + n pi, where any branch of arg Gamma(1 + i nu)
    works (n absorbs multiples of pi). Listed by rising n, so each rung lies
    one ladder step below the one before; a rung that is not a positive
    finite float (near nu = 0) raises DynamicRangeExceeded."""
    offset = phase + log_gamma(1 + 1j * nu).imag + nu * math.log(2.0)
    n_lo = math.ceil(-0.6 - offset / math.pi)
    try:
        values = [-math.exp(2 * (offset + n * math.pi) / nu)
                  for n in range(n_lo, n_lo + count)]
    except OverflowError:
        values = [-math.inf]
    if not all(-math.inf < lam < 0 for lam in values):
        raise DynamicRangeExceeded(f"a rung leaves the positive floats at nu = {nu:.3e}")
    return values


def shoot_negative_eigenvalues(gamma: float, theta: float, count: int) -> EigenList:
    """Negative eigenvalues of the self-adjoint extension with boundary
    phase theta, read from the closed-form ladder; at most four, capped by
    dynamic range. Each residual is the shooting phase gap (``_mismatch``)
    at the closed-form value, modulo pi, which shares no code with the
    ladder. The gap's multiple of pi must fall by one from each rung to the
    next, else NumericalInconsistency: a skipped or repeated rung moves it
    by another amount."""
    if gamma >= -0.25:
        raise IllPosed("shooting needs gamma < -1/4 (oscillatory boundary)")
    if not 1 <= count <= 4:
        raise InvalidArgument("count must be between 1 and 4")
    nu = math.sqrt(-gamma - 0.25)
    log_span = 2 * math.pi / nu * (count - 1)   # no exp: it overflows near nu = 0
    if log_span > math.log(_RANGE_LIMIT):
        raise DynamicRangeExceeded(
            f"{count} rungs would span a factor e^{log_span:.4g} > {_RANGE_LIMIT:.0e}")
    phase = math.remainder(theta, math.pi)   # ValueError unless finite
    values = _ladder(nu, phase, count)
    phi_in = _inward_phase(gamma, nu)
    gaps = [_mismatch(nu, phase, lam, phi_in) for lam in values]
    turns = [round(gap / math.pi) for gap in gaps]
    if any(b - a != -1 for a, b in zip(turns, turns[1:])):
        raise NumericalInconsistency(
            f"shooting phases put the rungs at multiples {turns} of pi, "
            "not one apart")
    residuals = [abs(math.remainder(gap, math.pi)) for gap in gaps]
    return EigenList(values, residuals,
                     {"gamma": gamma, "theta": theta, "nu": nu})


@dataclass(frozen=True)
class ProgressionReport:
    ratio: float                 # geometric mean of consecutive magnitude ratios
    generator: float | None      # predicted consecutive ratio exp(2 pi / nu)
    kappa: float | None          # doubled-step invariance factor exp(4 pi / nu)
    generator_deviation: float | None
    kappa_deviation: float | None


def progression_ratio(eigs: EigenList, nu: float | None = None) -> ProgressionReport:
    """Geometric-mean consecutive ratio of same-sign eigenvalues, compared
    with the predicted ladder constants when nu is known."""
    values = [lam.real for lam in eigs.values if lam.real < 0]
    if len(values) < 2:
        raise InsufficientData("need at least two same-sign eigenvalues")
    mags = sorted(abs(v) for v in values)
    logs = np.diff(np.log(mags))
    ratio = float(np.exp(np.mean(logs)))
    if nu is None:
        nu = eigs.meta.get("nu")
    if nu is None:
        return ProgressionReport(ratio, None, None, None, None)
    generator = math.exp(2 * math.pi / nu)
    kappa = math.exp(4 * math.pi / nu)
    return ProgressionReport(
        ratio,
        generator,
        kappa,
        abs(ratio - generator) / generator,
        abs(ratio - kappa) / kappa,
    )


@dataclass(frozen=True)
class FKParams:
    v_friedrichs: complex
    v_krein: complex
    exponents: tuple


def friedrichs_krein_params(gamma: float) -> FKParams:
    """Parameters of the extremal nonnegative extensions together with the
    small-x exponent pair (1/2 + mu, 1/2 - mu)."""
    if not -0.25 <= gamma < 0.75:
        raise IllPosed("semibounded range is -1/4 <= gamma < 3/4")
    model = inverse_square(gamma)
    mu = math.sqrt(max(gamma + 0.25, 0.0))
    return FKParams(
        model.vn_from_boundary("friedrichs"),
        model.vn_from_boundary("krein"),
        (0.5 + mu, 0.5 - mu),
    )
