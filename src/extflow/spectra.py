"""Spectral oracles: closed-form lattices for the interval model, the
closed-form negative ladder of the inverse-square model under the
oscillatory boundary condition with a shooting residual per rung, and
geometric-progression diagnostics. The Friedrichs and Krein parameters of
the semibounded couplings are the model's closed forms
(``InverseSquareModel.friedrichs_krein``), which ``fk-params`` reads directly.

The fall-to-center ladder: for coupling gamma < -1/4 the boundary form
sqrt(x) sin(nu log x + theta) is pi-periodic in theta, so the negative
eigenvalues of one self-adjoint extension form a geometric progression
with consecutive ratio exp(2 pi / nu). The squared factor exp(4 pi / nu)
maps the set into itself two rungs at a time and is reported alongside as
``kappa``.

Each rung is read from the closed form and checked by shooting, which shares
no code with it: two modified Pruefer phases in sigma = log(k x) meet at
x = 1/k. The outward one sums the regular solution's power series (DLMF
10.25.2). The inward one has no k in it and is formed once per ladder: the
decaying solution of w'' = (e^{2 sigma} - nu^2) w is carried to sigma = 0
by sixth-order Magnus propagators on a uniform mesh whose step count is
closed form in nu. On a step of one length their exponent is a polynomial
in e^{2 sigma}, so the leg and its error estimate, the same leg on every
other node, come from one fused batch. It starts where the WKB action past
max(nu, 1) reaches S_IN = 18, which damps its start error by e^{-36}. The
residual is the phase gap modulo pi, in radians, and the gap's multiple of
pi counts the rungs, so a ladder that skips or repeats one raises
NumericalInconsistency. The Magnus kernel, specialised to this equation,
and the Stirling series of log Gamma live here with their only caller. Only
the three functions that form arrays import numpy, so ``spectrum``, whose
lattices and residuals are ``math`` and ``cmath``, runs on the standard library.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    DynamicRangeExceeded,
    IllPosed,
    InsufficientData,
    InvalidArgument,
    InvalidRho,
    NoConvergence,
    NumericalInconsistency,
)
# kept only for the benchmark: extbench/tracing.py wraps spectra.find_root and
# spectra.ode_solve by name, and nothing here calls either
from .numerics import find_root, ode_solve  # noqa: F401

_RANGE_LIMIT = 1e12
# the largest passing residual |e^{-i lambda l} - e^{-i theta}| or
# |rho e^{-i lambda l} - 1| of a lattice point: 50 times the worst measured
# near 0; and the floors (1 + |lambda| l + |phase|) eps, the rounding of lambda l
# (measured <= 1.99 on 1.2 million points out to 1e12, phase theta's or rho's in
# [-pi, pi]), within which a residual past LATTICE_TOL is unresolved
LATTICE_TOL, LATTICE_FLOORS = 1e-10, 16.0
# a lattice point (phase + 2 pi n)/l takes three roundings, each of relative
# size u = 2^-53 at most, so it lies within 3 u (M + 2 s) + u s/2 of its
# value in exact arithmetic on the same floats, for M the larger modulus of
# the window's edges and s = 2 pi/l the spacing. u M < ulp(M), so a spacing
# of at least 8 ulp(M) keeps consecutive points over s/5 apart and rising
# with n, and |n| < M/s + 4 < 2^50 converts to a float exactly: each point is
# distinct and the stepping advances. A narrower spacing is refused
_SPACING_ULPS = 8


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


def _lattice(length: float, phase: float, height: float, window, max_count: int) -> list:
    """The points (phase + 2 pi n)/length + i height, n an integer, whose real
    part lies inside the window, at most max_count of them; DynamicRangeExceeded
    where the window outruns the spacing (``_SPACING_ULPS``) or 2 pi/length,
    and with it phase/length, or the height is not a float."""
    lo, hi = window
    if not lo < hi:
        raise InvalidArgument("empty window")
    spacing, edge = 2 * math.pi / length, max(abs(lo), abs(hi))
    if not (math.isfinite(spacing) and math.isfinite(height)):     # |phase| <= pi: so is phase/l
        raise DynamicRangeExceeded(f"2pi/l or the height is not a float at l = {length:g}")
    if spacing < _SPACING_ULPS * math.ulp(edge):
        raise DynamicRangeExceeded(
            f"lattice spacing 2pi/l = {spacing:g} is below {_SPACING_ULPS} ulps of "
            f"the window edge {edge:g}: its points would not be distinct")
    # one step early: the quotient's rounding can lift ceil past a point on lo
    n = math.ceil((lo - phase / length) / spacing) - 1
    values = []
    while len(values) < max_count:
        re_part = (phase + 2 * math.pi * n) / length
        if re_part > hi:
            break
        if re_part >= lo:
            values.append(complex(re_part, height))
        n += 1
    return values


def _resolved(values, residuals, length: float, phase: float) -> list:
    """The residuals of the lattice points values; DynamicRangeExceeded at the
    first past LATTICE_TOL within LATTICE_FLOORS floors of the rounding."""
    for lam, r in zip(values, residuals):
        if LATTICE_TOL < r <= LATTICE_FLOORS * (1 + abs(lam) * length + abs(phase)) * math.ulp(1.0):
            raise DynamicRangeExceeded(f"lattice residual {r:.3g} at lambda = {lam.real:g} "
                                       f"is within the rounding of lambda l")
    return residuals


def interval_sa_spectrum(length: float, theta: float, window,
                         max_count: int = 10**6) -> EigenList:
    """Lattice (theta + 2 pi n)/length inside the window, the spectrum of the
    extension with boundary condition f(0) = e^{i theta} f(length), stepped
    from theta's phase, read as rho's is, so any theta gives distinct points;
    DynamicRangeExceeded where a point is out of range (``_lattice``) or its
    residual unresolved (``_resolved``)."""
    if not length > 0:
        raise InvalidArgument("length must be positive")
    phase = theta if abs(theta) <= math.pi else math.atan2(math.sin(theta), math.cos(theta))
    values = _lattice(length, phase, 0.0, window, max_count)
    residuals = [abs(cmath.exp(-1j * lam * length) - cmath.exp(-1j * theta))
                 for lam in values]
    return EigenList(values, _resolved(values, residuals, length, phase),
                     {"length": length, "theta": theta})


def interval_dissipative_lattice(length: float, rho: complex, window,
                                 max_count: int = 10**6) -> EigenList:
    """Eigenvalues of the extension with f(0) = rho f(length), 0 <= |rho| < 1:
    the upper-half-plane lattice from e^{-i lambda length} = 1/rho; empty for
    rho = 0 (the nilpotent case has empty spectrum). DynamicRangeExceeded
    where 1/|rho|, which the height and each residual need, is not a float,
    where a point is out of range (``_lattice``) or its residual unresolved
    (``_resolved``)."""
    if not length > 0:
        raise InvalidArgument("length must be positive")
    rho = complex(rho)
    if abs(rho) >= 1.0:
        raise InvalidRho(f"need |rho| < 1, got {abs(rho)}")
    if rho == 0:
        return EigenList([], [], {"length": length, "rho": rho})
    if 1.0 / abs(rho) == math.inf:
        raise DynamicRangeExceeded(f"1/|rho| is not a float at |rho| = {abs(rho):g}")
    phase = math.atan2(rho.imag, rho.real)
    values = _lattice(length, phase, math.log(1.0 / abs(rho)) / length, window, max_count)
    residuals = [abs(rho * cmath.exp(-1j * lam * length) - 1.0) for lam in values]
    return EigenList(values, _resolved(values, residuals, length, phase),
                     {"length": length, "rho": rho})


# ---------------------------------------------------------------------------
# shooting for the inverse-square model below the critical coupling
# ---------------------------------------------------------------------------

# the inward leg starts where the WKB action beyond the matching point (or
# beyond the turning point, when that lies outside it) is S_IN. Carried
# inward, the decaying solution grows like e^{S} and the other solution,
# which a start error mixes in, shrinks like e^{-S}, so the phase error falls
# by e^{-2 S} (Olver, Asymptotics and Special Functions, ch. 6): e^{-36} =
# 2.3e-16 damps even an O(1) start error below rounding at x = 1/k
_S_IN = 18.0
# the largest accepted difference, in radians, between the leg and the same
# leg with every other node dropped: 63 times the leg's own error, to
# leading order, and far more than the error of the two extrapolated
_PHASE_BUDGET = 1e-8
# a leg that would need more steps raises NoConvergence; |gamma| <= 5e4
# needs at most 4,940
_MAX_STEPS = 2 ** 17


# the three Gauss-Legendre nodes on [0, 1]
_GAUSS3 = (0.5 - 0.1 * 15 ** 0.5, 0.5, 0.5 + 0.1 * 15 ** 0.5)


def _omega_polynomials(h: float, nu2: float) -> list:
    """The rows g, e, f and -g of the Magnus exponent over [sigma, sigma + h]
    as coefficients of y^0..y^3, y = e^{2 sigma}, in one list: q = y x_k - nu^2
    at the Gauss points, x_k = e^{2 h c_k}, so nu^2 cancels from the moments,
    y times b2 and b3 below, and e, f and g have degree 2, 3 and 2 in y."""
    d1, d2, d3 = (math.expm1(2 * h * c) for c in _GAUSS3)
    b2, b3 = 15 ** 0.5 / 3 * h * (d3 - d1), 10 / 3 * h * (d3 - 2 * d2 + d1)
    x2, hh, k = 1 + d2, h * h, h * b2 / 240
    a, b = 4 / 3 * hh * b3 / 240, hh * h * b2 * b2 / 15 / 240
    g = [0.0, -k * (4 / 3 * hh * nu2 + 20), k * (4 / 3 * hh * x2 + h * b3 / 30), 0.0]
    f = [-h * nu2, h * x2 + b3 / 12 - nu2 * a,
         x2 * a - nu2 * b + h * (b3 * b3 / 15 - 2 * b2 * b2) / 240, x2 * b]
    return g + [h, -a, b, 0.0] + f + [-c for c in g]


def magnus_propagators(sigma, h: float, nu2: float):
    """The transfer matrices [[m11, m12], [m21, m22]] of
    w'' = (e^{2 sigma} - nu^2) w, acting on (w, w'), over [sigma_j, sigma_j + h]
    for every node sigma_j, then over [sigma_j, sigma_j + 2 h] for every other
    node: a leg and the same leg with every other node dropped, as the rows
    m11, m12, m21, m22 of one array.

    Each is exp(Omega) for the sixth-order, three-Gauss-point Magnus
    exponent Omega (Blanes, Casas and Ros, BIT 40 (2000) 434). With
    A = E + q F in the sl_2 basis E = [[0, 1], [0, 0]], F = [[0, 0], [1, 0]],
    H = [[1, 0], [0, -1]], the exponent's commutators reduce to
    Omega = e E + f F + g H, and exp(Omega) = cosh(r) I + sinh(r)/r Omega
    with r^2 = g^2 + e f. For one step length e, f and g are polynomials in
    e^{2 sigma_j} (``_omega_polynomials``), so both legs take one exp and one
    Horner pass."""
    import numpy as np
    y = np.exp(2 * sigma)
    y = np.concatenate((y, y[::2]))
    c = np.repeat(np.array(_omega_polynomials(h, nu2) + _omega_polynomials(2 * h, nu2))
                  .reshape(2, 4, 4).T, (len(sigma), (len(sigma) + 1) // 2), axis=-1)
    p = ((c[3] * y + c[2]) * y + c[1]) * y + c[0]
    r2 = p[0] * p[0] + p[1] * p[2]      # g^2 + e f
    r = np.maximum(np.sqrt(np.abs(r2)), 1e-300)    # lifts only r = 0: sinh(r)/r = 1
    grows = r2 > 0
    ch = np.where(grows, np.cosh(r), np.cos(r))
    p *= np.where(grows, np.sinh(r), np.sin(r)) / r
    p[::3] += ch
    return p


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
    the same for every rung. With z = k x = e^sigma, u = sqrt(z) K_{i nu}(z)
    solves u'' = (1 + gamma/z^2) u, and w = u/sqrt(z) solves
    w'' = (e^{2 sigma} - nu^2) w. (w, w') is carried from sigma = log z_in,
    beyond the turning point, to sigma = 0 by sixth-order Magnus propagators
    on a uniform mesh, from the two-term decaying asymptotics
    u = e^{-z} (1 + gamma/(2 z)) up to a constant factor (DLMF 10.40.2), and
    the phase is atan2(nu w, w') there. Below the turning point the
    coefficient is nearly the constant -nu^2, for which a Magnus step is
    exact, so the leg needs no step density: it first takes
    2 ceil(max(30, 10 + 11 nu)) steps, and its estimate then reads at most
    4.8e-9 for every nu up to 224. The same leg with every other node
    dropped, in the same batch and read from the same list, gives the
    estimate: above ``_PHASE_BUDGET`` the step count is doubled, and else the
    two phases are extrapolated in the step's sixth power. Both transfers run
    unnormalised, and any start error is damped by e^{-2 S_IN} on the way in."""
    import numpy as np
    z_in = _inward_start(nu)
    c = gamma / (2 * z_in)
    u, du = 1 + c, -(1 + c) - c / z_in       # u and u' at z_in
    root = math.sqrt(z_in)
    start = (u / root, root * (du - u / (2 * z_in)))     # w and w' there
    sigma_in = math.log(z_in)

    def phase(rows):
        w, dw = start
        for m11, m12, m21, m22 in rows:
            w, dw = m11 * w + m12 * dw, m21 * w + m22 * dw
        return math.atan2(nu * w, dw)

    steps = 2 * math.ceil(max(30.0, 10.0 + 11.0 * nu))
    while True:
        if steps > _MAX_STEPS:
            raise NoConvergence(f"the inward leg needs {steps} steps at nu = {nu:.4g}")
        # left nodes from sigma_in down: the last is -h, and the coarse leg's
        # last is -2 h, so both legs end at 0 exactly
        sigma = np.arange(steps, 0, -1) / steps * sigma_in
        rows = zip(*magnus_propagators(sigma, -float(sigma[-1]), nu * nu).tolist())
        phi = phase(itertools.islice(rows, steps))
        gap = math.remainder(phi - phase(rows), math.pi)
        if abs(gap) <= _PHASE_BUDGET:
            return phi + gap / 63
        steps *= 2


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


# B_2j / (2j (2j - 1)), j = 1..8: the Stirling series of log Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def log_gamma(z: complex) -> complex:
    """log Gamma(z) off the poles, on the branch of mpmath.loggamma for real
    z and z off the real axis: recur upward until Re z >= 8, then sum the
    Stirling series to rounding level."""
    z, shift = complex(z), 0j
    while z.real < 8:
        shift += cmath.log(z)
        z += 1
    inv2, series = 1 / (z * z), 0j
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return ((z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi)
            + series / z - shift)


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
        raise IllPosed(f"shooting needs gamma < -1/4 (oscillatory boundary), got {gamma}")
    if not 1 <= count <= 4:
        raise InvalidArgument(f"count must be between 1 and 4, got {count}")
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


# the relative error of a ratio read back from the closed-form rungs, each of
# which rounds at about eps |log|lambda||: over nu from 0.2 to 224 and every
# count, a consecutive ratio or their geometric mean reads at most 7.2e-15
# from exp(2 pi / nu), a squared ratio 1.5e-14 from kappa, and kappa times a
# rung 5.6e-15 from the rung two steps up (all at nu below 1)
RATIO_TOL = 2e-13


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
    import numpy as np
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

