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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DynamicRangeExceeded,
    IllPosed,
    InsufficientData,
    InvalidRho,
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
        raise ValueError("length must be positive")
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty window")
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
        raise ValueError("length must be positive")
    rho = complex(rho)
    if abs(rho) >= 1.0:
        raise InvalidRho(f"need |rho| < 1, got {abs(rho)}")
    if rho == 0:
        return EigenList([], [], {"length": length, "rho": rho})
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty window")
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

def _outward_data(gamma: float, nu: float, theta: float, lam: float, x: float):
    """Value and derivative at x of the real solution with small-x behavior
    sqrt(x) sin(nu log x + theta), two-term accurate."""
    s1 = 0.5 + 1j * nu
    c1 = -lam / (2 * (2 * s1 + 1))
    phase = np.exp(1j * theta)
    xs = x ** s1
    val = (phase * xs * (1 + c1 * x * x)).imag
    dval = (phase * xs / x * (s1 + (s1 + 2) * c1 * x * x)).imag
    return val, dval


def _mismatch(gamma: float, nu: float, theta: float, lam: float) -> float:
    """Normalized Wronskian of the outward and inward solutions at the
    matching point 1/sqrt(|lam|); zero at an eigenvalue, and the residual of
    each closed-form rung."""
    k = math.sqrt(-lam)
    x_mid = 1.0 / k
    # start where the boundary form is accurate: |lam| x^2 = 1e-4
    x_a = min(1e-3, 1e-2 / k)

    def q(x):
        return gamma / (x * x) - lam

    u0, du0 = _outward_data(gamma, nu, theta, lam, x_a)
    uo, duo = ode_solve(q, x_a, (u0, du0), x_mid, tol=1e-9).y_end
    # 40/k past the turning point sqrt(-gamma)/k, so the start is evanescent
    x_in = (40.0 + math.sqrt(-gamma)) / k
    corr = gamma / (2 * k)
    f0 = 1 + corr / x_in
    df0 = -k - k * corr / x_in - corr / (x_in * x_in)
    vi, dvi = ode_solve(q, x_in, (f0, df0), x_mid, tol=1e-9).y_end
    wron = uo * dvi - duo * vi
    scale = ((abs(uo) + x_mid * abs(duo)) * (abs(vi) + x_mid * abs(dvi))) / x_mid
    return wron / max(scale, 1e-300)


def shoot_negative_eigenvalues(gamma: float, theta: float, count: int) -> EigenList:
    """Negative eigenvalues of the self-adjoint extension with boundary
    phase theta, read from the closed-form ladder; at most four, capped by
    dynamic range. Each residual is the shooting mismatch (``_mismatch``)
    at the closed-form value, which shares no code with the ladder."""
    if gamma >= -0.25:
        raise IllPosed("shooting needs gamma < -1/4 (oscillatory boundary)")
    if not 1 <= count <= 4:
        raise ValueError("count must be between 1 and 4")
    nu = math.sqrt(-gamma - 0.25)
    span = math.exp(2 * math.pi / nu * (count - 1))
    if span > _RANGE_LIMIT:
        raise DynamicRangeExceeded(
            f"{count} rungs would span a factor {span:.3e} > {_RANGE_LIMIT:.0e}")
    # small-x form of sqrt(x) K_{i nu}(k x) (DLMF 10.45): lambda_n = -k_n^2 with
    # nu log k_n = offset + n pi, where any branch of arg Gamma(1 + i nu) works
    # (n absorbs multiples of pi); the first rung has nu log|lambda| >= -1.2 pi
    phase = math.remainder(theta, math.pi)   # ValueError unless finite
    offset = phase + log_gamma(1 + 1j * nu).imag + nu * math.log(2.0)
    n_lo = math.ceil(-0.6 - offset / math.pi)
    values = [complex(-math.exp(2 * (offset + n * math.pi) / nu))
              for n in range(n_lo, n_lo + count)]
    residuals = [abs(_mismatch(gamma, nu, phase, lam.real)) for lam in values]
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
