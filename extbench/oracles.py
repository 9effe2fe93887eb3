"""Closed-form values the benchmark checks extflow against.

Nothing here imports extflow: each value comes from the mathematics, not
from the program's code path. Sources:

* interval model i d/dx on (0, l): the translation flow is the elliptic
  disk automorphism that rotates by -l*t about v = e^{-l}; it returns to
  the identity at t = 2*pi/l.
* inverse-square model for gamma < -1/4, nu = sqrt(-gamma - 1/4): the
  scaling flow element at t is elliptic with multiplier angle nu*t about
  its interior fixed point, so it returns at T = 2*pi/nu.
* inverse-square model for -1/4 <= gamma < 3/4, mu = sqrt(gamma + 1/4):
  the Friedrichs and Krein parameters v_F = exp(i*pi*(mu - 1/2)/2) and
  v_K = exp(-i*pi*(mu + 1/2)/2), from the small-argument branches of
  K_mu (DLMF 10.27.4) and its large-argument phase (DLMF 10.40.2) in the
  gauge of the decaying solution.
* the fall-to-center ladder lambda_n = -4 exp(2(theta + arg Gamma(1 + i nu)
  + n pi)/nu), from the small-argument form of K_{i nu} (DLMF 10.45).
* the upwind interval grid: the off-grid Weyl residual is
  2|sin(t (s - k h)/2)| with k = round(s/h), the on-grid residual is 0,
  and the shift semigroup's nilpotency index is l within one step h.
"""

from __future__ import annotations

import cmath
import math

EPS = 2.0 ** -52
MAX_DIGITS = -math.log10(EPS)


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at the double-precision floor."""
    return -math.log10(max(rel_err, EPS))


def rel_err(value, ref, scale: float = 0.0) -> float:
    return abs(value - ref) / max(abs(ref), scale, 1e-300)


# ---------------------------------------------------------------------------
# disk rotations
# ---------------------------------------------------------------------------

def rotate_about(center: complex, v0: complex, angle: float) -> complex:
    """The elliptic disk automorphism fixing ``center`` with multiplier
    e^{i angle}, applied to v0."""
    w0 = (v0 - center) / (1 - center.conjugate() * v0)
    w = cmath.exp(1j * angle) * w0
    return (w + center) / (1 + center.conjugate() * w)


def interval_fixed_point(length: float) -> complex:
    return complex(math.exp(-length))


def interval_period(length: float) -> float:
    return 2 * math.pi / length


def interval_orbit(length: float, v0: complex, t: float) -> complex:
    return rotate_about(interval_fixed_point(length), v0, -length * t)


def nu_of(gamma: float) -> float:
    if not gamma < -0.25:
        raise ValueError("nu needs gamma < -1/4")
    return math.sqrt(-gamma - 0.25)


def multiplier_angle(gamma: float, t: float) -> float:
    return nu_of(gamma) * t


def return_time(gamma: float) -> float:
    return 2 * math.pi / nu_of(gamma)


# ---------------------------------------------------------------------------
# Friedrichs and Krein parameters
# ---------------------------------------------------------------------------

def friedrichs_krein(gamma: float) -> tuple[complex, complex]:
    if not -0.25 <= gamma < 0.75:
        raise ValueError("semibounded range is -1/4 <= gamma < 3/4")
    mu = math.sqrt(gamma + 0.25)
    return (cmath.exp(1j * math.pi * (mu - 0.5) / 2),
            cmath.exp(-1j * math.pi * (mu + 0.5) / 2))


# ---------------------------------------------------------------------------
# fall-to-center ladder
# ---------------------------------------------------------------------------

def ladder_phase(gamma: float) -> float:
    """arg Gamma(1 + i nu), principal value."""
    import mpmath   # only the fall-to-center checks need it
    return float(mpmath.arg(mpmath.gamma(1 + 1j * nu_of(gamma))))


def ladder_rung(gamma: float, theta: float, n: int) -> float:
    nu = nu_of(gamma)
    return -4.0 * math.exp(2 * (theta + ladder_phase(gamma) + n * math.pi) / nu)


def nearest_rung(gamma: float, theta: float, lam: float) -> tuple[int, float]:
    """The rung index n whose lambda_n is nearest to lam in log scale, and
    that lambda_n."""
    nu = nu_of(gamma)
    x = (nu * math.log(-lam / 4.0) / 2 - theta - ladder_phase(gamma)) / math.pi
    n = round(x)
    return n, ladder_rung(gamma, theta, n)


# ---------------------------------------------------------------------------
# interval grid
# ---------------------------------------------------------------------------

def offgrid_shift(s: float, h: float) -> float:
    """s - k h for the nearest grid time k h."""
    return s - round(s / h) * h


def weyl_residual(t: float, s: float, h: float) -> float:
    return 2.0 * abs(math.sin(t * offgrid_shift(s, h) / 2.0))


def fitted_order(hs, residuals) -> float:
    """Least-squares slope of log(residual) against log(h)."""
    xs = [math.log(h) for h in hs]
    ys = [math.log(r) for r in residuals]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
