"""Self-contained numerical kernels.

Adaptive Gauss-Kronrod quadrature over a finite interval (complex
integrands), a Dormand-Prince 5(4) solver for a real scalar equation
y' = f(x, y), sixth-order Magnus propagators for a linear equation
u'' = q(z) u, formed in one batch and applied in one pass, and an Illinois
bracketed root finder. The Magnus propagators serve the inward leg of the
shooting check in ``spectra``, once per ladder. The program calls none of
the others: tests use the quadrature, the root finder and the solver as
oracles (the former outward and inward shots among them), and the
benchmark's tracer wraps the solver and the root finder by name. The
inverse-square model is in closed form, and the grid operators of the Weyl
checks are diagonals times shifts (see ``weylcheck``), so neither needs a
kernel here.

Integrands and Magnus coefficients q are called with numpy arrays of
nodes; ODE right-hand sides f(x, y) and root-finder functions with Python
floats. All of them must be re-entrant; everything here is pure, so
concurrent use is safe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NoConvergence, NoSignChange, StepUnderflow

# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes on [-1, 1]; the odd-index nodes form the embedded
# 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


def _gk_panel(f, a: float, b: float):
    """Return (kronrod, |kronrod - gauss|) for one panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = np.asarray(f(c + h * _XK), dtype=complex)
    k = h * np.sum(_WK * y)
    g = h * np.sum(_WG * y[1::2])
    return k, abs(k - g)


def quad_finite(f, a: float, b: float, tol: float = 1e-10, max_panels: int = 10**4) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by adaptive bisection of a Gauss-Kronrod rule.

    ``f`` is called with a numpy array of nodes and must return values
    elementwise. The error estimate sums per-panel Kronrod/Gauss deviations.
    Raises NoConvergence when ``max_panels`` panels do not reach ``tol``.
    """
    if not a < b:
        raise InvalidArgument(f"need a < b, got [{a}, {b}]")
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    val, err = _gk_panel(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    total_err = err
    while total_err > tol:
        if count >= max_panels:
            raise NoConvergence(
                f"quad_finite: {count} panels, error {total_err:.3e} > tol {tol:.3e}"
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        v1, e1 = _gk_panel(f, pa, mid)
        v2, e2 = _gk_panel(f, mid, pb)
        count += 1
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, 2 * count, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, 2 * count + 1, mid, pb, v2, e2))
        if mid <= pa or mid >= pb:
            raise NoConvergence("quad_finite: panel width underflow")
    value = sum(item[4] for item in heap)
    return QuadratureResult(value, total_err, 15 * count)


# ---------------------------------------------------------------------------
# initial value solver: Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

class OdeSolution:
    """Accepted solver nodes and states, stored in ascending x; ``y_end`` is
    the state at the endpoint the integration was driven to (the smallest x
    for backward runs), and ``rejected`` counts the steps the error control
    threw away."""

    def __init__(self, xs, ys, forward: bool = True, rejected: int = 0):
        order = np.argsort(xs)
        self.xs = np.asarray(xs)[order]
        self.ys = np.asarray(ys)[order]
        self.forward = forward
        self.rejected = rejected

    @property
    def y_end(self):
        return self.ys[-1] if self.forward else self.ys[0]


def ode_solve(f, x0: float, y0: float, x1: float, tol: float = 1e-9,
              max_steps: int = 10**6) -> OdeSolution:
    """Integrate the real scalar equation y' = f(x, y) from x0 to x1 (either
    order) by Dormand-Prince 5(4) with adaptive steps (Hairer, Norsett and
    Wanner, Solving ODEs I, II.5).

    The local error estimate of each step is held below ``tol`` in absolute
    terms, which suits a state such as a phase in radians, whose error
    matters whatever its size. Returns the accepted nodes as an
    OdeSolution; raises StepUnderflow when the step collapses or
    ``max_steps`` attempts do not reach x1.
    """
    y, x = float(y0), float(x0)
    if x1 == x0:
        return OdeSolution([x], [y])
    forward = x1 > x0
    h = (x1 - x0) / 10.0
    tiny = 16 * np.finfo(float).eps
    k1 = f(x, y)   # stage 1 is the previous step's last stage (FSAL)
    xs, ys = [x], [y]
    steps = rejected = 0
    while x < x1 if forward else x > x1:
        if steps > max_steps:
            raise StepUnderflow(f"ode_solve: step budget exhausted at x={x}")
        if abs(h) < tiny * max(1.0, abs(x)):
            raise StepUnderflow(f"ode_solve: step underflow at x={x}")
        x_new = x + h
        if x_new > x1 if forward else x_new < x1:
            h, x_new = x1 - x, x1
        k2 = f(x + 1 / 5 * h, y + h * (1 / 5 * k1))
        k3 = f(x + 3 / 10 * h, y + h * (3 / 40 * k1 + 9 / 40 * k2))
        k4 = f(x + 4 / 5 * h, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
        k5 = f(x + 8 / 9 * h, y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                       + 64448 / 6561 * k3 - 212 / 729 * k4))
        k6 = f(x_new, y + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                               + 49 / 176 * k4 - 5103 / 18656 * k5))
        y_new = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                         - 2187 / 6784 * k5 + 11 / 84 * k6)
        k7 = f(x_new, y_new)
        err = abs(h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                       - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)) / tol
        steps += 1
        if err <= 1.0:
            x, y, k1 = x_new, y_new, k7
            xs.append(x)
            ys.append(y)
            h *= 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
    return OdeSolution(xs, ys, forward, rejected)


# ---------------------------------------------------------------------------
# linear transfer: sixth-order Magnus propagators
# ---------------------------------------------------------------------------

# the three Gauss-Legendre nodes on [0, 1], as a column
_GAUSS3 = np.array([[0.5 - 0.1 * 15 ** 0.5], [0.5], [0.5 + 0.1 * 15 ** 0.5]])


def magnus_propagators(q, z, h) -> tuple:
    """The transfer matrices [[m11, m12], [m21, m22]] of u'' = q(z) u, acting
    on (u, u'), from z_i to z_i + h_i for every i (h_i of either sign), as
    four arrays.

    Each is exp(Omega) for the sixth-order, three-Gauss-point Magnus
    exponent Omega (Blanes, Casas and Ros, BIT 40 (2000) 434). With
    A(z) = E + q(z) F in the sl_2 basis E = [[0, 1], [0, 0]],
    F = [[0, 0], [1, 0]], H = [[1, 0], [0, -1]], the exponent's
    commutators reduce to the closed form below, Omega = e E + f F + g H,
    and exp(Omega) = cosh(r) I + sinh(r)/r Omega with r^2 = g^2 + e f.
    ``q`` is called once, with a (3, n) array of nodes."""
    q1, q2, q3 = q(z + h * _GAUSS3)
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
    """(u, u') after the ``magnus_propagators`` in turn, applied in one pass
    with no renormalisation, so the state must stay within the floats."""
    for m11, m12, m21, m22 in zip(*(m.tolist() for m in propagators)):
        u, du = m11 * u + m12 * du, m21 * u + m22 * du
    return u, du


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------

def find_root(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Illinois false position (Dowell and Jarratt, BIT 11 (1971) 168) on a
    sign-changing bracket; returns the bracket's midpoint once it is at most
    ``tol`` wide.

    When the same end of the bracket is kept twice in a row, its function
    value is halved, so both ends close in on the root. Raises NoSignChange
    when f(lo) and f(hi) have equal sign.
    """
    if not lo < hi:
        raise InvalidArgument("need lo < hi")
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({lo})={fa:.3e} and f({hi})={fb:.3e} have equal sign")
    a, b = lo, hi
    kept = 0  # +1 after b was kept, -1 after a was kept
    for _ in range(max_iter):
        if b - a <= tol:
            break
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, fb = x, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
    return 0.5 * (a + b)
