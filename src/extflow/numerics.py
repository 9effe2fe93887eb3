"""Self-contained numerical kernels.

Adaptive Gauss-Kronrod quadrature over a finite interval (complex
integrands), a Dormand-Prince 5(4) solver for the linear equation
u'' = q(x) u and an Illinois bracketed root finder. The solver serves only
the shooting residual that checks each closed-form ladder rung in
``spectra``; tests use the quadrature and the root finder as oracles. The
inverse-square model is in closed form, and the grid operators of the Weyl
checks are diagonals times shifts (see ``weylcheck``), so neither needs a
kernel here.

Integrands are called with numpy arrays of nodes; ODE coefficients q(x) and
root-finder functions with Python floats. All of them must be re-entrant;
everything here is pure, so concurrent use is safe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NoSignChange, StepUnderflow

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
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    for backward runs)."""

    def __init__(self, xs, ys, forward: bool = True):
        order = np.argsort(xs)
        self.xs = np.asarray(xs)[order]
        self.ys = np.asarray(ys)[order]
        self.forward = forward

    @property
    def y_end(self):
        return self.ys[-1] if self.forward else self.ys[0]


def ode_solve(q, x0: float, y0, x1: float, tol: float = 1e-9,
              max_steps: int = 10**6) -> OdeSolution:
    """Integrate u'' = q(x) u from x0 to x1 (either order) by Dormand-Prince
    5(4) with adaptive steps (Hairer, Norsett and Wanner, Solving ODEs I,
    II.5).

    ``q(x)`` returns the scalar coefficient and ``y0`` is the pair (u, u').
    The state is two Python scalars: real when ``q`` and ``y0`` are real,
    complex otherwise. The per-step error is controlled componentwise
    against tol*(1+max(|y|,|y_new|)). Returns the accepted nodes as an
    OdeSolution; raises StepUnderflow when the step collapses or
    ``max_steps`` attempts do not reach x1.
    """
    u, v = y0
    cast = complex if np.iscomplexobj(q(x0) * u * v) else float
    u, v, x = cast(u), cast(v), float(x0)
    w = q(x) * u
    if x1 == x0:
        return OdeSolution([x], [(u, v)], forward=True)
    direction = 1.0 if x1 > x0 else -1.0
    h = (x1 - x0) / 10.0
    tiny = 16 * np.finfo(float).eps
    xs, us, vs = [x], [u], [v]
    steps = 0
    while (x1 - x) * direction > 0:
        if steps > max_steps:
            raise StepUnderflow(f"ode_solve: step budget exhausted at x={x}")
        if abs(h) < tiny * max(1.0, abs(x)):
            raise StepUnderflow(f"ode_solve: step underflow at x={x}")
        if (x + h - x1) * direction > 0:
            h = x1 - x
        # stage i has state (u_i, v_i) and derivative (v_i, w_i = q u_i);
        # stage 1 is the previous step's last stage (FSAL)
        u2 = u + h * (1 / 5 * v)
        v2 = v + h * (1 / 5 * w)
        w2 = q(x + 1 / 5 * h) * u2
        u3 = u + h * (3 / 40 * v + 9 / 40 * v2)
        v3 = v + h * (3 / 40 * w + 9 / 40 * w2)
        w3 = q(x + 3 / 10 * h) * u3
        u4 = u + h * (44 / 45 * v - 56 / 15 * v2 + 32 / 9 * v3)
        v4 = v + h * (44 / 45 * w - 56 / 15 * w2 + 32 / 9 * w3)
        w4 = q(x + 4 / 5 * h) * u4
        u5 = u + h * (19372 / 6561 * v - 25360 / 2187 * v2 + 64448 / 6561 * v3
                      - 212 / 729 * v4)
        v5 = v + h * (19372 / 6561 * w - 25360 / 2187 * w2 + 64448 / 6561 * w3
                      - 212 / 729 * w4)
        w5 = q(x + 8 / 9 * h) * u5
        u6 = u + h * (9017 / 3168 * v - 355 / 33 * v2 + 46732 / 5247 * v3
                      + 49 / 176 * v4 - 5103 / 18656 * v5)
        v6 = v + h * (9017 / 3168 * w - 355 / 33 * w2 + 46732 / 5247 * w3
                      + 49 / 176 * w4 - 5103 / 18656 * w5)
        q_end = q(x + h)
        w6 = q_end * u6
        u_new = u + h * (35 / 384 * v + 500 / 1113 * v3 + 125 / 192 * v4
                         - 2187 / 6784 * v5 + 11 / 84 * v6)
        v_new = v + h * (35 / 384 * w + 500 / 1113 * w3 + 125 / 192 * w4
                         - 2187 / 6784 * w5 + 11 / 84 * w6)
        w_new = q_end * u_new
        err_u = h * (71 / 57600 * v - 71 / 16695 * v3 + 71 / 1920 * v4
                     - 17253 / 339200 * v5 + 22 / 525 * v6 - 1 / 40 * v_new)
        err_v = h * (71 / 57600 * w - 71 / 16695 * w3 + 71 / 1920 * w4
                     - 17253 / 339200 * w5 + 22 / 525 * w6 - 1 / 40 * w_new)
        err = max(abs(err_u) / (tol * (1.0 + max(abs(u), abs(u_new)))),
                  abs(err_v) / (tol * (1.0 + max(abs(v), abs(v_new)))))
        steps += 1
        if err <= 1.0:
            x = x + h
            u, v, w = u_new, v_new, w_new
            xs.append(x)
            us.append(u)
            vs.append(v)
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= factor
    return OdeSolution(xs, list(zip(us, vs)), forward=direction > 0)


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
        raise ValueError("need lo < hi")
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
