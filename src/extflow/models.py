"""Concrete symmetric operator models behind a single contract: deficiency
dimensions, normalized deficiency data, overlap blocks against the model's
unitary family, and conversions between boundary conditions and the
contraction parameter labeling an extension.

Gauge conventions are fixed once per model and every reported parameter
value depends on them:

* interval model on (0, l): deficiency representatives e^x and e^{-x},
  normalized by positive reals; boundary conditions written f(0) = rho*f(l).
* inverse-square model on (0, inf): the plus representative is the solution
  asymptotic to exp(-exp(-i*pi/4)*x) at infinity, rescaled by positive
  reals; the minus representative is its complex conjugate, exactly.
* half-line model: representative e^{-x}; indices (0, 1).

The scaling-model unitary for the affine element g(x) = a*x is
(U_g f)(x) = a^{-1/4} f(a^{-1/2} x), the orientation that realizes
U_g A U_g^* = a A on the domain. The one-parameter families printed as
e^{t/4} f(e^{t/2} x) and e^{t/2} f(e^t x) (exposed via ``representation``
for the commutation harness) act as U_g for g(x) = e^{-t} x under this
convention; the harness measures the resulting scale factor instead of
assuming one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .affine import AffineMap, Scaling, Translation
from .errors import IllPosed, InvalidBoundary, OutsideGroup, UnsupportedIndices
from .numerics import hermite, ode_solve, quad_finite


@dataclass(frozen=True)
class OverlapData:
    """Blocks c^{pq}(g) = <U_g phi_q, phi_p> for normalized deficiency
    vectors; p is the projection target, q the transported source."""

    cpp: complex
    cpm: complex
    cmp: complex
    cmm: complex


def check_contraction(v: complex, tol: float = 1e-12) -> complex:
    """Validate |v| <= 1 within tol and return v as a complex number."""
    v = complex(v)
    if abs(v) > 1.0 + tol:
        raise ValueError(f"contraction parameter has modulus {abs(v)} > 1")
    return v


def _int_exp(c: complex, length: float) -> complex:
    """Integral of e^{c x} over [0, length], stable for small |c*length|."""
    z = c * length
    if abs(z) < 0.5:
        term = complex(length)
        total = term
        k = 1
        while abs(term) > 1e-20 * max(1.0, abs(total)):
            term = term * z / (k + 1)
            total += term
            k += 1
        return total
    return (cmath.exp(z) - 1.0) / c


def right_shift(s: float, f):
    """Right shift with zero fill, f -> f(x - s) for x > s and 0 below: the
    contraction semigroup of i d/dx with f(0) = 0 on the interval and the
    half-line alike."""
    if s < 0:
        raise ValueError("semigroup parameter must be nonnegative")

    def shifted(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > s, f(np.maximum(x - s, 0.0)), 0.0)

    return shifted


# ---------------------------------------------------------------------------
# interval model: i d/dx on (0, l), Dirichlet at both ends
# ---------------------------------------------------------------------------

class IntervalModel:
    """First-order model on (0, l) with indices (1, 1), invariant under
    translations via multiplication by e^{i x t}; all overlaps in closed form."""

    name = "interval"
    deficiency_dims = (1, 1)
    generator_kind = "first-order"
    representation_kinds = ("translation",)
    T_RANGE = math.inf

    def __init__(self, length: float):
        if not length > 0:
            raise ValueError("interval length must be positive")
        self.length = float(length)
        self.norm_plus = math.sqrt((math.exp(2 * self.length) - 1) / 2)
        self.norm_minus = math.sqrt((1 - math.exp(-2 * self.length)) / 2)
        self.group = Translation(1.0)
        self.description = f"i d/dx on (0, {self.length}) with Dirichlet ends"

    def _translation_parameter(self, g: AffineMap) -> float:
        if abs(g.a - 1.0) > 1e-12:
            raise OutsideGroup(
                f"interval model is translation-invariant; got slope {g.a}")
        return g.b

    def deficiency_vector(self, sign: int, x):
        """Normalized deficiency values; sign +1 for e^x, -1 for e^{-x}."""
        x = np.asarray(x, dtype=float)
        if sign > 0:
            return np.exp(x) / self.norm_plus
        return np.exp(-x) / self.norm_minus

    def overlap_matrix(self, g: AffineMap) -> OverlapData:
        t = self._translation_parameter(g)
        length = self.length
        cross = _int_exp(1j * t, length) / (self.norm_plus * self.norm_minus)
        return OverlapData(
            cpp=_int_exp(2 + 1j * t, length) / self.norm_plus**2,
            cpm=cross,
            cmp=cross,
            cmm=_int_exp(-2 + 1j * t, length) / self.norm_minus**2,
        )

    def vn_from_boundary(self, rho) -> complex:
        """Parameter of the extension with domain condition f(0) = rho*f(l)."""
        rho = complex(rho)
        if abs(rho) > 1.0 + 1e-12:
            raise InvalidBoundary(f"need |rho| <= 1, got {abs(rho)}")
        e = math.exp(-self.length)
        return e * (1.0 - rho * math.exp(self.length)) / (1.0 - rho * e)

    def boundary_from_vn(self, v) -> complex:
        v = check_contraction(v)
        e = math.exp(-self.length)
        return (e - v) / (1.0 - v * e)

    # continuum actions for the commutation harness -------------------------
    def representation(self, kind: str, t: float):
        if kind != "translation":
            raise OutsideGroup(f"interval model has no {kind!r} representation")

        def transform(f):
            return lambda x: np.exp(1j * x * t) * f(x)

        return transform

    semigroup_action = staticmethod(right_shift)


# ---------------------------------------------------------------------------
# inverse-square model: -d^2/dx^2 + gamma/x^2 on (0, inf)
# ---------------------------------------------------------------------------

_DEGENERATE_MU2 = 1e-10   # |gamma + 1/4| below this uses the log-pair basis


class _PowerForm:
    """Sum of c * x^s * log(x)^m terms; the near-zero representation of a
    deficiency solution, closed under scaling, conjugation, and products."""

    def __init__(self, terms):
        self.terms = [(complex(c), complex(s), int(m)) for c, s, m in terms]

    def scaled_argument(self, sigma: float) -> "_PowerForm":
        """Terms of x -> f(sigma*x)."""
        ls = math.log(sigma)
        out = []
        for c, s, m in self.terms:
            base = c * cmath.exp(s * ls)
            if m == 0:
                out.append((base, s, 0))
            else:  # log(sigma*x)^1 = log x + log sigma
                out.append((base, s, 1))
                out.append((base * ls, s, 0))
        return _PowerForm(out)

    def conjugate(self) -> "_PowerForm":
        return _PowerForm([(c.conjugate(), s.conjugate(), m) for c, s, m in self.terms])

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        lx = np.log(x)
        out = np.zeros(x.shape, dtype=complex)
        for c, s, m in self.terms:
            out += c * np.exp(s * lx) * (lx**m if m else 1.0)
        return out

    def eval_deriv(self, x):
        x = np.asarray(x, dtype=float)
        lx = np.log(x)
        out = np.zeros(x.shape, dtype=complex)
        for c, s, m in self.terms:
            out += c * np.exp((s - 1) * lx) * (s * (lx**m if m else 1.0)
                                               + (m * lx ** (m - 1) if m else 0.0))
        return out

    def product_integral(self, other: "_PowerForm", upper: float) -> complex:
        """Integral over (0, upper] of self*other (no conjugation here)."""
        lu = math.log(upper)
        total = 0.0 + 0.0j
        for c1, s1, m1 in self.terms:
            for c2, s2, m2 in other.terms:
                p = s1 + s2 + 1
                m = m1 + m2
                xp = cmath.exp(p * lu)   # upper^p
                if m == 0:
                    val = xp / p
                elif m == 1:
                    val = xp * (lu / p - 1 / p**2)
                elif m == 2:
                    val = xp * (lu * lu / p - 2 * lu / p**2 + 2 / p**3)
                else:
                    raise ValueError("log power beyond quadratic not supported")
                total += c1 * c2 * val
        return total


class InverseSquareModel:
    """Second-order model with potential gamma/x^2, indices (1, 1) for
    gamma < 3/4, invariant under scalings about the origin.

    Deficiency data is materialized by backward integration from x = 40
    with decaying asymptotic data summed to rounding level, tabulated on a
    log-spaced grid, and matched to a two-term Frobenius pair at x = 1e-3; inner products
    combine a closed-form piece below the matching point with adaptive
    quadrature in the log variable above it.
    """

    name = "inverse-square"
    deficiency_dims = (1, 1)
    generator_kind = "schrodinger"
    representation_kinds = ("scaling",)

    X_MAX = 40.0
    X_MIN = 1e-6
    X_ASYM = 1e-3
    N_TABLE = 4000
    T_RANGE = 6.0
    QUAD_TOL = 1e-9
    # the branch pair is matched at X_FIT with an N_SERIES-term series: at a
    # small matching point the dominant branch exceeds the subdominant one
    # by x^{-2 mu} and swamps its coefficient
    X_FIT = 0.5
    N_SERIES = 14

    def __init__(self, gamma: float):
        if gamma >= 0.75:
            raise IllPosed(
                f"gamma {gamma} >= 3/4: deficiency indices are no longer (1, 1)")
        self.gamma = float(gamma)
        self.group = Scaling(math.e, 0.0)
        self.description = f"-d^2/dx^2 + {self.gamma}/x^2 on (0, inf)"
        mu2 = self.gamma + 0.25
        self.mu2 = mu2
        if abs(mu2) <= _DEGENERATE_MU2:
            self.log_case = True
            self.exponents = (0.5 + 0j, 0.5 + 0j)
        elif mu2 > 0:
            self.log_case = False
            mu = math.sqrt(mu2)
            self.exponents = (0.5 + mu + 0j, 0.5 - mu + 0j)
        else:
            self.log_case = False
            nu = math.sqrt(-mu2)
            self.exponents = (0.5 + 1j * nu, 0.5 - 1j * nu)
        self._build_table()
        self._fit_near_zero()
        self._norm_sq = self._pair_integral(1.0, conj_second=True).real
        self._norm = math.sqrt(self._norm_sq)

    # construction ----------------------------------------------------------
    def _build_table(self):
        gamma = self.gamma
        k = cmath.exp(-1j * math.pi / 4)

        def q(x):
            return gamma / (x * x) - 1j

        # decaying data e^{-kx} S(x), S = sum_m a_m (kx)^{-m}, the large-
        # argument series of sqrt(x) K_mu(kx) (DLMF 10.40.2) with
        # 4 mu^2 = 4 gamma + 1, summed to rounding level and rescaled by the
        # positive real e^{Re(k) X} so the state starts at O(1)
        x0 = self.X_MAX
        z = k * x0
        series, slope = 1.0 + 0j, 0j    # S and x S'
        term, m = 1.0 + 0j, 0
        while abs(term) > 1e-17 * abs(series):
            m += 1
            nxt = term * (4 * gamma + 1 - (2 * m - 1) ** 2) / (8 * m * z)
            if abs(nxt) >= abs(term):
                break    # the series is asymptotic: stop at its smallest term
            term = nxt
            series += term
            slope -= m * term
        scale0 = cmath.exp(-k * x0 + k.real * x0)
        f0 = series * scale0
        df0 = (-k * series + slope / x0) * scale0
        sol = ode_solve(q, x0, (f0, df0), self.X_MIN, tol=1e-11, max_step=0.05)
        # positive-real gauge: unit magnitude at x = 1
        anchor = abs(sol(np.array([1.0]))[0, 0])
        self._solution = sol
        self._gauge = 1.0 / anchor
        nodes = np.geomspace(self.X_MIN, self.X_MAX, self.N_TABLE)
        states = sol(nodes) * self._gauge
        self._x_nodes = nodes
        self._f_nodes = states[:, 0].copy()
        self._fp_nodes = states[:, 1].copy()
        self._log_x0 = math.log(self.X_MIN)
        self._dlog = math.log(self.X_MAX / self.X_MIN) / (self.N_TABLE - 1)

    def _frobenius_basis(self, n_terms: int = 2):
        """Small-x basis pair for the +i deficiency equation, as power
        forms with ``n_terms`` series terms per branch.

        The recursion a_k = -z a_{k-1} / (2k (2s + 2k - 1)) never resonates
        for gamma < 3/4 away from the coincident-exponent point, which is
        handled by the log pair sqrt(x), sqrt(x) log x.
        """
        z = 1j
        if self.log_case:
            s = 0.5
            a = [1.0 + 0j]
            for k in range(1, n_terms):
                a.append(-z * a[k - 1] / (4 * k * k))
            b = [0j]
            for k in range(1, n_terms):
                b.append((-4 * k * a[k] - z * b[k - 1]) / (4 * k * k))
            u1 = _PowerForm([(a[k], s + 2 * k, 0) for k in range(n_terms)])
            u2_terms = [(a[k], s + 2 * k, 1) for k in range(n_terms)]
            u2_terms += [(b[k], s + 2 * k, 0) for k in range(1, n_terms)]
            return u1, _PowerForm(u2_terms)

        def branch(s):
            coeffs = [1.0 + 0j]
            for k in range(1, n_terms):
                coeffs.append(-z * coeffs[k - 1] / (2 * k * (2 * s + 2 * k - 1)))
            return _PowerForm([(coeffs[k], s + 2 * k, 0) for k in range(n_terms)])

        s1, s2 = self.exponents
        return branch(s1), branch(s2)

    def _fit_near_zero(self):
        u1, u2 = self._frobenius_basis(self.N_SERIES)
        xm = np.array([self.X_FIT])
        state = self._solution(xm) * self._gauge
        f, df = complex(state[0, 0]), complex(state[0, 1])
        a11 = complex(u1.eval(xm)[0])
        a12 = complex(u2.eval(xm)[0])
        a21 = complex(u1.eval_deriv(xm)[0])
        a22 = complex(u2.eval_deriv(xm)[0])
        det = a11 * a22 - a12 * a21
        c1 = (f * a22 - a12 * df) / det
        c2 = (a11 * df - f * a21) / det
        self.branch_coeffs = (c1, c2)
        short1, short2 = self._frobenius_basis(2)
        terms = [(c1 * c, s, m) for c, s, m in short1.terms]
        terms += [(c2 * c, s, m) for c, s, m in short2.terms]
        self._phi_form = _PowerForm(terms)

    # evaluation -------------------------------------------------------------
    def deficiency_value(self, sign: int, x):
        """Normalized deficiency values: sign +1 for phi_hat_plus, -1 for
        its conjugate."""
        vals = self._eval_plus(np.asarray(x, dtype=float)) / self._norm
        return vals if sign > 0 else np.conj(vals)

    def _eval_plus(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        small = x < self.X_ASYM
        table = (~small) & (x <= self.X_MAX)
        if small.any():
            out[small] = self._phi_form.eval(x[small])
        if table.any():
            out[table] = self._table_eval(x[table])
        return out    # values beyond X_MAX are negligible and treated as 0

    def _table_eval(self, x):
        pos = (np.log(x) - self._log_x0) / self._dlog
        idx = np.clip(pos.astype(int), 0, self.N_TABLE - 2)
        x0 = self._x_nodes[idx]
        x1 = self._x_nodes[idx + 1]
        h = x1 - x0
        s = np.clip((x - x0) / h, 0.0, 1.0)
        return hermite(s, h, self._f_nodes[idx], self._fp_nodes[idx],
                       self._f_nodes[idx + 1], self._fp_nodes[idx + 1])

    # inner products ----------------------------------------------------------
    def _pair_integral(self, sigma: float, conj_second: bool,
                       conj_first: bool = False) -> complex:
        """Integral over (0, inf) of phi(sigma x) * phi(x), with either
        factor optionally conjugated."""
        x_cut = self.X_ASYM * min(1.0, 1.0 / sigma)
        x_up = self.X_MAX * min(1.0, 1.0 / sigma)
        first = self._phi_form.scaled_argument(sigma)
        second = self._phi_form
        if conj_first:
            first = first.conjugate()
        if conj_second:
            second = second.conjugate()
        head = first.product_integral(second, x_cut)

        def integrand(u):
            x = np.exp(u)
            f1 = self._eval_plus(sigma * x)
            f2 = self._eval_plus(x)
            if conj_first:
                f1 = np.conj(f1)
            if conj_second:
                f2 = np.conj(f2)
            return f1 * f2 * x

        body = quad_finite(integrand, math.log(x_cut), math.log(x_up),
                           tol=self.QUAD_TOL, max_panels=4000)
        return head + body.value

    def _scaling_sigma(self, g: AffineMap) -> float:
        if abs(g.b) > 1e-12 * max(1.0, abs(g.a)):
            raise OutsideGroup(
                "inverse-square model is invariant under scalings about 0 only")
        t = math.log(g.a)
        if abs(t) > self.T_RANGE + 1e-12:
            raise OutsideGroup(
                f"group parameter |t| = {abs(t):.3f} beyond supported range "
                f"{self.T_RANGE} (transported arguments leave the table)")
        return g.a ** -0.5

    def overlap_matrix(self, g: AffineMap) -> OverlapData:
        sigma = self._scaling_sigma(g)
        root = math.sqrt(sigma)
        same = root * self._pair_integral(sigma, conj_second=True) / self._norm_sq
        cross = root * self._pair_integral(sigma, conj_second=False) / self._norm_sq
        return OverlapData(cpp=same, cpm=cross.conjugate(),
                           cmp=cross, cmm=same.conjugate())

    # boundary <-> parameter ---------------------------------------------------
    def _branch_coeffs_minus(self):
        c1, c2 = self.branch_coeffs
        if not self.log_case and self.mu2 < 0:
            # conjugation swaps the x^{1/2 +- i nu} branches
            return c2.conjugate(), c1.conjugate()
        return c1.conjugate(), c2.conjugate()

    def vn_from_boundary(self, boundary) -> complex:
        """Parameter of the extension selected by a boundary behavior: the
        tags 'friedrichs' / 'krein' (semibounded range only) pick the pure
        branches x^{1/2 + mu} / x^{1/2 - mu}; ('theta', value) mixes them,
        with the oscillatory form sqrt(x) sin(nu log x + theta) below the
        semibounded range."""
        c1p, c2p = self.branch_coeffs
        c1m, c2m = self._branch_coeffs_minus()
        if boundary in ("friedrichs", "krein"):
            if self.mu2 < -_DEGENERATE_MU2:
                raise InvalidBoundary(
                    "friedrichs/krein tags need gamma >= -1/4 (semibounded)")
            if self.log_case or boundary == "friedrichs":
                # coincident exponents: both extremal extensions kill the
                # log branch, so the tags agree
                num, den = c2p, c2m
            else:
                num, den = c1p, c1m
            if abs(den) < 1e-14 * max(abs(c1m), abs(c2m)):
                raise InvalidBoundary("degenerate branch coefficients")
            return num / den
        if isinstance(boundary, tuple) and len(boundary) == 2 and boundary[0] == "theta":
            theta = float(boundary[1])
        elif isinstance(boundary, (int, float)):
            theta = float(boundary)
        else:
            raise InvalidBoundary(f"unrecognized boundary parameter {boundary!r}")
        if self.log_case:
            # single family: both tags coincide; theta has no effect
            return c2p / c2m
        if self.mu2 < 0:
            phase = cmath.exp(2j * theta)
            return (c1p + phase * c2p) / (c1m + phase * c2m)
        st, ct = math.sin(theta), math.cos(theta)
        num = c1p * st - c2p * ct
        den = c1m * st - c2m * ct
        if abs(den) < 1e-14 * max(abs(c1m), abs(c2m)):
            raise InvalidBoundary(f"theta {theta} degenerates the boundary form")
        return num / den

    def boundary_from_vn(self, v):
        v = check_contraction(v, tol=1e-9)
        c1p, c2p = self.branch_coeffs
        c1m, c2m = self._branch_coeffs_minus()
        a1 = c1p - v * c1m
        a2 = c2p - v * c2m
        scale = max(abs(a1), abs(a2), 1e-300)
        if self.log_case:
            return "friedrichs"
        if abs(a2) <= 1e-7 * scale:
            return "friedrichs"
        if abs(a1) <= 1e-7 * scale:
            return "krein"
        if self.mu2 < 0:
            theta = (cmath.phase(-a1 / a2) / 2) % math.pi
            return ("theta", theta)
        ratio = a1 / a2
        theta = math.atan2(1.0, ratio.real) % math.pi
        return ("theta", theta)

    # continuum actions ---------------------------------------------------------
    def representation(self, kind: str, t: float):
        if kind != "scaling":
            raise OutsideGroup(f"inverse-square model has no {kind!r} representation")
        w = math.exp(t / 4)
        s = math.exp(t / 2)

        def transform(f):
            return lambda x: w * f(s * np.asarray(x, dtype=float))

        return transform


# ---------------------------------------------------------------------------
# half-line model: i d/dx on (0, inf) with f(0) = 0, indices (0, 1)
# ---------------------------------------------------------------------------

class HalflineModel:
    """Already maximal dissipative; the parameter set is the single zero map,
    so the flow is trivial. Supplies representation data for both the
    multiplication family e^{i x t} and the scaling family e^{t/2} f(e^t x)."""

    name = "halfline"
    deficiency_dims = (0, 1)
    generator_kind = "first-order"
    representation_kinds = ("translation", "scaling")

    def __init__(self):
        self.group = Translation(1.0)
        self.norm_minus = math.sqrt(0.5)
        self.description = "i d/dx on (0, inf) with f(0) = 0"

    def deficiency_vector(self, sign: int, x):
        if sign > 0:
            raise UnsupportedIndices("no plus deficiency direction: indices (0, 1)")
        return np.exp(-np.asarray(x, dtype=float)) / self.norm_minus

    def overlap_matrix(self, g: AffineMap) -> OverlapData:
        raise UnsupportedIndices(
            "overlap blocks require indices (1, 1); this model has (0, 1)")

    def vn_from_boundary(self, boundary):
        raise UnsupportedIndices("no extension parameters: indices (0, 1)")

    def boundary_from_vn(self, v):
        raise UnsupportedIndices("no extension parameters: indices (0, 1)")

    def representation(self, kind: str, t: float):
        if kind == "translation":
            def transform(f):
                return lambda x: np.exp(1j * np.asarray(x, dtype=float) * t) * f(x)
            return transform
        if kind == "scaling":
            w = math.exp(t / 2)
            s = math.exp(t)

            def transform(f):
                return lambda x: w * f(s * np.asarray(x, dtype=float))
            return transform
        raise OutsideGroup(f"unknown representation kind {kind!r}")

    semigroup_action = staticmethod(right_shift)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def interval_derivative(length: float) -> IntervalModel:
    return IntervalModel(length)


@lru_cache(maxsize=16)
def inverse_square(gamma: float) -> InverseSquareModel:
    return InverseSquareModel(gamma)


def halfline_derivative() -> HalflineModel:
    return HalflineModel()


def by_name(name: str, **params):
    """CLI-facing model selection: 'interval', 'inverse-square', 'halfline'."""
    if name == "interval":
        return interval_derivative(params.get("length", 1.0))
    if name == "inverse-square":
        return inverse_square(params.get("gamma", 0.0))
    if name == "halfline":
        return halfline_derivative()
    raise ValueError(f"unknown model {name!r}")
