"""Grid-level checks of the restricted (generalized) commutation relation

    U_t V_s = e^{i s g_t(0)} V_{g'_t(0) s} U_t,   s >= 0,

between the unitary family U_t and the contraction semigroup V_s, plus
generator-level invariance checks U_t A U_t^* = a_t A + b_t I measured by a
least-squares fit of (a_t, b_t) over a dictionary of exact jets (f, f', f''),
which each model's Representation record maps by the chain and product rules.

The interval grid uses the one-sided (upwind) difference for i d/dx with a
Dirichlet condition at 0, which makes the semigroup an exact down-shift for
on-grid times. Every grid operator is therefore stored by its structure, a
diagonal times a k-fold down-shift: U_t is the diagonal of phases e^{i x_j t}
and V_s the shift by k = round(s/h). Products stay of that form, so the
commutator U_t V_s - e^{i s t} V_s U_t has a single nonzero diagonal and
its operator norm is the exact maximum of that diagonal, in O(n). The
relation then holds to machine precision on the grid, while off-grid times
are realized by nearest-grid rounding and converge at first order. The
nilpotency index n h of the shift semigroup is fixed by the construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DynamicRangeExceeded, InvalidArgument


# ---------------------------------------------------------------------------
# grid operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalGrid:
    """The nodes x_j = j h, j = 1..n, of the upwind grid on (0, n h)."""

    n: int
    h: float

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h


@dataclass(frozen=True)
class GridOperator:
    """diag(d) S^k on C^n, S the down-shift: (A f)_j = d_j f_{j-k} for
    j >= k and 0 for j < k. Entries d_j with j < k are kept at zero, so
    k >= n is the zero operator."""

    diag: np.ndarray
    shift: int

    @property
    def shape(self) -> tuple:
        return (len(self.diag), len(self.diag))

    def __matmul__(self, other: "GridOperator") -> "GridOperator":
        # D1 S^k1 D2 S^k2 = D1 (S^k1 D2 S^-k1) S^(k1+k2), and S^k1 D2 S^-k1
        # is D2 moved down by k1
        n, k1 = len(self.diag), self.shift
        k = min(k1 + other.shift, n)
        d = np.zeros(n, dtype=complex)
        d[k:] = self.diag[k:] * other.diag[k - k1:n - k1]
        return GridOperator(d, k)

    def __rmul__(self, scalar: complex) -> "GridOperator":
        return GridOperator(scalar * self.diag, self.shift)

    def __sub__(self, other: "GridOperator") -> "GridOperator":
        if other.shift != self.shift:
            raise InvalidArgument("the difference of two shifts by different counts "
                             "is not a diagonal times a shift")
        return GridOperator(self.diag - other.diag, self.shift)


def build_interval_grid(length: float, n: int) -> IntervalGrid:
    """The grid for upwind i d/dx with f(0) = 0 and multiplication by x."""
    if n < 8:
        raise InvalidArgument("need n >= 8")
    return IntervalGrid(n, length / n)


def unitary_group(grid: IntervalGrid, t: float) -> GridOperator:
    """e^{i x t}: the diagonal of phases e^{i x_j t}."""
    return GridOperator(np.exp(1j * grid.nodes * t), 0)


def semigroup(grid: IntervalGrid, s: float) -> GridOperator:
    """The contraction semigroup of the upwind generator at time s: the
    exact k-fold down-shift with k = round(s/h); off-grid times round to
    the nearest grid time. Nilpotent: the zero operator for s >= length."""
    if s < 0:
        raise InvalidArgument("semigroup parameter must be nonnegative")
    k = min(int(round(s / grid.h)), grid.n)
    d = np.ones(grid.n, dtype=complex)
    d[:k] = 0.0
    return GridOperator(d, k)


def operator_norm(op: GridOperator) -> float:
    """The exact operator norm of diag(d) S^k: max |d_j| over j >= k, each
    column holding at most one entry."""
    return float(np.abs(op.diag).max(initial=0.0))


# ---------------------------------------------------------------------------
# commutation residuals
# ---------------------------------------------------------------------------

def weyl_residual(u: GridOperator, v: GridOperator, t: float, s: float) -> float:
    """Operator norm of U_t V_s - e^{i s t} V_s U_t, the translation case
    g_t(x) = x + t of the relation. Both products shift by k, so the
    difference is diag(u_j - e^{i s t} u_{j-k}) S^k and its norm is exact."""
    # a Python complex, so that the product below is GridOperator.__rmul__
    # and not a numpy broadcast over the operator
    phase = complex(np.exp(1j * s * t))
    return operator_norm(u @ v - phase * (v @ u))


def residual_row(length: float, n: int, t: float, on_grid: bool) -> dict:
    """The residual at semigroup time s = (n//3) h on the grid, or half a
    spacing off it, the worst case for nearest-grid rounding."""
    grid = build_interval_grid(length, n)
    s = (n // 3 + (0.0 if on_grid else 0.5)) * grid.h
    res = weyl_residual(unitary_group(grid, t), semigroup(grid, s), t, s)
    return {"n": n, "h": grid.h, "t": float(t), "s": float(s),
            "variant": "on-grid" if on_grid else "off-grid", "residual": res}


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

@dataclass
class ResidualTable:
    rows: list = field(default_factory=list)   # dicts: n, h, t, s, variant, residual

    def append(self, **row):
        self.rows.append(row)

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r["variant"], r["n"], r["t"], r["s"]))


@dataclass
class RefinementResult:
    table: ResidualTable
    orders: dict    # variant -> fitted order (float) or "exact"


def refinement_study(length: float, n_list, t_values, on_grid: bool) -> RefinementResult:
    """Sweep grid sizes and group parameters; fit log(residual) against
    log(h). Off-grid times sit at the half-spacing offset (k + 1/2) h, the
    worst case for nearest-grid rounding, so the fitted order tracks the
    error envelope. Residuals at the rounding floor are reported as "exact"."""
    if len(set(n_list)) < 3:
        raise InvalidArgument("need at least three distinct grid sizes")
    table = ResidualTable()
    variant = "on-grid" if on_grid else "off-grid"
    for n in sorted(n_list):
        for t in t_values:
            table.append(**residual_row(length, n, t, on_grid))
    worst = {}
    for r in table.rows:
        worst.setdefault(r["n"], 0.0)
        worst[r["n"]] = max(worst[r["n"]], r["residual"])
    ns = sorted(worst)
    if all(worst[n] <= 1e-12 for n in ns):
        order = "exact"
    else:
        hs = np.log([length / n for n in ns])
        rs = np.log([max(worst[n], 1e-300) for n in ns])
        slope = np.polyfit(hs, rs, 1)[0]
        order = float(slope)
    return RefinementResult(table, {variant: order})


# ---------------------------------------------------------------------------
# generator-level invariance
# ---------------------------------------------------------------------------

# the worst residual, relative to |U A U* f|, that the generator check
# passes: ten times the largest measured (README, "Scaling orientation")
GENERATOR_TOL = 2e-14


def _sample_grid(model, n: int = 4096) -> np.ndarray:
    """n equispaced points on (0, l] for the interval, (0, 30] else."""
    right = getattr(model, "length", 30.0)
    return np.linspace(right / n, right, n)


def _apply_generator(model, jet, x: np.ndarray) -> np.ndarray:
    """A f from the exact jet: i f' or -f'' + gamma f / x^2."""
    if model.generator_kind == "first-order":
        return 1j * jet(x)[1]
    f, _, second = jet(x)
    return -second + model.gamma / (x * x) * f


def _x_exp(x):
    e = np.exp(-x)
    return x * e, (1 - x) * e, (x - 2) * e


def _x2_exp(x):
    e = np.exp(-x)
    return x * x * e, x * (2 - x) * e, (2 - 4 * x + x * x) * e


def _x_sin_gauss(x):
    h, h1, h2 = x * np.sin(x), np.sin(x) + x * np.cos(x), 2 * np.cos(x) - x * np.sin(x)
    g = np.exp(-x * x / 2)
    return h * g, (h1 - x * h) * g, (h2 - 2 * x * h1 + (x * x - 1) * h) * g


def default_test_functions(model):
    """Smooth dictionary vanishing at 0 and rapidly decaying, each entry the
    exact jet (f, f', f''); entries with quadratic vanishing only, when the
    potential needs it."""
    full = [("x*exp(-x)", _x_exp), ("x^2*exp(-x)", _x2_exp),
            ("x*sin(x)*exp(-x^2/2)", _x_sin_gauss)]
    return full[1:] if model.generator_kind == "schrodinger" and model.gamma != 0.0 else full


@dataclass(frozen=True)
class GeneratorCheck:
    residual: float          # worst |U A U* f - (a A f + b f)| / |U A U* f| after the fit
    scale: complex           # fitted a_t
    offset: complex          # fitted b_t
    phase_factor: complex    # e^{i b_t}, the commutation phase per unit time

    def fits_scaling(self, t: float) -> bool:
        """Scale e^{-t} and phase factor 1 within 1e-6 relative; the scale is
        read as |scale e^t - 1| through its log, which no |t| overflows."""
        if not 0 < abs(self.scale) < math.inf:
            return False
        log_ratio = cmath.log(self.scale) + t
        return (log_ratio.real < 1 and abs(cmath.exp(log_ratio) - 1) <= 1e-6
                and abs(self.phase_factor - 1) <= 1e-6)


def generator_invariance_residual(model, rep_kind: str, t: float,
                                  test_functions=None) -> GeneratorCheck:
    """Fit U_t A U_t^* f = a A f + b f over the dictionary by one least-squares
    solve on the trapezoid-weighted columns [A f, f]; report the fitted pair
    and the worst residual relative to |U_t A U_t^* f|, which the scaling
    leaves unchanged. The jets are exact, and both sides read each entry at
    the grid points. DynamicRangeExceeded where U_t A U_t^* f is zero or not
    a float on the grid."""
    test_functions = test_functions or default_test_functions(model)
    xs = _sample_grid(model)
    forward, backward = model.representation(rep_kind, t), model.representation(rep_kind, -t)
    h = xs[1] - xs[0]
    root_w = np.sqrt(np.r_[h / 2, np.full(len(xs) - 2, h), h / 2])   # trapezoid weights
    # a left side beyond the floats raises below; a phase factor beyond them
    # is inf or nan and fails fits_scaling
    with np.errstate(all="ignore"):
        lhs = root_w * np.array([
            forward(lambda y, p=backward(jet): (_apply_generator(model, p, y),))(xs)[0]
            for _, jet in test_functions])
        peaks = np.abs(lhs).max(axis=1)
        if not all(np.finfo(float).tiny <= peak < math.inf for peak in peaks):
            raise DynamicRangeExceeded(
                f"U A U* f is zero or not a normal float on the grid at t = {t:g}")
        # each row and its residual scaled by the power of two that brings
        # the row's peak into [1/2, 1): exact, so the ratio of their norms
        # keeps its bytes, and the squares inside the norms stay floats
        row_scale = np.ldexp(1.0, -np.frexp(peaks)[1])[:, None]
        columns = root_w * np.array([[_apply_generator(model, jet, xs), jet(xs)[0]]
                                     for _, jet in test_functions])
        (scale, offset), *_ = np.linalg.lstsq(
            columns.transpose(0, 2, 1).reshape(-1, 2), lhs.ravel(), rcond=None)
        resid = lhs - scale * columns[:, 0] - offset * columns[:, 1]
        worst = float(np.max(np.linalg.norm(row_scale * resid, axis=1)
                             / np.linalg.norm(row_scale * lhs, axis=1)))
        return GeneratorCheck(worst, complex(scale), complex(offset),
                              complex(np.exp(1j * offset)))


# ---------------------------------------------------------------------------
# continuum-level phase measurement
# ---------------------------------------------------------------------------

def measure_commutation_phase(model, rep_kind: str, t: float, s: float) -> dict:
    """Best-fit scalar c and time-scale orientation in
    U_t V_s f = c V_{a s} U_t f, at the function level, using the model's
    closed-form semigroup action. Both candidate orientations of the scale
    factor are fitted and the better one reported."""
    xs = _sample_grid(model)
    forward = model.representation(rep_kind, t)
    jets = [jet for _, jet in default_test_functions(model)]
    results = []
    for orientation in (0.0,) if rep_kind == "translation" else (-1.0, 1.0):
        a_scale = math.exp(orientation * t) if orientation else 1.0
        lhs = np.array([forward(model.semigroup_action(s, jet))(xs)[0] for jet in jets])
        rhs = np.array([model.semigroup_action(a_scale * s, forward(jet))(xs)[0]
                        for jet in jets])
        den = np.trapezoid(np.abs(rhs) ** 2, xs).sum()
        phase = complex(np.trapezoid(np.conj(rhs) * lhs, xs).sum() / den) if den else 0j
        resid = np.trapezoid(np.abs(lhs - phase * rhs) ** 2, xs).sum()
        norm = np.trapezoid(np.abs(lhs) ** 2, xs).sum()
        results.append({"scale_exponent": orientation, "scale": a_scale, "phase": phase,
                        "relative_residual": math.sqrt(resid / norm) if norm else 0.0})
    best = min(results, key=lambda r: r["relative_residual"])
    best["alternatives"] = [r for r in results if r is not best]
    return best


# ---------------------------------------------------------------------------
# nonequivalence certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonequivalenceReport:
    certified: bool
    sstar_1: float
    sstar_2: float
    h1: float
    h2: float
    message: str


def nilpotency_index(grid: IntervalGrid) -> float:
    """inf{s = k h : V_s = 0} for the grid's shift semigroup. The k-fold
    down-shift on n nodes vanishes exactly when k >= n, so the index is
    n h, the interval length up to rounding, by construction."""
    return grid.n * grid.h


def nonequivalence_certificate(l1: float, l2: float, n: int = 256) -> NonequivalenceReport:
    """Separate the shift semigroups of two interval lengths by their
    nilpotency indices (a unitary invariant); refuses when the indices
    are not separated beyond one grid spacing."""
    grid1 = build_interval_grid(l1, n)
    grid2 = build_interval_grid(l2, n)
    s1 = nilpotency_index(grid1)
    s2 = nilpotency_index(grid2)
    margin = max(grid1.h, grid2.h)
    certified = abs(s1 - s2) > margin
    verdict = (f"separated beyond {margin:.3g}" if certified
               else "not separated beyond one spacing")
    message = (f"nilpotency indices {s1:.6g} vs {s2:.6g}, each n h by the "
               f"grid construction: {verdict}")
    return NonequivalenceReport(certified, s1, s2, grid1.h, grid2.h, message)
