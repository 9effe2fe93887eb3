"""Grid-level checks of the restricted (generalized) commutation relation

    U_t V_s = e^{i s g_t(0)} V_{g'_t(0) s} U_t,   s >= 0,

between the unitary family U_t and the contraction semigroup V_s, plus
generator-level invariance checks U_t A U_t^* = a_t A + b_t I measured by a
least-squares fit of (a_t, b_t) over a dictionary of exact jets (f, f', f''),
and a function-level phase measurement of the relation. ``represent`` maps
a jet by a model's Representation record, through the chain and product
rules, and ``right_shift`` is the shift semigroup on jets.

The interval grid uses the one-sided (upwind) difference for i d/dx with a
Dirichlet condition at 0, which makes the semigroup an exact down-shift for
on-grid times. Every grid operator is therefore a diagonal times a k-fold
down-shift, and the residual sweep keeps only what each factor needs: U_t
is its diagonal of phases e^{i x_j t}, and V_s its shift count
k = round(s/h), the ones on its diagonal changing no product. The
commutator U_t V_s - e^{i s t} V_s U_t is then the single diagonal
u_j - e^{i s t} u_{j-k} times S^k, and its operator norm is the exact
maximum of that diagonal, in O(n). The relation then holds to machine
precision on the grid, while off-grid times are realized by nearest-grid
rounding and converge at first order. One sweep, residual_rows, serves the
weyl and refine commands and the acceptance battery: it lays out the grid,
s and k once per size, and refine fits its convergence order. Sizes that
differ by a power of two, n = N / 2^a, form a dyadic chain, keyed by their
odd part. Where h is a normal float, dividing by 2^a is exact, so
fl(l/n) = 2^a fl(l/N) and node j of the grid of n is node 2^a j of the grid
of N, the same double, as is its phase. The sweep therefore takes U_t once
per (chain, t), on the chain's largest grid, reads each smaller size's
phases as every 2^a-th of them, and runs the (chain, t) cells on worker
threads when asked. V_s's GridOperator record, from semigroup, serves the
nilpotency check; the nilpotency index n h of the shift semigroup is fixed
by the construction.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DynamicRangeExceeded, InsufficientData, InvalidArgument

_CORES = os.cpu_count() or 1
# the on-grid residual that counts as exact; the floors of (1 + |t| l) eps, the
# rounding of the phases x_j t (measured <= 1.36), within which a residual past
# it is unresolved; and the least off-grid order
ON_GRID_TOL, ON_GRID_FLOORS, ORDER_MIN = 1e-12, 16.0, 0.9
# off the grid s - k h = h/2, so the residual is 2|sin(t h / 4)| and the order
# between grids h and h/2 is 1 + log2 cos(t h / 8): below ORDER_MIN past this t h
SATURATED_TH = 8 * math.acos(2 ** (ORDER_MIN - 1))


# ---------------------------------------------------------------------------
# grid operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalGrid:
    """The upwind grid on (0, n h). Its nodes x_j = j h, j = 1..n, are formed
    on the first read, where U_t's phases are taken, and kept for the reads
    at later t: residual_rows reads them only on the largest grid of each
    dyadic chain of sizes, whose every 2^a-th node is the node of the grid
    of n / 2^a, so the chain's other grids, like the certificate's, never
    form theirs."""

    n: int
    h: float

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)


@dataclass(frozen=True)
class GridOperator:
    """diag(d) S^k on C^n, S the down-shift: (A f)_j = d_j f_{j-k} for
    j >= k and 0 for j < k. Entries d_j with j < k are kept at zero, so
    k >= n is the zero operator: V_s for the nilpotency check, whereas the
    residual sweep reads U_t's diagonal and V_s's k alone."""

    diag: np.ndarray
    shift: int

    @property
    def shape(self) -> tuple:
        return (len(self.diag), len(self.diag))


def build_interval_grid(length: float, n: int) -> IntervalGrid:
    """The grid for upwind i d/dx with f(0) = 0 and multiplication by x."""
    if n < 8:
        raise InvalidArgument("need n >= 8")
    return IntervalGrid(n, length / n)


def unitary_group(grid: IntervalGrid, t: float) -> np.ndarray:
    """e^{i x t}: its diagonal of phases e^{i x_j t}, a 1-D array."""
    return np.exp(grid.nodes * (1j * t))


def shift_count(grid: IntervalGrid, s: float) -> int:
    """V_s's shift k = round(s/h), at most n: off-grid times round to the
    nearest grid time. InvalidArgument for s < 0."""
    if s < 0:
        raise InvalidArgument("semigroup parameter must be nonnegative")
    return min(int(round(s / grid.h)), grid.n)


def semigroup(grid: IntervalGrid, s: float) -> GridOperator:
    """The contraction semigroup of the upwind generator at time s: the
    exact k-fold down-shift with k = shift_count(grid, s). Nilpotent: the
    zero operator for s >= length."""
    k = shift_count(grid, s)
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

def weyl_residual(u: np.ndarray, k: int, t: float, s: float) -> float:
    """Operator norm of U_t V_s - e^{i s t} V_s U_t, the translation case
    g_t(x) = x + t of the relation, from U_t's phases u and V_s's shift k:
    it is diag(u_j - e^{i s t} u_{j-k}) S^k, whose norm is exactly
    max_{j >= k} |u_j - e^{i s t} u_{j-k}|, and 0 once k >= n."""
    n = len(u)
    k = min(k, n)
    diff = u[k:] - cmath.exp(1j * s * t) * u[:n - k]
    return float(np.maximum.reduce(np.abs(diff), initial=0.0))


# ---------------------------------------------------------------------------
# residual sweeps and refinement orders
# ---------------------------------------------------------------------------

def residual_rows(length: float, n_list, t_values, on_grid: bool, jobs: int = 1) -> list:
    """The residual for every listed grid size n and group parameter t, at
    semigroup time s = (n//3) h on the grid, or half a spacing off it, the
    worst case for nearest-grid rounding. The grid, s and V_s's shift k
    depend on n alone and are laid out once per distinct size. Sizes with
    one odd part form a dyadic chain, n = N / 2^a below its largest size N:
    where h is a normal float, fl(l/n) = 2^a fl(l/N) exactly, so node j of
    the grid of n is node 2^a j of the grid of N, the same double, and so is
    its phase. U_t is therefore computed once per (chain, t), on N, and each
    size of the chain reads every 2^a-th phase of it; a size whose h is not
    2^a times N's heads a chain of its own. The (chain, t) cells run on up
    to jobs worker threads, at most one per core, since more cannot speed
    CPU-bound cells. Rows come in (n, t) order, equal t as listed, whatever
    the number of threads, and a size listed twice gives each row twice. On
    the grid, DynamicRangeExceeded for a row past ON_GRID_TOL within the floors."""
    variant = "on-grid" if on_grid else "off-grid"
    sizes, heads, chains = {}, {}, {}
    for n in sorted(set(n_list), reverse=True):
        grid = build_interval_grid(length, n)
        s = float((n // 3 + (0.0 if on_grid else 0.5)) * grid.h)
        odd = n // (n & -n)
        head = heads.setdefault(odd, n)
        if head != n and sizes[head][0].h * (head // n) != grid.h:   # h subnormal on the head
            head = heads[odd] = n
        # a chain: its largest grid, and each size's stride, k and s in turn
        _, plan = chains.setdefault(head, (grid, []))
        sizes[n] = grid, s, head, len(plan)
        plan.append((head // n, shift_count(grid, s), s))

    def chain_residuals(cell):
        (grid, plan), t = cell
        u = unitary_group(grid, t)
        out = []
        for step, k, s in plan:     # a loop: a comprehension costs a frame per cell
            out.append(weyl_residual(u if step == 1 else u[step - 1::step], k, t, s))
        return out

    cells = [(chain, t) for chain in chains.values() for t in t_values]
    workers = min(jobs, _CORES)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(chain_residuals, cells))
    else:
        done = list(map(chain_residuals, cells))
    ts = [float(t) for t in t_values]
    blocks = {head: done[c * len(ts):(c + 1) * len(ts)] for c, head in enumerate(chains)}
    # t by value, ties as listed, and a size listed twice takes each t twice:
    # the order a stable sort of the listed rows gives
    order = sorted(range(len(ts)), key=ts.__getitem__)
    rows = [{"n": n, "h": grid.h, "t": ts[i], "s": s, "variant": variant,
             "residual": blocks[head][i][place]}
            for n, (grid, s, head, place) in sorted(sizes.items())
            for i in (order if n_list.count(n) == 1
                      else sorted(order * n_list.count(n), key=ts.__getitem__))]
    for r in rows if on_grid else ():
        floor = ON_GRID_FLOORS * (1 + abs(r["t"]) * length) * math.ulp(1.0)
        if ON_GRID_TOL < r["residual"] <= floor:
            raise DynamicRangeExceeded(f"on-grid residual {r['residual']:.3g} at n = {r['n']}, "
                                       f"t = {r['t']:g} is within the rounding of x_j t, {floor:.3g}")
    return rows


def refine(length: float, n_list, t_values, on_grid: bool, jobs: int = 1) -> tuple:
    """residual_rows, and the least-squares slope of log(worst residual per
    grid size) against log(h), or "exact" when each is within ON_GRID_TOL;
    InvalidArgument, before any row, for fewer than three distinct sizes, no t
    or an off-grid |t| h past SATURATED_TH on the coarsest grid. Off-grid times
    sit at (k + 1/2) h, the worst case for rounding: the order tracks its envelope."""
    if len(set(n_list)) < 3 or not len(t_values):
        raise InvalidArgument("need at least three distinct grid sizes and a group parameter")
    th = max(abs(t) for t in t_values) * (length / min(n_list))
    if not on_grid and th > SATURATED_TH:
        raise InvalidArgument(f"off-grid |t| h = {th:.4g} > {SATURATED_TH:.4g} at the largest h")
    rows = residual_rows(length, n_list, t_values, on_grid, jobs)
    worst = {}
    for r in rows:
        size = (r["n"], r["h"])
        worst[size] = max(worst.get(size, 0.0), r["residual"])
    sizes = sorted(worst)
    if all(worst[size] <= ON_GRID_TOL for size in sizes):
        return rows, "exact"
    xs = [math.log(h) for _, h in sizes]
    ys = [math.log(max(worst[size], 1e-300)) for size in sizes]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return rows, (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                  / sum((x - mx) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# continuum actions on exact jets
# ---------------------------------------------------------------------------

def represent(rep, jet):
    """The image of a jet under a model's ``Representation`` record
    (U f)(x) = w e^{i kappa x} f(s x): a jet maps points x to (f, f', ...)
    at x, and U maps it to the jet of U f of the same length by the chain
    rule s^k f^(k)(s x) and the product rule with e^{i kappa x}. A value is
    a jet's first component. DynamicRangeExceeded where a power of i kappa
    that the jet needs is not a float."""
    s, ik = rep.dilation, 1j * rep.frequency

    def image(x):
        x = np.asarray(x, dtype=float)
        chain = [np.float64(s) ** k * c for k, c in enumerate(jet(s * x))]
        factor = rep.weight * np.exp(ik * x)
        try:
            return tuple(factor * sum(math.comb(n, k) * ik ** (n - k) * chain[k]
                                      for k in range(n + 1))
                         for n in range(len(chain)))
        except OverflowError:
            raise DynamicRangeExceeded(f"a power of i kappa is not a float at kappa = "
                                       f"{rep.frequency:g}") from None

    return image


def right_shift(s: float, jet):
    """Right shift with zero fill, f -> f(x - s) for x > s and 0 below, on
    each component of a jet: the contraction semigroup of i d/dx with
    f(0) = 0 on the interval and the half-line alike."""
    if s < 0:
        raise InvalidArgument("semigroup parameter must be nonnegative")

    def shifted(x):
        x = np.asarray(x, dtype=float)
        return tuple(np.where(x > s, c, 0.0) for c in jet(np.maximum(x - s, 0.0)))

    return shifted


# ---------------------------------------------------------------------------
# generator-level invariance
# ---------------------------------------------------------------------------

# the worst residual, relative to |U A U* f|, that the generator check
# passes: ten times the largest measured (README, "Scaling orientation")
GENERATOR_TOL = 2e-14
# the phase check's bound on |e^{ib} - 1|, in rounding floors of b, and the
# widest bound that resolves the phase; wherever it resolves, over t in [-40,
# 460] on nine couplings and the half-line, the phase measured <= 0.95 floors
PHASE_FLOORS, PHASE_RESOLUTION = 10.0, 1e-3
# the fitted scale's bound relative to e^{-t}: at most 3.6e-15 measured wherever
# the check resolves, over t in [-45, 600] on the half-line and seven couplings
SCALE_TOL = 1e-13


def _sample_grid(model, n: int = 4096) -> np.ndarray:
    """n equispaced points on (0, l] for the interval, (0, 30] else."""
    right = getattr(model, "length", 30.0)
    return np.linspace(right / n, right, n)


def _apply_generator(model, values, x: np.ndarray) -> np.ndarray:
    """A f from an exact jet's values (f, f', f'') at x: i f' or
    -f'' + gamma f / x^2."""
    if model.generator_kind == "first-order":
        return 1j * values[1]
    f, _, second = values
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
    phase_floor: float       # eps |a_t| |A f|/|f|, the rounding floor of b_t

    def passes(self, group: str, t: float) -> bool:
        """The verdict at t: the residual within GENERATOR_TOL and, along the
        scaling group, fits_scaling(t), which is not tried on a failed fit."""
        return self.residual <= GENERATOR_TOL and (group != "scaling" or self.fits_scaling(t))

    def fits_scaling(self, t: float) -> bool:
        """Scale e^{-t} within SCALE_TOL relative, read through its log, which no
        |t| overflows, and phase factor 1 within PHASE_FLOORS rounding floors;
        DynamicRangeExceeded where those exceed PHASE_RESOLUTION."""
        if not 0 < abs(self.scale) < math.inf:
            return False
        bound = PHASE_FLOORS * self.phase_floor
        if not bound <= PHASE_RESOLUTION:
            raise DynamicRangeExceeded(f"at t = {t:g} the phase bound, {PHASE_FLOORS:g} "
                                       f"rounding floors, is {bound:.3g} > {PHASE_RESOLUTION:g}")
        log_ratio = cmath.log(self.scale) + t
        return (log_ratio.real < 1 and abs(cmath.exp(log_ratio) - 1) <= SCALE_TOL
                and abs(self.phase_factor - 1) <= bound)


def generator_invariance_residual(model, rep_kind: str, t: float) -> GeneratorCheck:
    """Fit U_t A U_t^* f = a A f + b f over the dictionary by one least-squares
    solve on the trapezoid-weighted columns [A f, f]; report the fitted pair
    and the worst residual relative to |U_t A U_t^* f|, which the scaling
    leaves unchanged. The jets are exact, and both sides read each entry at
    the grid points. DynamicRangeExceeded where U_t A U_t^* f is zero or not
    a float on the grid, or A U_t^* f peaks below the normal floats there."""
    test_functions = default_test_functions(model)
    xs = _sample_grid(model)
    forward, backward = model.representation(rep_kind, t), model.representation(rep_kind, -t)
    h = xs[1] - xs[0]
    root_w = np.sqrt(np.r_[h / 2, np.full(len(xs) - 2, h), h / 2])   # trapezoid weights
    # a left side beyond the floats raises below; a phase factor beyond them
    # is inf or nan and fails fits_scaling
    with np.errstate(all="ignore"):
        # A U* f at the points s x that (U g)(x) = w e^{i kappa x} g(s x)
        # reads, which U then maps as the values of g there. Where a row's
        # peak is subnormal, its entries have lost digits that w cannot restore
        ys = forward.dilation * xs
        inner = [_apply_generator(model, represent(backward, jet)(ys), ys)
                 for _, jet in test_functions]
        lhs = root_w * np.array([represent(forward, lambda y, row=row: (row,))(xs)[0]
                                 for row in inner])
        peaks = np.abs(lhs).max(axis=1)
        if not all(np.finfo(float).tiny <= peak < math.inf for peak in peaks):
            raise DynamicRangeExceeded(
                f"U A U* f is zero or not a normal float on the grid at t = {t:g}")
        if not all(np.abs(row).max() >= np.finfo(float).tiny for row in inner):
            raise DynamicRangeExceeded(
                f"A U* f, read where U reads it, peaks below the normal floats at t = {t:g}")
        # each row and its residual scaled by the power of two that brings
        # the row's peak into [1/2, 1): exact, so the ratio of their norms
        # keeps its bytes, and the squares inside the norms stay floats
        row_scale = np.ldexp(1.0, -np.frexp(peaks)[1])[:, None]
        values = [jet(xs) for _, jet in test_functions]
        columns = root_w * np.array([[_apply_generator(model, v, xs), v[0]] for v in values])
        (scale, offset), *_ = np.linalg.lstsq(
            columns.transpose(0, 2, 1).reshape(-1, 2), lhs.ravel(), rcond=None)
        resid = lhs - scale * columns[:, 0] - offset * columns[:, 1]
        worst = float(np.max(np.linalg.norm(row_scale * resid, axis=1)
                             / np.linalg.norm(row_scale * lhs, axis=1)))
        floor = (np.finfo(float).eps * abs(scale) * np.linalg.norm(columns[:, 0])
                 / np.linalg.norm(columns[:, 1]))
        return GeneratorCheck(worst, complex(scale), complex(offset),
                              complex(np.exp(1j * offset)), float(floor))


# ---------------------------------------------------------------------------
# continuum-level phase measurement
# ---------------------------------------------------------------------------

def measure_commutation_phase(model, rep_kind: str, t: float, s: float) -> dict:
    """Best-fit scalar c and time-scale orientation in
    U_t V_s f = c V_{a s} U_t f, at the function level, with V the shift
    semigroup ``right_shift`` of a first-order model (InvalidArgument for
    any other). Both candidate orientations of the scale factor are fitted
    and the better one reported. Where U_t V_s f vanishes on the sample
    grid every c fits, so the phase is undetermined: InsufficientData.
    Where only V_{a s} U_t f vanishes, the phase reads 0 with relative
    residual 1."""
    if model.generator_kind != "first-order":
        raise InvalidArgument(f"the {model.name} model has no shift semigroup: "
                              "its generator is not first-order")
    xs = _sample_grid(model)
    forward = model.representation(rep_kind, t)
    jets = [jet for _, jet in default_test_functions(model)]
    lhs = np.array([represent(forward, right_shift(s, jet))(xs)[0] for jet in jets])
    norm = np.trapezoid(np.abs(lhs) ** 2, xs).sum()
    if not norm:
        raise InsufficientData(f"U_t V_s f vanishes on the sample grid at t = {t:g}, "
                               f"s = {s:g}: the phase is undetermined")
    results = []
    for orientation in (0.0,) if rep_kind == "translation" else (-1.0, 1.0):
        a_scale = math.exp(orientation * t) if orientation else 1.0
        rhs = np.array([right_shift(a_scale * s, represent(forward, jet))(xs)[0]
                        for jet in jets])
        den = np.trapezoid(np.abs(rhs) ** 2, xs).sum()
        phase = complex(np.trapezoid(np.conj(rhs) * lhs, xs).sum() / den) if den else 0j
        resid = np.trapezoid(np.abs(lhs - phase * rhs) ** 2, xs).sum()
        results.append({"scale_exponent": orientation, "scale": a_scale, "phase": phase,
                        "relative_residual": math.sqrt(resid / norm)})
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
