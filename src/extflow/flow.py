"""The extension flow on the parameter ball of a model: evaluation from
overlap blocks, group-law validation, fixed points with their extension
kind, invariance classification across a one-parameter subgroup, and
cyclic-period detection.

In the scalar gauge the flow element for an affine g acts on the parameter
v as the linear-fractional map

    v -> (gamma_c*cmp - delta*cmm*v) / (alpha*cpp - beta*cpm*v),

with the Cayley coefficients of ``affine.flow_coefficients`` and the
overlap blocks of the model. The overall sign is fixed by the requirement
that the identity element act as the identity map (alpha = 2i, delta = -2i,
beta = gamma_c = 0 makes the map v -> v); the group law and the identity
law are enforced as tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import mobius
from .affine import (
    ALL_POINTS,
    AffineMap,
    Subgroup,
    flow_coefficients,
    subgroup_eval,
)
from .errors import (
    NearSingularDenominator,
    NumericalInconsistency,
    UnsupportedIndices,
)
from .mobius import IDENTITY_MAP, LinearFractionalMap, MapClass, classify

SELF_ADJOINT = "self-adjoint"
DISSIPATIVE = "dissipative-nonselfadjoint"


@dataclass(frozen=True)
class FlowMap:
    """Scalar-gauge realization of a flow element, with provenance."""

    mobius: LinearFractionalMap
    model: str
    g: AffineMap
    condition: float
    trivial: bool = False    # indices (0, 1): the parameter set is a point

    def distance_to_identity(self) -> float:
        return mobius.projective_distance(self.mobius, IDENTITY_MAP)


def gamma_map(model, g: AffineMap) -> FlowMap:
    """The flow element for g, as a disk self-map of the parameter ball."""
    dims = model.deficiency_dims
    if dims == (0, 1):
        return FlowMap(IDENTITY_MAP, model.name, g, 1.0, trivial=True)
    if dims != (1, 1):
        raise UnsupportedIndices(f"scalar flow needs indices (1, 1), got {dims}")
    co = flow_coefficients(g)
    ov = model.overlap_matrix(g)
    a = -co.delta * ov.cmm
    b = co.gamma_c * ov.cmp
    c = -co.beta * ov.cpm
    d = co.alpha * ov.cpp
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d))
    condition = scale * scale / abs(det) if abs(det) > 0 else math.inf
    if condition > 1e12:
        raise NearSingularDenominator(
            f"flow denominator condition {condition:.3e} for g={g}")
    return FlowMap(mobius.from_coefficients(a, b, c, d), model.name, g, condition)


def gamma_apply(model, g: AffineMap, v: complex) -> complex:
    """Transport the parameter v by the flow element for g."""
    v = complex(v)
    if abs(v) > 1.0 + 1e-10:
        raise ValueError(f"parameter modulus {abs(v)} exceeds the closed ball")
    fm = gamma_map(model, g)
    if fm.trivial:
        if v != 0:
            raise UnsupportedIndices("indices (0, 1): only the zero parameter exists")
        return v
    return mobius.apply(fm.mobius, v)


def _sample_parameters(count: int) -> list[complex]:
    """Deterministic parameter samples covering the ball and its boundary."""
    out = [0j]
    radii = (0.3, 0.6, 0.9, 1.0)
    per_ring = max(1, (count - 1) // len(radii))
    for r in radii:
        for k in range(per_ring):
            out.append(r * np.exp(2j * math.pi * (k + 0.17) / per_ring))
    return out[:max(count, 1)]


def check_group_law(model, f: AffineMap, g: AffineMap, samples: int = 25) -> float:
    """max |flow(f*g)(v) - flow(f)(flow(g)(v))| over parameter samples."""
    from .affine import compose
    left = gamma_map(model, compose(f, g))
    right_g = gamma_map(model, g)
    right_f = gamma_map(model, f)
    worst = 0.0
    for v in _sample_parameters(samples):
        via_product = mobius.apply(left.mobius, v)
        via_steps = mobius.apply(right_f.mobius, mobius.apply(right_g.mobius, v))
        worst = max(worst, abs(via_product - via_steps))
    return worst


def fixed_points_flow(model, g: AffineMap, sa_tol: float = 1e-9):
    """In-ball fixed points of the flow element for g, each tagged
    self-adjoint (unit modulus within sa_tol) or dissipative; ALL_POINTS
    when the element acts as the identity. ``sa_tol`` doubles as the
    relative discriminant threshold for reporting a double fixed point,
    matching the accuracy of the overlap data."""
    fm = gamma_map(model, g)
    if fm.trivial:
        return [(None, DISSIPATIVE)]
    fps = mobius.fixed_points(fm.mobius, parabolic_tol=max(sa_tol, 1e-12))
    if fps is ALL_POINTS:
        return ALL_POINTS
    out = []
    for z in fps:
        if mobius.is_infinite(z) or abs(z) > 1.0 + max(sa_tol, 1e-9):
            continue
        kind = SELF_ADJOINT if abs(abs(z) - 1.0) <= sa_tol else DISSIPATIVE
        out.append((z, kind))
    return out


class Verdict(Enum):
    ALL_EXTENSIONS_INVARIANT = "AllExtensionsInvariant"
    TWO_SELF_ADJOINT = "TwoSelfAdjoint"
    UNIQUE_DISSIPATIVE = "UniqueDissipative"
    NONE_FOUND = "NoneFound"


@dataclass
class InvarianceReport:
    fixed_points: list          # (parameter | None, kind) common to all samples
    flow_class: dict            # t -> MapClass
    group_verdict: Verdict
    cyclic_period: float | None = None
    notes: list = field(default_factory=list)


def invariant_extensions(model, group: Subgroup,
                         t_samples=(0.3, 0.7, 1.3, 2.9),
                         fp_tol: float = 1e-7,
                         sa_tol: float = 1e-9,
                         eps_class: float = 1e-9,
                         id_tol: float = 1e-8,
                         period_t_max: float | None = None) -> InvarianceReport:
    """Intersect the fixed-point sets of the flow over sampled subgroup
    elements and classify the invariant extensions. When ``period_t_max``
    is given, a cyclic-period scan up to that bound fills the report's
    ``cyclic_period`` field."""
    if model.deficiency_dims == (0, 1):
        return InvarianceReport(
            fixed_points=[(None, DISSIPATIVE)],
            flow_class={},
            group_verdict=Verdict.UNIQUE_DISSIPATIVE,
            notes=["indices (0, 1): the operator itself is the unique "
                   "invariant maximal dissipative extension"],
        )
    maps = {t: gamma_map(model, subgroup_eval(group, t)) for t in t_samples}
    classes = {t: classify(fm.mobius, eps_class) for t, fm in maps.items()}
    nontrivial = {t: fm for t, fm in maps.items()
                  if fm.distance_to_identity() > id_tol}
    if not nontrivial:
        return InvarianceReport(
            fixed_points=[],
            flow_class=classes,
            group_verdict=Verdict.ALL_EXTENSIONS_INVARIANT,
            notes=["every sampled element acts as the identity"],
        )
    per_sample = {}
    for t, fm in nontrivial.items():
        fps = fixed_points_flow(model, fm.g, sa_tol=sa_tol)
        per_sample[t] = [z for z, _ in fps]
    t0 = next(iter(per_sample))
    common = []
    for z in per_sample[t0]:
        if all(any(abs(z - w) <= fp_tol for w in per_sample[t])
               for t in per_sample):
            common.append(z)
    if not common:
        raise NumericalInconsistency(
            f"fixed-point sets share no common point within {fp_tol}: "
            f"{per_sample}")
    tagged = []
    for z in common:
        kind = SELF_ADJOINT if abs(abs(z) - 1.0) <= sa_tol else DISSIPATIVE
        tagged.append((z, kind))
    interior = [z for z, kind in tagged if kind == DISSIPATIVE]
    boundary = [z for z, kind in tagged if kind == SELF_ADJOINT]
    notes = []
    if interior and boundary:
        raise NumericalInconsistency(
            "both interior and boundary common fixed points found for a "
            "non-identity flow")
    if interior:
        if len(interior) > 1:
            raise NumericalInconsistency(
                f"multiple interior fixed points {interior}")
        verdict = Verdict.UNIQUE_DISSIPATIVE
    elif boundary:
        verdict = Verdict.TWO_SELF_ADJOINT
        if len(boundary) == 1:
            notes.append("single boundary fixed point: the two extremal "
                         "self-adjoint invariant extensions coincide")
    else:
        verdict = Verdict.NONE_FOUND
    cyclic_period = None
    if period_t_max is not None:
        cyclic_period = period_detect(model, group, t_max=period_t_max,
                                      tol=max(10 * id_tol, 1e-8))
    return InvarianceReport(
        fixed_points=tagged,
        flow_class=classes,
        group_verdict=verdict,
        cyclic_period=cyclic_period,
        notes=notes,
    )


def period_detect(model, group: Subgroup, t_max: float, tol: float = 1e-8,
                  grid: int = 2048) -> float | None:
    """Smallest T in (0, t_max] whose flow element is the identity within
    tol (projective coefficient distance): coarse scan plus ternary
    refinement of scan minima. None when no period is found."""

    def dist(t: float) -> float:
        return gamma_map(model, subgroup_eval(group, t)).distance_to_identity()

    ts = np.linspace(t_max / grid, t_max, grid)
    ds = np.array([dist(t) for t in ts])
    candidates = [i for i in range(1, grid - 1)
                  if ds[i] <= ds[i - 1] and ds[i] <= ds[i + 1]]
    if ds[-1] <= ds[-2]:
        candidates.append(grid - 1)
    for i in candidates:
        lo = ts[i - 1] if i >= 1 else ts[0]
        hi = ts[i + 1] if i + 1 < grid else t_max
        for _ in range(120):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if dist(m1) <= dist(m2):
                hi = m2
            else:
                lo = m1
            if hi - lo < 1e-12 * max(1.0, t_max):
                break
        t_star = 0.5 * (lo + hi)
        if dist(t_star) <= tol:
            return t_star
    return None


@dataclass
class SemiboundedFixedReport:
    v_friedrichs: complex
    v_krein: complex
    residual_friedrichs: float
    residual_krein: float


def verify_semibounded_fixed(model, t_samples=(0.5, 1.0, 2.0)) -> SemiboundedFixedReport:
    """Check that the extremal nonnegative extensions' parameters are fixed
    points of the flow, for a semibounded inverse-square model."""
    v_f = model.vn_from_boundary("friedrichs")
    v_k = model.vn_from_boundary("krein")
    res_f = res_k = 0.0
    for t in t_samples:
        g = subgroup_eval(model.group, t)
        fm = gamma_map(model, g)
        res_f = max(res_f, abs(mobius.apply(fm.mobius, v_f) - v_f))
        res_k = max(res_k, abs(mobius.apply(fm.mobius, v_k) - v_k))
    return SemiboundedFixedReport(v_f, v_k, res_f, res_k)


def orbit(model, group: Subgroup, v0: complex, t_list) -> list[complex]:
    """Trajectory of the parameter v0 under sampled flow elements."""
    return [gamma_apply(model, subgroup_eval(group, t), v0) for t in t_list]
