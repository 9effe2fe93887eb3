"""The extension flow on the parameter ball of a model: flow elements from
overlap blocks, group-law validation, fixed points with their extension
kind, and the flow's generator, from which invariance and the cyclic
period are read.

In the scalar gauge the flow element for an affine g acts on the parameter
v as the linear-fractional map

    v -> (gamma_c*cmp - delta*cmm*v) / (alpha*cpp - beta*cpm*v),

with the Cayley coefficients of ``affine.flow_coefficients`` and the
overlap blocks of the model; the identity element acts as v -> v. Along a
one-parameter subgroup the elements form a one-parameter group exp(tX), so
the sign of det X gives the class, X fixes the invariant extensions for
every t at once, and an elliptic X has the period pi/sqrt(det X).
"""

from __future__ import annotations

import cmath
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
from .mobius import IDENTITY_MAP, LinearFractionalMap, classify

SELF_ADJOINT = "self-adjoint"
DISSIPATIVE = "dissipative-nonselfadjoint"

# One tolerance set for every (1, 1) model: the overlap blocks are closed
# forms, and fixed points come out within about 1e-14 of their own element.
SA_TOL = 1e-9       # | |v| - 1 | of a self-adjoint parameter; relative
                    # discriminant of a double fixed point
FP_TOL = 1e-7       # how far the generator's element may move an invariant point
EPS_CLASS = 1e-9    # mobius.classify threshold for the classes of exp(tX)
ID_TOL = 1e-8       # an element this close to the identity moves nothing
T_SAMPLES = (0.3, 0.7, 1.3, 2.9)


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


def fixed_points_flow(fm: FlowMap):
    """In-ball fixed points of the flow element fm, each tagged
    self-adjoint (unit modulus within SA_TOL) or dissipative; ALL_POINTS
    when the element acts as the identity. SA_TOL doubles as the relative
    discriminant threshold for reporting a double fixed point."""
    if fm.trivial:
        return [(None, DISSIPATIVE)]
    fps = mobius.fixed_points(fm.mobius, parabolic_tol=SA_TOL)
    if fps is ALL_POINTS:
        return ALL_POINTS
    out = []
    for z in fps:
        if mobius.is_infinite(z) or abs(z) > 1.0 + SA_TOL:
            continue
        kind = SELF_ADJOINT if abs(abs(z) - 1.0) <= SA_TOL else DISSIPATIVE
        out.append((z, kind))
    return out


@dataclass(frozen=True)
class FlowGenerator:
    """X = log(flow element at t)/t = [[a, b], [c, -a]], its det X from the
    logarithm's angle (better conditioned than -(a^2 + bc)), and the element."""

    a: complex
    b: complex
    c: complex
    det: float
    element: FlowMap

    def exp(self, t: float) -> LinearFractionalMap:
        """exp(tX) = cos(tw) + sin(tw)/w X with w^2 = det X."""
        w = cmath.sqrt(self.det)
        s = cmath.sin(t * w) / w if w else t
        cos = cmath.cos(t * w)
        return mobius.from_coefficients(cos + s * self.a, s * self.b,
                                        s * self.c, cos - s * self.a)


def _logarithm(model, group: Subgroup, t: float, angle: float) -> FlowGenerator:
    """X from the element M at t: +-M = cos(w) + sin(w)/w tX, where of the
    angles w = +-acos(tr(M)/2) mod pi the one nearest ``angle`` is taken."""
    fm = gamma_map(model, subgroup_eval(group, t))
    m = fm.mobius
    w0 = cmath.acos((m.a + m.d) / 2)
    k, w = min(((k, sign * w0 + k * math.pi) for sign in (1, -1)
                for k in [round((angle - sign * w0.real) / math.pi)]),
               key=lambda kw: abs(kw[1] - angle))
    f = (-1) ** k * (w / cmath.sin(w) if w else 1.0) / t
    return FlowGenerator(f * (m.a - m.d) / 2, f * m.b, f * m.c,
                         ((w / t) ** 2).real, fm)


def generator(model, group: Subgroup) -> FlowGenerator:
    """The generator X of the flow t -> exp(tX) along the subgroup; X = 0
    for the trivial flow of indices (0, 1). A coarse X from t = 1e-3 fixes
    the logarithm's branch at the angle 0.45 pi, away from trace +-2. Up to
    32 more periods, within the model's T_RANGE, divide the angle error that
    remains: 1e-11 rad at any t for the interval model at l = 1e-3, whose
    fixed point lies 1e-3 from the circle."""
    gen = _logarithm(model, group, 1e-3, 0.0)
    rate = abs(cmath.sqrt(gen.det))
    if rate == 0.0:
        return gen
    t = min(model.T_RANGE, 0.45 * math.pi / rate)
    gen = _logarithm(model, group, t, rate * t)
    periods = min(32.45, model.T_RANGE * math.sqrt(max(gen.det, 0.0)) / math.pi)
    if periods < 1.45:
        return gen
    w = (math.floor(periods - 0.45) + 0.45) * math.pi
    return _logarithm(model, group, w / math.sqrt(gen.det), w)


class Verdict(Enum):
    ALL_EXTENSIONS_INVARIANT = "AllExtensionsInvariant"
    TWO_SELF_ADJOINT = "TwoSelfAdjoint"
    UNIQUE_DISSIPATIVE = "UniqueDissipative"


@dataclass
class InvarianceReport:
    fixed_points: list          # (parameter | None, kind) fixed by the subgroup
    flow_class: dict            # t -> MapClass
    group_verdict: Verdict
    notes: list = field(default_factory=list)


def invariant_extensions(model, group: Subgroup) -> InvarianceReport:
    """The invariant extensions of a one-parameter subgroup: the fixed points
    of its first sampled element that is not the identity (else of the
    generator's element), which the generator's element must fix within
    FP_TOL, and the class of exp(tX) at each of T_SAMPLES."""
    if model.deficiency_dims == (0, 1):
        return InvarianceReport(
            fixed_points=[(None, DISSIPATIVE)],
            flow_class={},
            group_verdict=Verdict.UNIQUE_DISSIPATIVE,
            notes=["indices (0, 1): the operator itself is the unique "
                   "invariant maximal dissipative extension"],
        )
    gen = generator(model, group)
    classes = {t: classify(gen.exp(t), EPS_CLASS) for t in T_SAMPLES}
    elements = (gamma_map(model, subgroup_eval(group, t)) for t in T_SAMPLES)
    fm = next((fm for fm in elements if fm.distance_to_identity() > ID_TOL),
              gen.element)
    if fm.distance_to_identity() <= ID_TOL:
        return InvarianceReport(
            fixed_points=[],
            flow_class=classes,
            group_verdict=Verdict.ALL_EXTENSIONS_INVARIANT,
            notes=["the flow acts as the identity"],
        )
    tagged = fixed_points_flow(fm)
    moved = max((abs(mobius.apply(gen.element.mobius, z) - z) for z, _ in tagged),
                default=math.inf)
    interior = [z for z, kind in tagged if kind == DISSIPATIVE]
    if moved > FP_TOL or (interior and len(tagged) > 1):
        raise NumericalInconsistency(
            f"fixed points {tagged} at {fm.g}, moved by {moved:.3e} at "
            f"{gen.element.g} (FP_TOL {FP_TOL}), or an interior point with others")
    notes = []
    if len(tagged) == 1 and not interior:
        notes.append("single boundary fixed point: the two extremal "
                     "self-adjoint invariant extensions coincide")
    return InvarianceReport(
        fixed_points=tagged,
        flow_class=classes,
        group_verdict=(Verdict.UNIQUE_DISSIPATIVE if interior
                       else Verdict.TWO_SELF_ADJOINT),
        notes=notes,
    )


def period_detect(model, group: Subgroup, t_max: float,
                  tol: float = 1e-8) -> float | None:
    """Smallest T in (0, t_max] whose flow element is the identity: pi/sqrt(det X)
    for an elliptic generator X, None for any other class or a longer period.
    Raises NumericalInconsistency when the element at T is farther than tol
    from the identity (projective coefficient distance)."""
    det = generator(model, group).det
    period = math.pi / math.sqrt(det) if det > 0 else math.inf
    if period > t_max:
        return None
    dist = gamma_map(model, subgroup_eval(group, period)).distance_to_identity()
    if dist > tol:
        raise NumericalInconsistency(
            f"the flow element at the predicted period {period} is {dist:.3e} "
            f"from the identity, beyond {tol}")
    return period


@dataclass
class SemiboundedFixedReport:
    v_friedrichs: complex
    v_krein: complex
    residual_friedrichs: float
    residual_krein: float


def verify_semibounded_fixed(model) -> SemiboundedFixedReport:
    """For a semibounded inverse-square model: the generator's field
    |X(v)| = |b + 2av - cv^2|, which vanishes where the whole flow fixes v,
    at the extremal nonnegative extensions' parameters."""
    gen = generator(model, model.group)
    v_f = model.vn_from_boundary("friedrichs")
    v_k = model.vn_from_boundary("krein")
    res_f, res_k = (abs(gen.b + 2 * gen.a * v - gen.c * v * v) for v in (v_f, v_k))
    return SemiboundedFixedReport(v_f, v_k, res_f, res_k)


def orbit(model, group: Subgroup, v0: complex, t_list) -> list[complex]:
    """Trajectory of the parameter v0 under sampled flow elements."""
    return [gamma_apply(model, subgroup_eval(group, t), v0) for t in t_list]
