"""The extension flow on the parameter ball of a model: flow elements from
overlap blocks, group-law validation, and the flow's generator, which each
model states in closed form and from which the fixed points, their
extension kind, the class and the cyclic period are read.

In the scalar gauge the flow element for an affine g acts on the parameter
v as the linear-fractional map

    v -> (gamma_c*cmp - delta*cmm*v) / (alpha*cpp - beta*cpm*v),

with the Cayley coefficients alpha = g^{-1}(i) + i, beta = g^{-1}(-i) + i,
gamma_c = g^{-1}(i) - i and delta = g^{-1}(-i) - i, and the overlap blocks
of the model; the identity element acts as v -> v. Along a
one-parameter subgroup, named "translation" (x -> x + t) or "scaling"
(x -> e^t x) as in ``affine.GROUPS``, the elements form a one-parameter
group exp(tX), so the sign of det X gives the class, the zeros of X's field
are the invariant extensions for every t at once, and an elliptic X has the
period pi/sqrt(det X).
No model bounds t: an element exists wherever ``affine.subgroup_eval``
gives one, unless ``gamma_map`` finds its denominator condition above 1e12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from . import mobius
from .affine import ALL_POINTS, AffineMap, subgroup_eval
from .errors import (
    InvalidArgument,
    NearSingularDenominator,
    NumericalInconsistency,
    UnsupportedIndices,
)
from .mobius import IDENTITY_MAP, LinearFractionalMap, MapTag
# no program path calls it now; extbench/tracing.py wraps flow.classify by name
from .mobius import classify  # noqa: F401

SELF_ADJOINT = "self-adjoint"
DISSIPATIVE = "dissipative-nonselfadjoint"

# One tolerance set for every (1, 1) model: X and the overlap blocks are
# closed forms, and the elements at T_SAMPLES move X's zeros by at most 6.3e-15
# (couplings in [-5e4, 0.7499], lengths in [1e-3, 300]): FP_TOL is 16 times that.
SA_TOL = 1e-9       # | |v| - 1 | of a self-adjoint parameter
BALL_TOL = 1e-10    # |v| - 1 of a parameter or its image (measured 9.9e-13; README)
FP_TOL = 1e-13      # how far a sampled element may move an invariant point
RESIDUAL_TOL = 1e-11    # the same at any t (measured 5.8e-13; README, "Tolerances")
TRACE_TOL = 1e-12   # | tr - (+-2 cos(t sqrt(det X))) | of a sampled element
ID_TOL = 1e-11      # an element this close to the identity moves nothing (1.2e-13 at periods)
T_SAMPLES = (0.3, 0.7, 1.3, 2.9)


@dataclass(frozen=True, slots=True)
class FlowMap:
    """Scalar-gauge realization of a flow element and the condition of its
    coefficients."""

    mobius: LinearFractionalMap
    condition: float
    trivial: bool = False    # indices (0, 1): the parameter set is a point

    def distance_to_identity(self) -> float:
        return mobius.projective_distance(self.mobius, IDENTITY_MAP)


def gamma_map(model, g: AffineMap) -> FlowMap:
    """The flow element for g, as a disk self-map of the parameter ball; every
    model has indices (1, 1), or (0, 1) and the trivial flow on {0}."""
    if model.deficiency_dims == (0, 1):
        return FlowMap(IDENTITY_MAP, 1.0, trivial=True)
    # g^{-1}(+-i) = slope*(+-i) + shift, where g^{-1} is x -> x/a - b/a
    slope, shift = 1.0 / g.a, -g.b / g.a
    if not (math.isfinite(slope) and math.isfinite(shift)):
        raise InvalidArgument(f"affine map needs finite a > 0, b; got a={slope}, b={shift}")
    at_i, at_minus_i = slope * 1j + shift, slope * -1j + shift
    ov = model.overlap_matrix(g)
    a = -(at_minus_i - 1j) * ov.cmm
    b = (at_i - 1j) * ov.cmp
    c = -(at_minus_i + 1j) * ov.cpm
    d = (at_i + 1j) * ov.cpp
    scale = max(abs(a), abs(b), abs(c), abs(d))
    # one power of two brings the coefficients, which grow like e^{-t/2},
    # into [1/2, 1) exactly, so their determinant cannot over- or underflow
    unit = math.ldexp(1.0, min(1023, -math.frexp(scale)[1]))
    a, b, c, d, scale = a * unit, b * unit, c * unit, d * unit, scale * unit
    det = a * d - b * c
    # a det that over- or underflows leaves the condition unknown: infinite
    condition = scale * scale / abs(det) if 0 < abs(det) < math.inf else math.inf
    if condition > 1e12:
        raise NearSingularDenominator(
            f"flow denominator condition {condition:.3e} for g={g}")
    # normalised as by mobius.from_coefficients, whose test for condition >= 1e14 is moot
    root = cmath.sqrt(det)
    return FlowMap(LinearFractionalMap(a / root, b / root, c / root, d / root), condition)


def _parameter(model, v) -> complex:
    """v as a parameter: in the closed ball, and 0 at indices (0, 1)."""
    v = complex(v)
    if abs(v) > 1.0 + BALL_TOL:
        raise InvalidArgument(f"parameter modulus {abs(v)} exceeds the closed ball")
    if model.deficiency_dims == (0, 1) and v != 0:
        raise UnsupportedIndices(f"indices (0, 1): the parameter set is {{0}}, got v = {v}")
    return v


def gamma_apply(model, g: AffineMap, v: complex) -> complex:
    """Transport the parameter v by the flow element for g."""
    v = _parameter(model, v)
    fm = gamma_map(model, g)
    return v if fm.trivial else mobius.apply(fm.mobius, v)


def _sample_parameters(count: int) -> list[complex]:
    """Deterministic parameter samples covering the ball and its boundary."""
    out = [0j]
    radii = (0.3, 0.6, 0.9, 1.0)
    per_ring = max(1, (count - 1) // len(radii))
    for r in radii:
        for k in range(per_ring):
            out.append(cmath.rect(r, 2 * math.pi * (k + 0.17) / per_ring))
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


@dataclass(frozen=True, slots=True)
class FlowGenerator:
    """X = [[a, b], [c, -a]] of the flow t -> exp(tX) and its det X, both in
    closed form from the model."""

    a: complex
    b: complex
    c: complex
    det: float

    def zeros(self) -> list[complex]:
        """Zeros of the field b + 2av - cv^2, which the whole flow fixes:
        (a +- sqrt(-det X))/c, one from the sign that avoids cancellation
        and its mate from the product -b/c; one double zero at det X = 0."""
        root = cmath.sqrt(-self.det)
        q = self.a + root if (self.a.conjugate() * root).real >= 0 else self.a - root
        return [q / self.c] if self.det == 0 else [q / self.c, -self.b / q]


def generator(model, group: str) -> FlowGenerator:
    """The generator X of the flow t -> exp(tX) along the subgroup, as the
    model states it; X = 0 for the trivial flow of indices (0, 1)."""
    if model.deficiency_dims == (0, 1):
        return FlowGenerator(0j, 0j, 0j, 0.0)
    return FlowGenerator(*model.generator(group))


def in_ball(points) -> list:
    """The points in the closed ball, each tagged self-adjoint (unit modulus
    within SA_TOL) or dissipative."""
    return [(z, SELF_ADJOINT if abs(abs(z) - 1.0) <= SA_TOL else DISSIPATIVE)
            for z in points if abs(z) <= 1.0 + SA_TOL]


def fixed_points_flow(fm: FlowMap, gen: FlowGenerator):
    """In-ball fixed points of the element fm of the flow of gen: X's zeros,
    tagged by in_ball; ALL_POINTS when fm is within ID_TOL of the identity."""
    if fm.trivial:
        return [(None, DISSIPATIVE)]
    if fm.distance_to_identity() <= ID_TOL:
        return ALL_POINTS
    return in_ball(gen.zeros())


class Verdict(Enum):
    TWO_SELF_ADJOINT = "TwoSelfAdjoint"
    UNIQUE_DISSIPATIVE = "UniqueDissipative"


@dataclass
class InvarianceReport:
    fixed_points: list          # (parameter | None, kind) fixed by the subgroup
    flow_class: dict            # t -> MapTag of exp(tX)
    group_verdict: Verdict
    notes: list = field(default_factory=list)


def invariant_extensions(model, group: str) -> InvarianceReport:
    """The invariant extensions of a one-parameter subgroup: the zeros of its
    generator X in the closed ball, and the class of exp(tX) at each of
    T_SAMPLES from the sign of det X. The flow element at each sample, built
    from the overlaps and not from X, must move each zero by at most FP_TOL
    and have the trace +-2 cos(t sqrt(det X)) within TRACE_TOL; an elliptic
    element within ID_TOL of the identity is the identity."""
    if model.deficiency_dims == (0, 1):
        return InvarianceReport(
            fixed_points=[(None, DISSIPATIVE)],
            flow_class={},
            group_verdict=Verdict.UNIQUE_DISSIPATIVE,
            notes=["indices (0, 1): the operator itself is the unique "
                   "invariant maximal dissipative extension"],
        )
    gen = generator(model, group)
    tagged = in_ball(gen.zeros())
    w = cmath.sqrt(gen.det)
    flow_class = {}
    for t in T_SAMPLES:
        fm = gamma_map(model, subgroup_eval(group, t))
        m = fm.mobius
        moved = max((abs(mobius.apply(m, z) - z) for z, _ in tagged), default=math.inf)
        trace, expected = m.a + m.d, 2 * cmath.cos(t * w)
        trace_error = min(abs(trace + expected), abs(trace - expected))
        if moved > FP_TOL or trace_error > TRACE_TOL:
            raise NumericalInconsistency(
                f"the element at t = {t} moves X's zeros {tagged} by {moved:.3e} "
                f"(FP_TOL {FP_TOL}), and its trace is {trace_error:.3e} from "
                f"+-2cos(t sqrt(det X)) (TRACE_TOL {TRACE_TOL})")
        flow_class[t] = (MapTag.HYPERBOLIC if gen.det < 0 else MapTag.PARABOLIC if gen.det == 0
                         else MapTag.IDENTITY if fm.distance_to_identity() <= ID_TOL
                         else MapTag.ELLIPTIC)
    interior = any(kind == DISSIPATIVE for _, kind in tagged)
    notes = []
    if len(tagged) == 1 and not interior:
        notes.append("single boundary fixed point: the two extremal "
                     "self-adjoint invariant extensions coincide")
    return InvarianceReport(
        fixed_points=tagged,
        flow_class=flow_class,
        group_verdict=(Verdict.UNIQUE_DISSIPATIVE if interior
                       else Verdict.TWO_SELF_ADJOINT),
        notes=notes,
    )


def period_detect(model, group: str, t_max: float = math.inf) -> float | None:
    """Smallest T in (0, t_max] whose flow element is the identity: pi/sqrt(det X)
    for an elliptic generator X, None for any other class or a longer period.
    Raises NumericalInconsistency when the element at T is farther than
    ID_TOL from the identity (projective coefficient distance), and
    DynamicRangeExceeded when that element does not exist in floats."""
    det = generator(model, group).det
    period = math.pi / math.sqrt(det) if det > 0 else None
    if period is None or period > t_max:
        return None
    dist = gamma_map(model, subgroup_eval(group, period)).distance_to_identity()
    if dist > ID_TOL:
        raise NumericalInconsistency(
            f"the flow element at the predicted period {period} is {dist:.3e} "
            f"from the identity, beyond ID_TOL {ID_TOL}")
    return period


def orbit(model, group: str, v0: complex, t_list) -> list[complex]:
    """Trajectory of v0, checked first, under sampled flow elements."""
    v0 = _parameter(model, v0)
    return [gamma_apply(model, subgroup_eval(group, t), v0) for t in t_list]
