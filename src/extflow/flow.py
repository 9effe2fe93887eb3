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

An element is its ``mobius.LinearFractionalMap``: ``gamma_map`` unpacks the
model's four blocks, forms the four coefficients, scales them by one power
of two, checks the condition and divides by the root of the determinant;
the trivial flow's element is ``IDENTITY_MAP``. ``generator`` gives the
model's tuple (a, b, c, det X), and ``zeros`` the points it fixes.
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
from .mobius import IDENTITY_MAP, LinearFractionalMap, MapTag, distance_to_identity
# no program path calls it now; extbench/tracing.py wraps flow.classify by name
from .mobius import classify  # noqa: F401

SELF_ADJOINT = "self-adjoint"
DISSIPATIVE = "dissipative-nonselfadjoint"

# One tolerance set for every (1, 1) model: X and the overlap blocks are
# closed forms, and the elements at T_SAMPLES move X's zeros by at most 6.3e-15
# (couplings in [-5e4, 0.7499], lengths in [1e-3, 300]): FP_TOL is 16 times that.
SA_TOL = 1e-9       # | |v| - 1 | of a self-adjoint parameter
BALL_TOL = 1e-10    # |v| - 1 of a parameter or its image (measured 3.7e-14; README)
FP_TOL = 1e-13      # how far a sampled element may move an invariant point
RESIDUAL_TOL = 1e-11    # the same at any t (measured 9.1e-13; README, "Tolerances")
TRACE_TOL = 1e-12   # | tr - (+-2 cos(t sqrt(det X))) | of a sampled element
ID_TOL = 1e-11      # an element this close to the identity moves nothing (3.9e-13 at periods)
T_SAMPLES = (0.3, 0.7, 1.3, 2.9)


def gamma_map(model, g: AffineMap) -> LinearFractionalMap:
    """The flow element for g, a disk self-map of the parameter ball
    normalized to determinant one; every model has indices (1, 1), or (0, 1)
    and the trivial flow on {0}, whose element is IDENTITY_MAP."""
    if model.deficiency_dims == (0, 1):
        return IDENTITY_MAP
    # g^{-1}(+-i) = slope*(+-i) + shift, where g^{-1} is x -> x/a - b/a
    slope, shift = 1.0 / g.a, -g.b / g.a
    if not (math.isfinite(slope) and math.isfinite(shift)):
        raise InvalidArgument(f"affine map needs finite a > 0, b; got a={slope}, b={shift}")
    at_i, at_minus_i = slope * 1j + shift, slope * -1j + shift
    cpp, cpm, cmp, cmm = model.overlap_matrix(g)
    a = -(at_minus_i - 1j) * cmm
    b = (at_i - 1j) * cmp
    c = -(at_minus_i + 1j) * cpm
    d = (at_i + 1j) * cpp
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
    return LinearFractionalMap(a / root, b / root, c / root, d / root)


def _parameter(model, v) -> complex:
    """v as a parameter: in the closed ball, and 0 at indices (0, 1)."""
    v = complex(v)
    if abs(v) > 1.0 + BALL_TOL:
        raise InvalidArgument(f"parameter modulus {abs(v)} exceeds the closed ball")
    if model.deficiency_dims == (0, 1) and v != 0:
        raise UnsupportedIndices(f"indices (0, 1): the parameter set is {{0}}, got v = {v}")
    return v


def _transport(model, g: AffineMap, v: complex) -> complex:
    """The checked parameter v under the flow element for g."""
    m = gamma_map(model, g)
    return v if model.deficiency_dims == (0, 1) else mobius.apply(m, v)


def gamma_apply(model, g: AffineMap, v: complex) -> complex:
    """Transport the parameter v by the flow element for g."""
    return _transport(model, g, _parameter(model, v))


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
        via_product = mobius.apply(left, v)
        via_steps = mobius.apply(right_f, mobius.apply(right_g, v))
        worst = max(worst, abs(via_product - via_steps))
    return worst


def zeros(a: complex, b: complex, c: complex, det: float) -> list[complex]:
    """Zeros of the field b + 2av - cv^2 of X = [[a, b], [c, -a]], which the
    whole flow fixes: (a +- sqrt(-det X))/c, one from the sign that avoids
    cancellation and its mate from the product -b/c; one double zero at
    det X = 0."""
    root = cmath.sqrt(-det)
    q = a + root if (a.conjugate() * root).real >= 0 else a - root
    return [q / c] if det == 0 else [q / c, -b / q]


def generator(model, group: str) -> tuple:
    """(a, b, c, det X) of the generator X = [[a, b], [c, -a]] of the flow
    t -> exp(tX) along the subgroup, in closed form as the model states it;
    X = 0 for the trivial flow of indices (0, 1)."""
    if model.deficiency_dims == (0, 1):
        return 0j, 0j, 0j, 0.0
    return model.generator(group)


def in_ball(points) -> list:
    """The points in the closed ball, each tagged self-adjoint (unit modulus
    within SA_TOL) or dissipative."""
    return [(z, SELF_ADJOINT if abs(abs(z) - 1.0) <= SA_TOL else DISSIPATIVE)
            for z in points if abs(z) <= 1.0 + SA_TOL]


def fixed_points_flow(m: LinearFractionalMap, points):
    """In-ball fixed points of the flow element m: the flow's invariant
    points, X's zeros as in_ball tags them, or ALL_POINTS when m is within
    ID_TOL of the identity."""
    return ALL_POINTS if distance_to_identity(m) <= ID_TOL else points


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
    det = gen[3]
    tagged = in_ball(zeros(*gen))
    # cos(t w) for w = sqrt(det X): cos(t |w|) when w is real, cosh(t |w|) when
    # it is imaginary
    rate, wave = math.sqrt(abs(det)), math.cos if det > 0 else math.cosh
    flow_class = {}
    for t in T_SAMPLES:
        m = gamma_map(model, subgroup_eval(group, t))
        moved = max((abs(mobius.apply(m, z) - z) for z, _ in tagged), default=math.inf)
        trace, expected = m.a + m.d, 2 * wave(t * rate)
        trace_error = min(abs(trace + expected), abs(trace - expected))
        if moved > FP_TOL or trace_error > TRACE_TOL:
            raise NumericalInconsistency(
                f"the element at t = {t} moves X's zeros {tagged} by {moved:.3e} "
                f"(FP_TOL {FP_TOL}), and its trace is {trace_error:.3e} from "
                f"+-2cos(t sqrt(det X)) (TRACE_TOL {TRACE_TOL})")
        flow_class[t] = (MapTag.HYPERBOLIC if det < 0 else MapTag.PARABOLIC if det == 0
                         else MapTag.IDENTITY if distance_to_identity(m) <= ID_TOL
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
    det = generator(model, group)[3]
    period = math.pi / math.sqrt(det) if det > 0 else None
    if period is None or period > t_max:
        return None
    dist = distance_to_identity(gamma_map(model, subgroup_eval(group, period)))
    if dist > ID_TOL:
        raise NumericalInconsistency(
            f"the flow element at the predicted period {period} is {dist:.3e} "
            f"from the identity, beyond ID_TOL {ID_TOL}")
    return period


def orbit(model, group: str, v0: complex, t_list) -> list[complex]:
    """Trajectory of v0, checked once, under sampled flow elements."""
    v0 = _parameter(model, v0)
    return [_transport(model, subgroup_eval(group, t), v0) for t in t_list]
