"""Exact algebra of the orientation-preserving affine maps of the real line,
x -> a*x + b with a > 0, and the two one-parameter subgroups the models are
invariant under, named "translation" (x -> x + t) and "scaling" (x -> e^t x).
``flow.gamma_map`` evaluates g^{-1}(+-i) from a and b itself.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DynamicRangeExceeded, InvalidArgument


class _AllPoints:
    """Singleton tag: every point is fixed (the identity map)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ALL_POINTS"


ALL_POINTS = _AllPoints()


@dataclass(frozen=True, slots=True)
class AffineMap:
    """x -> a*x + b, slope a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidArgument(f"affine map needs finite a > 0, b; got a={self.a}, b={self.b}")


IDENTITY = AffineMap(1.0, 0.0)


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """(f o g)(x) = f(g(x))."""
    return AffineMap(f.a * g.a, f.a * g.b + f.b)


# the one-parameter subgroups, by name: x -> x + t and x -> e^t x
GROUPS = ("translation", "scaling")


def subgroup_eval(group: str, t: float) -> AffineMap:
    """The element at parameter t of the subgroup named group, x -> x + t or
    x -> e^t x; DynamicRangeExceeded where the scaling's slope e^t or its
    inverse's e^-t overflows a float."""
    if group == "translation":
        return AffineMap(1.0, t)
    if group != "scaling":
        raise InvalidArgument(f"unknown subgroup {group!r}; the subgroups are {GROUPS}")
    if not abs(t) <= math.log(sys.float_info.max):
        raise DynamicRangeExceeded(
            f"the scaling x -> e^{t:.6g} x or its inverse overflows a float")
    return AffineMap(math.exp(t), 0.0)
