import cmath
import math

import numpy as np
import pytest

from extflow import mobius
from extflow.affine import ALL_POINTS
from extflow.errors import DegenerateMap, InvalidArgument, NotDiskMap
from extflow.mobius import (
    IDENTITY_MAP,
    LinearFractionalMap,
    MapTag,
    apply,
    classify,
    fixed_points,
    from_coefficients,
    inverse,
    is_disk_self_map,
    is_infinite,
    projective_distance,
)

# Disk maps that no program path builds: the tests here and in test_flow
# construct, compose and iterate with them.


def rotation(theta: float) -> LinearFractionalMap:
    """z -> e^{i theta} z."""
    return from_coefficients(cmath.exp(1j * theta), 0, 0, 1)


def disk_automorphism(w: complex, theta: float = 0.0) -> LinearFractionalMap:
    """z -> e^{i theta} (z - w)/(1 - conj(w) z), |w| < 1."""
    if abs(w) >= 1:
        raise InvalidArgument("automorphism parameter must lie inside the disk")
    phase = cmath.exp(1j * theta)
    return from_coefficients(phase, -phase * w, -w.conjugate(), 1)


def compose(m: LinearFractionalMap, n: LinearFractionalMap) -> LinearFractionalMap:
    """apply(compose(m, n), z) = apply(m, apply(n, z))."""
    return from_coefficients(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def trace_squared(m: LinearFractionalMap) -> complex:
    """(a + d)^2 for the determinant-one representative (sign-independent)."""
    return (m.a + m.d) ** 2


def iterate(m: LinearFractionalMap, z0: complex, n: int) -> list[complex]:
    """[z0, m(z0), ..., m^n(z0)]."""
    if n < 1:
        raise InvalidArgument("need n >= 1")
    orbit = [complex(z0)]
    for _ in range(n):
        orbit.append(apply(m, orbit[-1]))
    return orbit


# constructed so the fixed-point quadratic is i (z - 1)^2
PARABOLIC = from_coefficients(1 + 1j, -1j, 1j, 1 - 1j)
# normalized (1, 0.5, 0.5, 1): fixed points are the roots of z^2 = 1
HYPERBOLIC = from_coefficients(1, 0.5, 0.5, 1)


def dense_boundary_max(m, n=4096, rounds=3):
    """max |m(z)| on the unit circle by dense sampling, each round refined to
    one sample step on either side of the best sample."""
    lo, hi, best = 0.0, 2 * math.pi, 0.0
    for _ in range(rounds):
        theta = np.linspace(lo, hi, n)
        z = np.exp(1j * theta)
        values = np.abs((m.a * z + m.b) / (m.c * z + m.d))
        k = int(np.argmax(values))
        best = max(best, float(values[k]))
        lo, hi = theta[k] - (theta[1] - theta[0]), theta[k] + (theta[1] - theta[0])
    return best


def random_automorphism(rng):
    w = 0.0
    while True:
        w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.95
        if abs(w) < 0.95:
            break
    return disk_automorphism(w, rng.uniform(0, 2 * math.pi))


class TestConstruction:
    def test_identity(self):
        m = from_coefficients(1, 0, 0, 1)
        assert projective_distance(m, IDENTITY_MAP) == 0.0

    def test_rotation_normalization(self):
        theta = 0.9
        m = rotation(theta)
        assert abs(m.a * m.d - m.b * m.c - 1) < 1e-12
        assert apply(m, 0.5) == pytest.approx(0.5 * cmath.exp(1j * theta))

    def test_degenerate(self):
        with pytest.raises(DegenerateMap):
            from_coefficients(1, 1, 1, 1)

    def test_determinant_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            try:
                m = from_coefficients(*coeffs)
            except DegenerateMap:
                continue
            assert abs(m.a * m.d - m.b * m.c - 1) < 1e-12


class TestApply:
    def test_half_rotation(self):
        assert apply(rotation(math.pi), 0.5 + 0j) == pytest.approx(-0.5)

    def test_hyperbolic_fixes_one(self):
        assert apply(HYPERBOLIC, 1.0 + 0j) == pytest.approx(1.0)

    def test_pole_raises_degenerate_map(self):
        # no caller passes the pole, which a disk automorphism keeps outside
        # the closed disk; apply stays total with a typed error there
        m = from_coefficients(2, 1, 1, 3)
        with pytest.raises(DegenerateMap, match="pole"):
            apply(m, -3.0 + 0j)
        assert apply(m, -3.0 + 1e-9j) == pytest.approx((-5.0 + 2e-9j) / 1e-9j)


class TestCompose:
    def test_rotations_add(self):
        lhs = compose(rotation(0.4), rotation(1.1))
        assert projective_distance(lhs, rotation(1.5)) < 1e-12

    def test_identity_neutral(self):
        m = disk_automorphism(0.3 - 0.2j, 0.7)
        assert projective_distance(compose(m, IDENTITY_MAP), m) < 1e-15

    def test_inverse_pair(self):
        m = disk_automorphism(0.4j, 1.9)
        assert projective_distance(compose(m, inverse(m)), IDENTITY_MAP) < 1e-12

    def test_associativity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m1, m2, m3 = (random_automorphism(rng) for _ in range(3))
            lhs = compose(compose(m1, m2), m3)
            rhs = compose(m1, compose(m2, m3))
            scale = max(abs(lhs.a), abs(lhs.b), abs(lhs.c), abs(lhs.d), 1.0)
            assert projective_distance(lhs, rhs) < 1e-12 * scale


class TestFixedPoints:
    def test_rotation(self):
        fps = fixed_points(rotation(1.0))
        finite = [z for z in fps if not is_infinite(z)]
        assert len(fps) == 2 and len(finite) == 1
        assert finite[0] == pytest.approx(0.0)

    def test_hyperbolic_pair(self):
        fps = sorted(fixed_points(HYPERBOLIC), key=lambda z: z.real)
        assert fps[0] == pytest.approx(-1.0)
        assert fps[1] == pytest.approx(1.0)

    def test_parabolic_double_root(self):
        fps = fixed_points(PARABOLIC)
        assert len(fps) == 1
        assert fps[0] == pytest.approx(1.0)

    def test_identity_all_points(self):
        assert fixed_points(IDENTITY_MAP) is ALL_POINTS

    def test_residuals_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = random_automorphism(rng)
            fps = fixed_points(m)
            for z in fps:
                if is_infinite(z):
                    continue
                assert abs(apply(m, z) - z) <= 1e-10 * (1 + abs(z) ** 2)


class TestDiskSelfMap:
    def test_rotation_true(self):
        assert is_disk_self_map(rotation(0.3), 1e-12)

    def test_dilation_false(self):
        assert not is_disk_self_map(from_coefficients(2, 0, 0, 1), 1e-12)

    def test_standard_automorphism(self):
        assert is_disk_self_map(disk_automorphism(0.3 + 0j), 1e-12)

    def test_default_bound_is_its_measured_budget(self):
        # the dilation by 1 + 1e-12 passed the former default 1e-9 and fails
        # 1e-13; automorphisms drawn as criterion 9 draws them exceed 1 by
        # 5.6e-15 at worst and all pass
        m = from_coefficients(1 + 1e-12, 0, 0, 1)
        assert 1e-13 < mobius.boundary_max(m) - 1 <= 1e-9
        assert is_disk_self_map(m, 1e-9) and not is_disk_self_map(m)
        rng = np.random.default_rng(9)
        drawn = 0
        while drawn < 2000:
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
            if abs(b) >= abs(a) - 0.1:
                continue
            s = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert is_disk_self_map(from_coefficients(a, b, s * b.conjugate(),
                                                      s * a.conjugate()))
            drawn += 1

    def test_image_between_the_old_samples(self):
        # z/2 + (0.5 + 1e-4) e^{i pi/64} sends e^{i pi/64}, halfway between two
        # of 64 equally spaced samples, to modulus 1.0001; the samples all
        # stay inside, so a 64-point test took it for a self-map
        w = (0.5 + 1e-4) * cmath.exp(1j * math.pi / 64)
        m = from_coefficients(0.5, w, 0, 1)
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.abs(0.5 * circle + w).max() < 1.0
        assert mobius.boundary_max(m) == pytest.approx(1.0001, rel=1e-15)
        assert not is_disk_self_map(m, 1e-9)
        with pytest.raises(NotDiskMap):
            classify(m)

    def test_pole_in_the_closed_disk(self):
        # |d| <= |c|: the pole -d/c lies in the closed disk, on the circle too
        for m in (from_coefficients(1, 0, 1, 1), from_coefficients(0.3, 1, 2, 1j),
                  from_coefficients(0, 1, 1, 0)):
            assert mobius.boundary_max(m) == math.inf and not is_disk_self_map(m, 1.0)

    def test_closed_form_matches_dense_sampling(self):
        # the oracle samples the circle, where |m| has its one maximum, on
        # 4096 points and twice more around the best one; measured agreement
        # within 1.7e-15 relative over 400 maps with |c| <= 0.9 |d|
        rng = np.random.default_rng(11)
        for _ in range(400):
            a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            if abs(c) > 0.9 * abs(d):
                c *= 0.9 * abs(d) / abs(c) * rng.uniform(0, 1)
            m = from_coefficients(a, b, c, d)
            assert mobius.boundary_max(m) == pytest.approx(dense_boundary_max(m), rel=1e-14)


class TestClassify:
    def test_rotation_elliptic(self):
        cls = classify(rotation(math.pi / 3))
        assert cls.tag is MapTag.ELLIPTIC
        assert cls.fixed_points[0] == pytest.approx(0.0)

    def test_hyperbolic(self):
        cls = classify(HYPERBOLIC)
        assert cls.tag is MapTag.HYPERBOLIC
        assert sorted(z.real for z in cls.fixed_points) == pytest.approx([-1.0, 1.0])
        for z in cls.fixed_points:
            assert abs(abs(z) - 1) < 1e-9

    def test_parabolic(self):
        cls = classify(PARABOLIC)
        assert cls.tag is MapTag.PARABOLIC
        assert cls.fixed_points[0] == pytest.approx(1.0)

    def test_identity(self):
        assert classify(IDENTITY_MAP).tag is MapTag.IDENTITY

    def test_strict_contraction(self):
        m = from_coefficients(0.4, 0.1, 0, 1)
        cls = classify(m)
        assert cls.tag is MapTag.STRICT_CONTRACTION
        z = cls.fixed_points[0]
        assert abs(apply(m, z) - z) < 1e-12 and abs(z) < 1

    def test_not_disk_map(self):
        with pytest.raises(NotDiskMap):
            classify(from_coefficients(3, 0, 0, 1))

    def test_elliptic_companion_is_reflection(self):
        m = disk_automorphism(0.4 + 0.1j, 2.1)
        cls = classify(m)
        assert cls.tag is MapTag.ELLIPTIC
        z = cls.fixed_points[0]
        assert cls.companion == pytest.approx(1 / z.conjugate())

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            kind = rng.integers(0, 3)
            if kind == 0:
                m = random_automorphism(rng)
            elif kind == 1:
                m = compose(random_automorphism(rng),
                            compose(from_coefficients(rng.uniform(0.2, 0.9), 0, 0, 1),
                                    random_automorphism(rng)))
            else:
                m = rotation(rng.uniform(0.1, 6.0))
            c = random_automorphism(rng)
            conj = compose(c, compose(m, inverse(c)))
            assert classify(conj, 1e-7).tag is classify(m, 1e-7).tag

    def test_trace_criterion_cross_check(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            m = random_automorphism(rng)
            cls = classify(m, 1e-7)
            t2 = trace_squared(m)
            assert abs(t2.imag) < 1e-8  # automorphism trace^2 is real
            if cls.tag is MapTag.ELLIPTIC:
                assert t2.real < 4
            elif cls.tag is MapTag.HYPERBOLIC:
                assert t2.real > 4
            elif cls.tag in (MapTag.PARABOLIC, MapTag.IDENTITY):
                assert t2.real == pytest.approx(4, abs=1e-6)


class TestIterate:
    def test_period_five_rotation(self):
        orbit = iterate(rotation(2 * math.pi / 5), 0.5 + 0j, 5)
        assert abs(orbit[-1] - 0.5) < 1e-12

    def test_hyperbolic_attracts_to_plus_one(self):
        orbit = iterate(HYPERBOLIC, 0j, 200)
        assert abs(orbit[-1] - 1.0) < 1e-10

    def test_identity_constant(self):
        orbit = iterate(IDENTITY_MAP, 0.3 + 0.1j, 7)
        assert all(z == 0.3 + 0.1j for z in orbit)
