import math
from dataclasses import dataclass

import numpy as np
import pytest

from extflow.affine import GROUPS, IDENTITY, AffineMap, compose, subgroup_eval
from extflow.errors import DynamicRangeExceeded, InvalidArgument


def inverse(g: AffineMap) -> AffineMap:
    """g^{-1}: x -> x/a - b/a, the route of flow_coefficients below to
    g^{-1}(+-i)."""
    return AffineMap(1.0 / g.a, -g.b / g.a)


def random_maps(n, seed=0):
    rng = np.random.default_rng(seed)
    return [AffineMap(a, b) for a, b in zip(rng.uniform(0.1, 10.0, n),
                                            rng.uniform(-10.0, 10.0, n))]


def close(f, g, tol=1e-13):
    return abs(f.a - g.a) <= tol * max(1.0, abs(g.a)) and abs(f.b - g.b) <= tol * max(1.0, abs(g.b))


class TestComposeInverse:
    def test_example(self):
        assert compose(AffineMap(2, 1), AffineMap(1, 3)) == AffineMap(2, 7)

    def test_identity_law(self):
        g = AffineMap(3.7, -0.4)
        assert compose(g, IDENTITY) == g
        assert compose(IDENTITY, g) == g

    def test_inverse_pair(self):
        assert close(compose(AffineMap(0.5, 0), AffineMap(2, 0)), IDENTITY)

    def test_inverse_examples(self):
        assert inverse(AffineMap(2, 1)) == AffineMap(0.5, -0.5)
        assert inverse(IDENTITY) == IDENTITY
        assert inverse(AffineMap(1, 5)) == AffineMap(1, -5)

    def test_group_laws_random(self):
        maps = random_maps(1000, seed=42)
        for i in range(0, 999, 3):
            f, g, h = maps[i], maps[i + 1], maps[i + 2]
            assert close(compose(compose(f, g), h), compose(f, compose(g, h)))
            assert close(compose(f, inverse(f)), IDENTITY, tol=1e-13)
            assert close(compose(inverse(f), f), IDENTITY, tol=1e-13)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            AffineMap(-1.0, 0.0)
        with pytest.raises(ValueError):
            AffineMap(0.0, 1.0)


class TestApply:
    def test_complex_argument(self):
        assert apply(AffineMap(2, 1), 1j) == 1 + 2j

    def test_real_argument(self):
        assert apply(AffineMap(1, -3), 0.0) == -3

    def test_inverse_scaling_at_i(self):
        assert apply(inverse(AffineMap(2, 0)), 1j) == 0.5j


class TestSubgroups:
    def test_translation(self):
        assert subgroup_eval("translation", 2.0) == AffineMap(1.0, 2.0)

    def test_scaling_natural_base(self):
        g = subgroup_eval("scaling", 1.0)
        assert g.a == pytest.approx(math.e, rel=1e-15)
        assert g.b == 0.0

    @pytest.mark.parametrize("t", [-709.7, -3.0, -1e-9, 0.0, 1e-9, 2.5, 709.7])
    def test_scaling_offset_is_exactly_zero(self, t):
        g = subgroup_eval("scaling", t)
        assert g.b == 0.0 and math.copysign(1.0, g.b) == 1.0
        assert g.a == math.exp(t)

    def test_zero_parameter_is_identity(self):
        for group in GROUPS:
            assert subgroup_eval(group, 0.0) == IDENTITY

    def test_homomorphism(self):
        rng = np.random.default_rng(1)
        for group in GROUPS:
            for _ in range(50):
                s, t = rng.uniform(-3, 3, 2)
                lhs = compose(subgroup_eval(group, s), subgroup_eval(group, t))
                rhs = subgroup_eval(group, s + t)
                assert close(lhs, rhs, tol=1e-13)

    @pytest.mark.parametrize("name", ["rotation", "Scaling", "", "translation "])
    def test_unknown_name_is_rejected(self, name):
        with pytest.raises(InvalidArgument, match="unknown subgroup"):
            subgroup_eval(name, 1.0)

    @pytest.mark.parametrize("t", [709.79, -709.79, math.inf, math.nan])
    def test_scaling_beyond_the_floats(self, t):
        with pytest.raises(DynamicRangeExceeded):
            subgroup_eval("scaling", t)
        # the translation by t exists wherever t is finite
        if math.isfinite(t):
            assert subgroup_eval("translation", t) == AffineMap(1.0, t)


def apply(g: AffineMap, z):
    """g(z) = a z + b, for real or complex z."""
    return g.a * z + g.b


@dataclass(frozen=True)
class FlowCoefficients:
    """alpha = g^{-1}(i)+i, beta = g^{-1}(-i)+i, gamma_c = g^{-1}(i)-i,
    delta = g^{-1}(-i)-i; alpha - gamma_c = 2i and delta - beta = -2i exactly."""

    alpha: complex
    beta: complex
    gamma_c: complex
    delta: complex


def flow_coefficients(g: AffineMap) -> FlowCoefficients:
    """The Cayley coefficients of g through inverse and apply above:
    the oracle of the one-pass arithmetic in flow.gamma_map."""
    ginv = inverse(g)
    at_i = apply(ginv, 1j)
    at_minus_i = apply(ginv, -1j)
    return FlowCoefficients(
        alpha=at_i + 1j,
        beta=at_minus_i + 1j,
        gamma_c=at_i - 1j,
        delta=at_minus_i - 1j,
    )


class TestFlowCoefficients:
    def test_identity(self):
        co = flow_coefficients(IDENTITY)
        assert (co.alpha, co.beta, co.gamma_c, co.delta) == (2j, 0j, 0j, -2j)

    def test_pure_translation(self):
        b = 1.7
        co = flow_coefficients(AffineMap(1.0, b))
        assert co.alpha == pytest.approx(2j - b)
        assert co.beta == pytest.approx(-b)
        assert co.gamma_c == pytest.approx(-b)
        assert co.delta == pytest.approx(-2j - b)

    def test_pure_scaling(self):
        co = flow_coefficients(AffineMap(2.0, 0.0))
        assert co.alpha == pytest.approx(1.5j)
        assert co.beta == pytest.approx(0.5j)
        assert co.gamma_c == pytest.approx(-0.5j)
        assert co.delta == pytest.approx(-1.5j)

    def test_exact_identities_and_nonvanishing_alpha(self):
        # the +-i shifts are exact apart from one rounding of each part
        for g in random_maps(1000, seed=3):
            co = flow_coefficients(g)
            ulps = 2 * 2.3e-16 * max(1.0, abs(co.alpha))
            assert abs((co.alpha - co.gamma_c) - 2j) <= ulps
            assert abs((co.delta - co.beta) + 2j) <= ulps
            assert co.alpha != 0

    def test_consistency_with_apply(self):
        for g in random_maps(200, seed=4):
            co = flow_coefficients(g)
            assert co.alpha == apply(inverse(g), 1j) + 1j
