import math

import numpy as np
import pytest

from extflow import models, weylcheck
from extflow.errors import DynamicRangeExceeded
from extflow.weylcheck import GridOperator

# Dense oracle: the grid operators as n x n matrices, built here from their
# definitions (U_t = diag(e^{i x_j t}) on x_j = j h, V_s the k-fold
# down-shift, the upwind generator (i/h)(I - S)) and measured with numpy's
# SVD-based 2-norm. Kept to n <= 256.


def dense_unitary(length, n, t):
    x = np.arange(1, n + 1) * (length / n)
    return np.diag(np.exp(1j * x * t))


def dense_shift(n, k):
    return np.eye(n, k=-k, dtype=complex)   # the zero matrix once k >= n


def dense_generator(length, n):
    h = length / n
    return (1j / h) * (np.eye(n) - np.eye(n, k=-1))


def to_dense(op):
    n = op.shape[0]
    return np.diag(op.diag) @ np.eye(n, k=-op.shift)


def dense_residual(length, n, t, s):
    u = dense_unitary(length, n, t)
    v = dense_shift(n, round(s / (length / n)))
    return np.linalg.norm(u @ v - np.exp(1j * s * t) * (v @ u), 2)


def random_operator(rng, n, k):
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d[:k] = 0.0
    return GridOperator(d, k)


@pytest.fixture(scope="module")
def grid256():
    return weylcheck.build_interval_grid(1.0, 256)


class TestGridOperators:
    def test_position_diagonal(self):
        # nodes at j*h; with h = 0.25 the leading entries are 0.25 .. 1.0
        grid = weylcheck.build_interval_grid(2.0, 8)
        assert np.allclose(grid.nodes[:4], [0.25, 0.5, 0.75, 1.0])
        assert grid.shape == (8, 8)

    def test_shift_nilpotency(self, grid256):
        n = grid256.n
        assert np.abs(np.linalg.matrix_power(dense_shift(n, 1), n)).max() == 0.0
        assert weylcheck.nilpotency_index(grid256) == n * grid256.h
        for s in (n * grid256.h, 1.7):
            v = weylcheck.semigroup(grid256, s)
            assert weylcheck.operator_norm(v) == 0.0
            assert np.abs(to_dense(v)).max() == 0.0

    def test_generator_dissipative(self, grid256):
        gen = dense_generator(1.0, grid256.n)
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = rng.standard_normal(grid256.n) + 1j * rng.standard_normal(grid256.n)
            assert np.vdot(f, gen @ f).imag >= -1e-12 * np.vdot(f, f).real
        # one grid step of the semigroup is I + i h A for the upwind A
        step = to_dense(weylcheck.semigroup(grid256, grid256.h))
        assert np.abs(step - (np.eye(grid256.n) + 1j * grid256.h * gen)).max() < 1e-12

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            weylcheck.build_interval_grid(1.0, 4)

    def test_products_match_dense(self):
        rng = np.random.default_rng(4)
        for k1, k2 in ((0, 0), (0, 5), (3, 0), (7, 9), (20, 30), (40, 1)):
            a = random_operator(rng, 48, k1)
            b = random_operator(rng, 48, k2)
            assert np.abs(to_dense(a @ b) - to_dense(a) @ to_dense(b)).max() < 1e-12
            c = random_operator(rng, 48, k1)
            diff = to_dense(a - (0.3 - 0.7j) * c)
            assert np.abs(diff - (to_dense(a) - (0.3 - 0.7j) * to_dense(c))).max() < 1e-12

    def test_different_shifts_do_not_subtract(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            random_operator(rng, 16, 2) - random_operator(rng, 16, 3)

    @pytest.mark.parametrize("n, k", [(16, 0), (16, 5), (64, 63), (64, 64), (200, 17)])
    def test_norm_matches_dense(self, n, k):
        op = random_operator(np.random.default_rng(n + k), n, k)
        expect = np.linalg.norm(to_dense(op), 2)
        assert weylcheck.operator_norm(op) == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestUnitaryGroup:
    def test_t_zero_identity(self, grid256):
        assert np.allclose(to_dense(weylcheck.unitary_group(grid256, 0.0)),
                           np.eye(grid256.n))

    def test_unimodular_entries(self, grid256):
        u = weylcheck.unitary_group(grid256, 2.3)
        assert u.shift == 0
        assert np.allclose(np.abs(u.diag), 1.0, atol=1e-12)

    def test_group_law(self, grid256):
        u1 = weylcheck.unitary_group(grid256, 0.8)
        u2 = weylcheck.unitary_group(grid256, 1.9)
        u12 = weylcheck.unitary_group(grid256, 2.7)
        assert np.abs((u1 @ u2).diag - u12.diag).max() < 1e-12
        assert np.abs(to_dense(u1) @ to_dense(u2) - to_dense(u12)).max() < 1e-12

    def test_preserves_norms(self, grid256):
        u = to_dense(weylcheck.unitary_group(grid256, 1.1))
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid256.n) + 1j * rng.standard_normal(grid256.n)
        assert np.linalg.norm(u @ f) == pytest.approx(np.linalg.norm(f), rel=1e-12)

    def test_matches_dense(self, grid256):
        for t in (-3.1, 0.4, 7.5):
            u = weylcheck.unitary_group(grid256, t)
            assert np.abs(to_dense(u) - dense_unitary(1.0, grid256.n, t)).max() == 0.0


class TestSemigroup:
    def test_s_zero_identity(self, grid256):
        assert np.allclose(to_dense(weylcheck.semigroup(grid256, 0.0)), np.eye(grid256.n))

    def test_zero_at_interval_length(self, grid256):
        assert np.abs(to_dense(weylcheck.semigroup(grid256, 1.0))).max() <= 1e-9

    def test_semigroup_law_on_grid(self, grid256):
        h = grid256.h
        v1 = weylcheck.semigroup(grid256, 17 * h)
        v2 = weylcheck.semigroup(grid256, 40 * h)
        v12 = weylcheck.semigroup(grid256, 57 * h)
        assert np.abs(to_dense(v1 @ v2) - to_dense(v12)).max() < 1e-8
        assert np.abs(to_dense(v1) @ to_dense(v2) - to_dense(v12)).max() < 1e-8

    def test_contraction(self, grid256):
        for s in (0.0, 0.17, 0.5, 0.93, 1.2):
            v = weylcheck.semigroup(grid256, s)
            assert weylcheck.operator_norm(v) <= 1.0 + 1e-9
            assert np.linalg.norm(to_dense(v), 2) <= 1.0 + 1e-9

    def test_norm_nonincreasing(self, grid256):
        norms = [np.linalg.norm(to_dense(weylcheck.semigroup(grid256, s)), 2)
                 for s in np.linspace(0, 1.2, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("s", [0.0, 0.1, 17 / 256, 17.5 / 256, 0.5, 255 / 256, 1.0, 3.0])
    def test_matches_dense_shift(self, grid256, s):
        v = weylcheck.semigroup(grid256, s)
        expect = dense_shift(grid256.n, round(s * grid256.n))
        assert np.abs(to_dense(v) - expect).max() == 0.0

    def test_negative_time(self, grid256):
        with pytest.raises(ValueError):
            weylcheck.semigroup(grid256, -0.1)


class TestWeylResidual:
    def test_on_grid_exact(self, grid256):
        rng = np.random.default_rng(2)
        s = 100 * grid256.h
        v = weylcheck.semigroup(grid256, s)
        for t in rng.uniform(-10, 10, 50):
            u = weylcheck.unitary_group(grid256, t)
            assert weylcheck.weyl_residual(u, v, t, s) <= 1e-12

    def test_degenerate_parameters(self, grid256):
        s = 64 * grid256.h
        v = weylcheck.semigroup(grid256, s)
        u0 = weylcheck.unitary_group(grid256, 0.0)
        assert weylcheck.weyl_residual(u0, v, 0.0, s) <= 1e-12
        u = weylcheck.unitary_group(grid256, 1.7)
        v0 = weylcheck.semigroup(grid256, 0.0)
        assert weylcheck.weyl_residual(u, v0, 1.7, 0.0) <= 1e-12

    @pytest.mark.parametrize("n", [16, 100, 256])
    @pytest.mark.parametrize("offset", [0.0, 0.5, 0.3])
    def test_matches_dense_norm(self, n, offset):
        # on the grid (offset 0) and off it; the dense 2-norm by SVD
        length = 1.3
        grid = weylcheck.build_interval_grid(length, n)
        for k in (0, 1, n // 3, n - 1):
            s = (k + offset) * grid.h
            for t in (-4.2, 0.9, 2.5):
                u = weylcheck.unitary_group(grid, t)
                got = weylcheck.weyl_residual(u, weylcheck.semigroup(grid, s), t, s)
                assert got == pytest.approx(dense_residual(length, n, t, s),
                                            rel=1e-12, abs=0.0)

    def test_off_grid_first_order(self):
        res = weylcheck.refinement_study(1.0, [128, 256, 512, 1024], [1.0, 2.5],
                                         on_grid=False)
        assert res.orders["off-grid"] >= 0.9

    def test_off_grid_order_over_four_decades(self):
        res = weylcheck.refinement_study(1.0, [10**2, 10**3, 10**4, 10**5, 10**6],
                                         [1.0, 2.5], on_grid=False)
        assert 0.99 <= res.orders["off-grid"] <= 1.01

    def test_on_grid_reported_exact(self):
        res = weylcheck.refinement_study(1.0, [128, 256, 512], [1.0, 2.5],
                                         on_grid=True)
        assert res.orders["on-grid"] == "exact"
        assert all(r["residual"] <= 1e-12 for r in res.table.rows)

    def test_refinement_needs_three_distinct_sizes(self):
        with pytest.raises(ValueError):
            weylcheck.refinement_study(1.0, [64, 64, 128], [1.0], on_grid=False)

    def test_residual_independent_of_t_on_grid(self, grid256):
        rng = np.random.default_rng(3)
        s = 50 * grid256.h
        v = weylcheck.semigroup(grid256, s)
        residuals = [
            weylcheck.weyl_residual(weylcheck.unitary_group(grid256, t), v, t, s)
            for t in rng.uniform(-20, 20, 50)
        ]
        assert max(residuals) <= 1e-12


# The finite-difference fit the generator check made before its jets were
# exact: 9-point stencils with steps 0.004 (first order) and 0.01 (second
# order) on values. Kept as an oracle where it is accurate, |t| <= 14.
_FD1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
_FD2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])
_OFFSETS = np.arange(-4, 5)


def _fd_derivative(f, x, order, step):
    coeffs = _FD1 if order == 1 else _FD2
    return sum(c * f(x + k * step) for c, k in zip(coeffs, _OFFSETS) if c) / step**order


def fd_fit(model, kind, t):
    """(scale, offset) fitted on finite-difference derivatives of values."""
    right = getattr(model, "length", 30.0)
    xs = np.linspace(right / 4096, right, 4096)
    h = xs[1] - xs[0]
    root_w = np.sqrt(np.r_[h / 2, np.full(len(xs) - 2, h), h / 2])

    def values(rep, f):
        return lambda x: rep(lambda y: (f(y),))(x)[0]

    def apply(f, x):
        if model.generator_kind == "first-order":
            return 1j * _fd_derivative(f, x, 1, 0.004)
        return -_fd_derivative(f, x, 2, 0.01) + model.gamma / (x * x) * f(x)

    forward, backward = model.representation(kind, t), model.representation(kind, -t)
    lhs, columns = [], []
    for _, jet in weylcheck.default_test_functions(model):
        f = lambda x, jet=jet: jet(x)[0]
        pulled = values(backward, f)
        lhs.append(root_w * values(forward, lambda y, p=pulled: apply(p, y))(xs))
        columns.append(root_w[:, None] * np.stack([apply(f, xs), f(xs)], axis=1))
    (scale, offset), *_ = np.linalg.lstsq(np.concatenate(columns), np.concatenate(lhs),
                                          rcond=None)
    return scale, offset


_FAMILIES = [
    (models.interval_derivative(1.0), "translation"),
    (models.interval_derivative(5.0), "translation"),
    (models.inverse_square(0.0), "scaling"),
    (models.inverse_square(-2.0), "scaling"),
    (models.inverse_square(0.5), "scaling"),
    (models.halfline_derivative(), "translation"),
    (models.halfline_derivative(), "scaling"),
]
_FAMILY_IDS = ["interval-1", "interval-5", "gamma=0", "gamma=-2", "gamma=0.5",
               "halfline-translation", "halfline-scaling"]


class TestGeneratorInvariance:
    def test_interval_translation_product_rule(self):
        m = models.interval_derivative(1.0)
        for t in (0.4, 1.2):
            chk = weylcheck.generator_invariance_residual(m, "translation", t)
            assert chk.residual <= weylcheck.GENERATOR_TOL
            assert chk.scale == pytest.approx(1.0, abs=1e-14)
            assert chk.offset == pytest.approx(t, abs=1e-14)

    def test_inverse_square_scaling(self):
        m = models.inverse_square(0.0)
        for t in (0.5, -0.7):
            chk = weylcheck.generator_invariance_residual(m, "scaling", t)
            assert chk.residual <= weylcheck.GENERATOR_TOL
            assert chk.scale == pytest.approx(math.exp(-t), rel=1e-14)
            assert abs(chk.phase_factor - 1.0) <= 1e-14

    def test_halfline_scaling(self):
        m = models.halfline_derivative()
        for t in (0.8, -0.5):
            chk = weylcheck.generator_invariance_residual(m, "scaling", t)
            assert chk.residual <= weylcheck.GENERATOR_TOL
            assert chk.scale == pytest.approx(math.exp(-t), rel=1e-14)
            assert abs(chk.phase_factor - 1.0) <= 1e-14

    def test_scaling_relation_is_relative(self):
        # the scale must be e^{-t} within 1e-6 relative: an absolute 1e-6
        # passed a scale of 0, and a relative error of 2e-5, at t = 20
        def check(scale, t, phase=1.0):
            return weylcheck.GeneratorCheck(0.0, scale, 0j, phase).fits_scaling(t)

        for t in (-700.0, -20.0, 0.5, 20.0, 700.0):
            assert check(math.exp(-t) * (1 + 9e-7), t)
            assert not check(math.exp(-t) * (1 + 2e-5), t)
            assert not check(math.exp(-t), t, phase=1.0 + 2e-6)
        for scale in (0j, complex(math.nan), complex(math.inf), 1e300 + 0j):
            for t in (-1e4, 20.0, 1e4):
                assert not check(scale, t)
        assert check(math.exp(-1e-3), 1e-3) and not check(math.exp(-1e-3), 1e4)

    def test_halfline_translation(self):
        m = models.halfline_derivative()
        chk = weylcheck.generator_invariance_residual(m, "translation", 1.4)
        assert chk.residual <= weylcheck.GENERATOR_TOL
        assert chk.scale == pytest.approx(1.0, abs=1e-14)
        assert chk.offset == pytest.approx(1.4, abs=1e-14)

    @pytest.mark.parametrize("model, kind", _FAMILIES, ids=_FAMILY_IDS)
    def test_fit_matches_the_finite_difference_fit(self, model, kind):
        # where the stencils were accurate, |t| <= 14 and the finite-difference
        # check passed, the exact fit agrees with theirs; measured scale
        # 9.7e-9 relative at t = 14, offset 2.9e-12
        ts = (-14, -7, -0.7, 0.5, 7, 14) if kind == "translation" else (-0.7, 0.5, 7, 14)
        for t in ts:
            scale, offset = fd_fit(model, kind, t)
            chk = weylcheck.generator_invariance_residual(model, kind, t)
            assert abs(chk.scale / scale - 1) <= 1e-8
            assert abs(chk.offset - offset) <= 1e-8

    @pytest.mark.parametrize("model, kind", _FAMILIES, ids=_FAMILY_IDS)
    def test_scaled_norms_keep_the_bytes(self, model, kind, monkeypatch):
        # the rows enter the norms scaled by a power of two, which is exact:
        # wherever the unscaled norms stayed in range, every field of the
        # check is the same float
        ts = (-20.0, 1.0, 20.0, 300.0)
        scaled = [weylcheck.generator_invariance_residual(model, kind, t) for t in ts]
        monkeypatch.setattr(np, "frexp", lambda x: (x, np.zeros(np.shape(x), dtype=int)))
        unscaled = [weylcheck.generator_invariance_residual(model, kind, t) for t in ts]
        assert scaled == unscaled

    @pytest.mark.parametrize("model", [models.halfline_derivative(), models.inverse_square(-2.0)],
                             ids=["halfline", "gamma=-2"])
    def test_scaling_families_at_t_400(self, model):
        # U A U* f ~ e^{-400} and ~ e^{400}: the squares in an unscaled norm
        # leave the floats, the scaled rows do not. At t = 400 the relation
        # holds to the tolerance (measured 4.2e-16 and 2.8e-16); at t = -400
        # the residual passes (2.9e-16 and 9.9e-16) and the absolute phase
        # bound fails
        chk = weylcheck.generator_invariance_residual(model, "scaling", 400.0)
        assert chk.residual <= weylcheck.GENERATOR_TOL and chk.fits_scaling(400.0)
        chk = weylcheck.generator_invariance_residual(model, "scaling", -400.0)
        assert chk.residual <= weylcheck.GENERATOR_TOL and not chk.fits_scaling(-400.0)
        with pytest.raises(DynamicRangeExceeded):
            weylcheck.generator_invariance_residual(model, "scaling", 700.0)

    def test_a_nan_entry_never_passes(self):
        def nan_jet(x):
            return (x * math.nan,) * 3

        for model, kind in _FAMILIES:
            with pytest.raises(DynamicRangeExceeded):
                weylcheck.generator_invariance_residual(
                    model, kind, 0.5, test_functions=[("nan", nan_jet)])


class TestJets:
    @pytest.mark.parametrize("name, jet", weylcheck.default_test_functions(
        models.interval_derivative(1.0)))
    def test_dictionary_against_mpmath(self, name, jet):
        mpmath = pytest.importorskip("mpmath")
        exprs = {
            "x*exp(-x)": lambda x: x * mpmath.exp(-x),
            "x^2*exp(-x)": lambda x: x * x * mpmath.exp(-x),
            "x*sin(x)*exp(-x^2/2)": lambda x: x * mpmath.sin(x) * mpmath.exp(-x * x / 2),
        }
        xs = np.array([0.3, 1.7, 3.1, 4.2, 6.5])
        got = jet(xs)
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                for k in range(3):
                    want = float(mpmath.diff(exprs[name], mpmath.mpf(x), k))
                    assert abs(got[k][i] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("model, kind", _FAMILIES, ids=_FAMILY_IDS)
    def test_group_law(self, model, kind):
        # rep(t1) after rep(t2) is rep(t1 + t2), and rep(t) after rep(-t)
        # the identity, on every component of every jet
        xs = np.linspace(0.05, getattr(model, "length", 6.0), 97)
        for _, jet in weylcheck.default_test_functions(model):
            for t1, t2 in ((0.7, -1.9), (3.0, 4.0), (-2.5, 2.5)):
                composed = model.representation(kind, t1)(model.representation(kind, t2)(jet))
                for got, want in zip(composed(xs), model.representation(kind, t1 + t2)(jet)(xs)):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            back = model.representation(kind, 1.3)(model.representation(kind, -1.3)(jet))
            for got, want in zip(back(xs), jet(xs)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_right_shift_acts_on_every_component(self):
        xs = np.linspace(0.0, 4.0, 41)
        jet = weylcheck.default_test_functions(models.halfline_derivative())[1][1]
        for got, want in zip(models.right_shift(1.5, jet)(xs), jet(xs - 1.5)):
            assert np.array_equal(got, np.where(xs > 1.5, want, 0.0))


class TestCommutationPhase:
    def test_interval_translation_phase(self):
        m = models.interval_derivative(1.0)
        out = weylcheck.measure_commutation_phase(m, "translation", 1.3, 0.25)
        assert abs(out["phase"] - np.exp(1j * 0.25 * 1.3)) < 1e-9
        assert out["relative_residual"] < 1e-9

    def test_halfline_scaling_phase_is_one(self):
        # the scaling family commutes with the shift semigroup up to time
        # rescaling only: measured phase 1, orientation e^{-t}
        m = models.halfline_derivative()
        for t, s in ((0.7, 0.5), (-0.9, 0.8)):
            out = weylcheck.measure_commutation_phase(m, "scaling", t, s)
            assert abs(out["phase"] - 1.0) < 1e-6
            assert out["scale_exponent"] == -1.0
            assert out["relative_residual"] < 1e-9
            worse = out["alternatives"][0]["relative_residual"]
            assert worse > 1e-3


class TestNonequivalence:
    def test_separates_lengths(self):
        rep = weylcheck.nonequivalence_certificate(1.0, 2.0)
        assert rep.certified
        assert rep.sstar_1 == pytest.approx(1.0, abs=rep.h1 + 1e-12)
        assert rep.sstar_2 == pytest.approx(2.0, abs=rep.h2 + 1e-12)

    def test_refuses_equal_lengths(self):
        rep = weylcheck.nonequivalence_certificate(1.5, 1.5)
        assert not rep.certified
