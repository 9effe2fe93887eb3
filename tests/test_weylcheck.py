import cmath
import collections
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extflow import models, weylcheck
from extflow.errors import DynamicRangeExceeded, InsufficientData, InvalidArgument
from extflow.weylcheck import GridOperator, represent

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
    # a GridOperator record, or a 1-D diagonal such as unitary_group's
    diag, shift = (op.diag, op.shift) if isinstance(op, GridOperator) else (op, 0)
    return np.diag(diag) @ np.eye(len(diag), k=-shift)


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
        assert u.shape == (grid256.n,)
        assert np.allclose(np.abs(u), 1.0, atol=1e-12)

    def test_group_law(self, grid256):
        u1 = weylcheck.unitary_group(grid256, 0.8)
        u2 = weylcheck.unitary_group(grid256, 1.9)
        u12 = weylcheck.unitary_group(grid256, 2.7)
        assert np.abs(u1 * u2 - u12).max() < 1e-12
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
        k = weylcheck.shift_count(grid256, s)
        for t in rng.uniform(-10, 10, 50):
            u = weylcheck.unitary_group(grid256, t)
            assert weylcheck.weyl_residual(u, k, t, s) <= 1e-12

    def test_degenerate_parameters(self, grid256):
        s = 64 * grid256.h
        k = weylcheck.shift_count(grid256, s)
        u0 = weylcheck.unitary_group(grid256, 0.0)
        assert weylcheck.weyl_residual(u0, k, 0.0, s) <= 1e-12
        u = weylcheck.unitary_group(grid256, 1.7)
        assert weylcheck.shift_count(grid256, 0.0) == 0
        assert weylcheck.weyl_residual(u, 0, 1.7, 0.0) <= 1e-12

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
                got = weylcheck.weyl_residual(u, weylcheck.shift_count(grid, s), t, s)
                assert got == pytest.approx(dense_residual(length, n, t, s),
                                            rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(length=st.floats(1e-3, 300.0), n=st.integers(8, 64), t=st.floats(-50.0, 50.0),
           k_pick=st.sampled_from(["zero", "last", "all", "any"]),
           k_any=st.integers(0, 64), offset=st.sampled_from([0.0, 0.25, 0.45]))
    @example(length=300.0, n=64, t=37.3, k_pick="last", k_any=0, offset=0.45)
    @example(length=1e-3, n=8, t=-50.0, k_pick="all", k_any=0, offset=0.0)
    def test_phase_diagonal_and_shift_match_dense_residual(self, length, n, t, k_pick,
                                                           k_any, offset):
        # U_t's phases and V_s's shift alone give the dense residual of
        # U_t V_s - e^{ist} V_s U_t, on the grid and off it, from k = 0 to n
        k = {"zero": 0, "last": n - 1, "all": n, "any": min(k_any, n)}[k_pick]
        grid = weylcheck.build_interval_grid(length, n)
        s = (k + offset) * grid.h
        assert weylcheck.shift_count(grid, s) == k
        got = weylcheck.weyl_residual(weylcheck.unitary_group(grid, t), k, t, s)
        assert got == pytest.approx(dense_residual(length, n, t, s), rel=1e-12, abs=0.0)

    def test_grid_and_shift_once_per_size(self, monkeypatch):
        # the grid and V_s's shift depend on n alone; U_t once per (chain, t)
        # on the chain's largest grid, whose nodes are formed once; the
        # residual once per distinct (n, t); no GridOperator record of V_s
        grid = weylcheck.build_interval_grid(1.0, 64)
        assert grid.nodes is grid.nodes     # formed on the first read, then kept
        calls, formed = collections.Counter(), collections.Counter()
        for name in ("build_interval_grid", "shift_count", "semigroup", "unitary_group",
                     "weyl_residual"):
            def counted(*args, _name=name, _inner=getattr(weylcheck, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(weylcheck, name, counted)
        real_nodes = weylcheck.IntervalGrid.nodes.func

        def nodes(grid):
            formed[grid.n] += 1
            return real_nodes(grid)

        counted_nodes = functools.cached_property(nodes)
        counted_nodes.__set_name__(weylcheck.IntervalGrid, "nodes")
        monkeypatch.setattr(weylcheck.IntervalGrid, "nodes", counted_nodes)
        # one chain, a size listed twice; two chains, odd parts 3 and 1
        for n_list, grids, heads in (([64, 64, 128], 2, [128]),
                                     ([96, 128, 192, 256], 4, [192, 256])):
            calls.clear()
            formed.clear()
            rows = weylcheck.residual_rows(1.0, n_list, [1.0, -2.5], on_grid=False)
            assert len(rows) == 2 * len(n_list)
            assert calls == {"build_interval_grid": grids, "shift_count": grids,
                             "unitary_group": 2 * len(heads), "weyl_residual": 2 * grids}
            assert formed == {n: 1 for n in heads}

    def test_off_grid_first_order(self):
        rows, order = weylcheck.refine(1.0, [128, 256, 512, 1024], [1.0, 2.5], on_grid=False)
        assert order >= 0.9
        # the closed-form slope is the least-squares line through the worst
        # residual per size, which np.polyfit also fits
        worst = [max(r["residual"] for r in rows if r["n"] == n) for n in (128, 256, 512, 1024)]
        fit = np.polyfit(np.log([1 / 128, 1 / 256, 1 / 512, 1 / 1024]), np.log(worst), 1)[0]
        assert order == pytest.approx(fit, abs=1e-12)

    def test_off_grid_order_over_four_decades(self):
        _, order = weylcheck.refine(
            1.0, [10**2, 10**3, 10**4, 10**5, 10**6], [1.0, 2.5], on_grid=False)
        assert 0.99 <= order <= 1.01

    def test_on_grid_reported_exact(self):
        rows, order = weylcheck.refine(1.0, [128, 256, 512], [1.0, 2.5], on_grid=True)
        assert order == "exact"
        assert all(r["residual"] <= 1e-12 for r in rows)

    def test_on_grid_residual_is_the_rounding_of_the_phases(self):
        # over 8 lengths, sizes from 8 to 8192 and |t| l from 1e-2 to 1e5 the
        # on-grid residual stays within 1.36 (1 + |t| l) eps: ON_GRID_FLOORS
        # keeps a factor of ten above it
        eps, worst = np.finfo(float).eps, 0.0
        for length in (1e-3, 0.1, 1.0, 3.3, 10.0, 62.8, 120.0, 300.0):
            for n in (8, 64, 1024, 8192):
                grid = weylcheck.build_interval_grid(length, n)
                s = (n // 3) * grid.h
                k = weylcheck.shift_count(grid, s)
                for t in np.outer([1.0, -1.0], np.logspace(-2, 5, 15)).ravel() / length:
                    res = weylcheck.weyl_residual(weylcheck.unitary_group(grid, t), k, t, s)
                    worst = max(worst, res / ((1 + abs(t) * length) * eps))
        assert 0.5 < worst and 10 * worst <= weylcheck.ON_GRID_FLOORS

    @pytest.mark.parametrize("length, n, t_values", [(300.0, 1024, [37.3, -9.9]),
                                                      (3.3, 64, [1e4])])
    def test_on_grid_rounding_is_unresolved_not_failed(self, length, n, t_values):
        # past ON_GRID_TOL but within the floors: DynamicRangeExceeded, for
        # weyl's rows and refine's alike; off the grid the rows still come
        rows = weylcheck.residual_rows(length, [n], t_values, on_grid=False)
        assert len(rows) == len(t_values)
        with pytest.raises(DynamicRangeExceeded, match="within the rounding of x_j t"):
            weylcheck.residual_rows(length, [n], t_values, on_grid=True)
        with pytest.raises(DynamicRangeExceeded, match="within the rounding of x_j t"):
            weylcheck.refine(length, [n, 2 * n, 4 * n], t_values, on_grid=True)

    def test_refinement_needs_three_distinct_sizes(self, monkeypatch):
        # refused before any grid or residual is built
        calls = []
        for name in ("build_interval_grid", "weyl_residual"):
            monkeypatch.setattr(weylcheck, name, lambda *args, _name=name: calls.append(_name))
        for n_list, t_values in (([64, 64, 128], [1.0]), ([64, 128, 256], [])):
            with pytest.raises(InvalidArgument, match="three distinct grid sizes"):
                weylcheck.refine(1.0, n_list, t_values, on_grid=False)
        assert calls == []

    def test_refuses_an_order_that_fails_by_construction(self, monkeypatch):
        # off the grid the residual is 2|sin(t h / 4)|, so the order between
        # grids h and h/2 is 1 + log2 cos(t h / 8), ORDER_MIN at SATURATED_TH
        th = weylcheck.SATURATED_TH
        assert 1 + math.log2(math.cos(th / 8)) == pytest.approx(weylcheck.ORDER_MIN, abs=1e-15)
        rows = weylcheck.residual_rows(300.0, [64, 128], [0.5, 1.5], on_grid=False)
        for r in rows:
            assert r["residual"] == pytest.approx(2 * abs(math.sin(r["t"] * r["h"] / 4)), rel=1e-12)
        # just inside the bound the order passes; just past it, and at
        # l = 300, where t h reaches 7.03, refine refuses before any grid
        _, order = weylcheck.refine(64.0, [64, 128, 256], [th * 0.999], on_grid=False)
        assert weylcheck.ORDER_MIN <= order < 1
        assert weylcheck.refine(300.0, [64, 128, 256], [0.5, 1.5], on_grid=True)[1] == "exact"
        calls = []
        for name in ("build_interval_grid", "weyl_residual"):
            monkeypatch.setattr(weylcheck, name, lambda *args, _name=name: calls.append(_name))
        for length, t_values in ((64.0, [th * 1.001]), (300.0, [0.5, 1.5]), (300.0, [-1.5, 0.5])):
            with pytest.raises(InvalidArgument, match="off-grid"):
                weylcheck.refine(length, [64, 128, 256], t_values, on_grid=False)
        assert calls == []

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_rows_are_sorted_whatever_the_jobs(self, jobs):
        # every (n, t) once per listed size, in (n, t) order, the same rows
        # from the worker threads as from the serial sweep
        args = (1.0, [256, 64, 128, 64], [1.5, -0.5, 1.5], False)
        rows = weylcheck.residual_rows(*args)
        assert [(r["n"], r["t"]) for r in rows] == sorted(
            (n, t) for n in [256, 64, 128, 64] for t in [1.5, -0.5, 1.5])
        assert rows == [weylcheck.residual_rows(1.0, [r["n"]], [r["t"]], False)[0]
                        for r in rows]
        assert weylcheck.residual_rows(*args, jobs=jobs) == rows

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(length=st.floats(1e-3, 300.0), t=st.floats(-1e4, 1e5),
           odd=st.integers(0, 62).map(lambda m: 2 * m + 1), low=st.integers(0, 3),
           a=st.integers(0, 10))
    @example(length=300.0, t=1e5, odd=125, low=3, a=10)
    @example(length=1e-3, t=-1e4, odd=1, low=3, a=10)
    def test_chain_phases_are_the_sub_grids_own(self, length, t, odd, low, a):
        # every 2^a-th node and phase of the grid of N = 2^a n is, bit for
        # bit, the node and phase of the grid of n, which the sweep reads
        n = odd << low
        assume(n >= 8)
        big = weylcheck.build_interval_grid(length, n << a)
        grid = weylcheck.build_interval_grid(length, n)
        step = 1 << a
        assert big.h * step == grid.h
        assert big.nodes[step - 1::step].tobytes() == grid.nodes.tobytes()
        u = weylcheck.unitary_group(big, t)[step - 1::step]
        assert u.tobytes() == weylcheck.unitary_group(grid, t).tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("length, n_list, t_values, on_grid", [
        (3.3, [8, 96, 128, 128, 192, 1000, 1024], [0.5, -7.5, 12.0], False),
        (3.3, [8, 96, 128, 128, 192, 1000, 1024], [0.5, -7.5, 12.0], True),
        (300.0, [1024, 8, 64, 512, 24, 48], [37.3, -0.0, 0.0, -9.9], False),
        # h is subnormal on the finest grids, where fl(l/n) = 2^a fl(l/N)
        # can fail: a size whose h is not 2^a times N's heads its own chain
        (1e-305, [8, 64, 65536, 131072, 1 << 20], [3e304, -7e303], False),
        # a size listed twice with t = 0 and -0 tied: each t's rows twice
        (300.0, [64, 24, 64], [0.0, 1.5, -0.0], True),
    ])
    def test_chains_give_the_rows_of_single_sizes(self, jobs, length, n_list, t_values,
                                                  on_grid):
        # the reference for the chained sweep: one call per listed size,
        # joined, in (n, t) order, ties as listed; repr tells t = -0 from 0
        rows = weylcheck.residual_rows(length, n_list, t_values, on_grid, jobs=jobs)
        single = [row for n in n_list
                  for row in weylcheck.residual_rows(length, [n], t_values, on_grid)]
        assert repr(rows) == repr(sorted(single, key=lambda r: (r["n"], r["t"])))
        assert [(r["n"], repr(r["t"])) for r in rows] == [
            (n, repr(t)) for n, t in sorted((n, t) for n in n_list for t in t_values)]

    def test_residual_independent_of_t_on_grid(self, grid256):
        rng = np.random.default_rng(3)
        s = 50 * grid256.h
        k = weylcheck.shift_count(grid256, s)
        residuals = [
            weylcheck.weyl_residual(weylcheck.unitary_group(grid256, t), k, t, s)
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
        return lambda x: represent(rep, lambda y: (f(y),))(x)[0]

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
    (models.IntervalModel(1.0), "translation"),
    (models.IntervalModel(5.0), "translation"),
    (models.inverse_square(0.0), "scaling"),
    (models.inverse_square(-2.0), "scaling"),
    (models.inverse_square(0.5), "scaling"),
    (models.HalflineModel(), "translation"),
    (models.HalflineModel(), "scaling"),
]
_FAMILY_IDS = ["interval-1", "interval-5", "gamma=0", "gamma=-2", "gamma=0.5",
               "halfline-translation", "halfline-scaling"]


class TestGeneratorInvariance:
    def test_interval_translation_product_rule(self):
        m = models.IntervalModel(1.0)
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
        m = models.HalflineModel()
        for t in (0.8, -0.5):
            chk = weylcheck.generator_invariance_residual(m, "scaling", t)
            assert chk.residual <= weylcheck.GENERATOR_TOL
            assert chk.scale == pytest.approx(math.exp(-t), rel=1e-14)
            assert abs(chk.phase_factor - 1.0) <= 1e-14

    def test_scaling_relation_is_relative(self):
        # the scale must be e^{-t} within SCALE_TOL relative: an absolute
        # 1e-6 passed a scale of 0, and a relative error of 2e-5, at t = 20;
        # the log read of the scale rounds to half an ulp of |t|, 5.7e-14 at
        # |t| = 700
        def check(scale, t, phase=1.0):
            return weylcheck.GeneratorCheck(0.0, scale, 0j, phase, 1e-8).fits_scaling(t)

        for t in (-700.0, -20.0, 0.5, 20.0, 700.0):
            assert check(math.exp(-t) * (1 + 2e-14), t)
            assert not check(math.exp(-t) * (1 + 2e-13), t)
            assert not check(math.exp(-t) * (1 + 2e-5), t)
            assert not check(math.exp(-t), t, phase=1.0 + 2e-6)
        for scale in (0j, complex(math.nan), complex(math.inf), 1e300 + 0j):
            for t in (-1e4, 20.0, 1e4):
                assert not check(scale, t)
        assert check(math.exp(-1e-3), 1e-3) and not check(math.exp(-1e-3), 1e4)

    @pytest.mark.parametrize("model, t", [
        (models.HalflineModel(), -0.7), (models.HalflineModel(), 40.0),
        (models.inverse_square(-2.0), 0.5), (models.inverse_square(0.5), 300.0)])
    def test_scale_bound_is_its_measured_budget(self, monkeypatch, model, t):
        # a fitted scale 1e-12 off e^{-t}, relative, passed the former 1e-6
        # and fails SCALE_TOL, which the fits themselves meet: 3.6e-15 at
        # worst over t in [-45, 600] on the half-line and seven couplings
        chk = weylcheck.generator_invariance_residual(model, "scaling", t)
        off = dataclasses.replace(chk, scale=chk.scale * (1 + 1e-12))
        assert weylcheck.SCALE_TOL == 1e-13
        assert chk.passes("scaling", t) and not off.passes("scaling", t)
        monkeypatch.setattr(weylcheck, "SCALE_TOL", 1e-6)
        assert off.passes("scaling", t)

    def test_phase_bound_follows_its_rounding_floor(self):
        # ten rounding floors of the offset, up to a milliradian: a phase of
        # 1e-7 at a floor of 1e-17 passed the former absolute 1e-6 and fails
        # now; 4e-4 at a floor of 5e-5, as at t = -25, failed and passes
        def check(phase, floor, t=1.0):
            return weylcheck.GeneratorCheck(
                0.0, math.exp(-t), 0j, cmath.exp(1j * phase), floor).fits_scaling(t)

        assert check(9e-17, 1e-17) and not check(1e-7, 1e-17)
        assert check(4e-4, 5e-5, t=-25.0) and not check(6e-4, 5e-5, t=-25.0)
        for floor in (1.01e-4, 1e30, math.inf, math.nan):
            with pytest.raises(DynamicRangeExceeded, match="> 0.001"):
                check(0.0, floor)
        assert not weylcheck.GeneratorCheck(0.0, complex(math.nan), 0j, 1, math.nan).fits_scaling(1)

    def test_halfline_translation(self):
        m = models.HalflineModel()
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

    @pytest.mark.parametrize("model", [models.HalflineModel(), models.inverse_square(-2.0)],
                             ids=["halfline", "gamma=-2"])
    def test_scaling_families_at_t_400(self, model):
        # U A U* f ~ e^{-400} and ~ e^{400}: the squares in an unscaled norm
        # leave the floats, the scaled rows do not. At t = 400 the relation
        # holds to the tolerance (measured 4.2e-16 and 2.8e-16); at t = -400
        # the residual passes (2.9e-16 and 9.9e-16), and the offset's rounding
        # floor, e^{400} eps |A f|/|f|, leaves the phase unresolved
        chk = weylcheck.generator_invariance_residual(model, "scaling", 400.0)
        assert chk.residual <= weylcheck.GENERATOR_TOL and chk.fits_scaling(400.0)
        chk = weylcheck.generator_invariance_residual(model, "scaling", -400.0)
        assert chk.residual <= weylcheck.GENERATOR_TOL and chk.phase_floor > 1e150
        with pytest.raises(DynamicRangeExceeded):
            chk.fits_scaling(-400.0)
        with pytest.raises(DynamicRangeExceeded):
            weylcheck.generator_invariance_residual(model, "scaling", 700.0)

    @pytest.mark.parametrize("model, last, raised", [
        (models.HalflineModel(), 471.5, (472.0, 474.5, 480.0)),
        (models.inverse_square(-2.0), 567.5, (568.0, 570.5, 580.0)),
    ], ids=["halfline", "gamma=-2"])
    def test_subnormal_intermediates_raise(self, model, last, raised):
        # A U* f, read at the points U reads it at, is about e^{-3t/2} on the
        # half-line and e^{-5t/4} here. Once its peak is subnormal, its
        # entries carry an absolute rounding of 2^-1075 that U's weight
        # scales up: the residual read 2.1e-14 and 2.9e-14 at t = 474.5 and
        # 570.5, 7.8e-11 and 3.9e-9 at 480 and 580, although the relation
        # holds. Those t raise; up to `last` the check passes (measured
        # <= 1.4e-15)
        for t in (*range(20, int(last), 20), last):
            chk = weylcheck.generator_invariance_residual(model, "scaling", float(t))
            assert chk.residual <= weylcheck.GENERATOR_TOL and chk.fits_scaling(t)
        for t in raised:
            with pytest.raises(DynamicRangeExceeded, match="below the normal floats"):
                weylcheck.generator_invariance_residual(model, "scaling", t)

    def test_a_nan_entry_never_passes(self, monkeypatch):
        def nan_jet(x):
            return (x * math.nan,) * 3

        monkeypatch.setattr(weylcheck, "default_test_functions", lambda model: [("nan", nan_jet)])
        for model, kind in _FAMILIES:
            with pytest.raises(DynamicRangeExceeded):
                weylcheck.generator_invariance_residual(model, kind, 0.5)


class TestJets:
    @pytest.mark.parametrize("name, jet", weylcheck.default_test_functions(
        models.IntervalModel(1.0)))
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
                composed = represent(model.representation(kind, t1),
                                     represent(model.representation(kind, t2), jet))
                for got, want in zip(composed(xs), represent(model.representation(kind, t1 + t2),
                                                             jet)(xs)):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            back = represent(model.representation(kind, 1.3),
                             represent(model.representation(kind, -1.3), jet))
            for got, want in zip(back(xs), jet(xs)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_right_shift_acts_on_every_component(self):
        xs = np.linspace(0.0, 4.0, 41)
        jet = weylcheck.default_test_functions(models.HalflineModel())[1][1]
        for got, want in zip(weylcheck.right_shift(1.5, jet)(xs), jet(xs - 1.5)):
            assert np.array_equal(got, np.where(xs > 1.5, want, 0.0))


class TestCommutationPhase:
    def test_interval_translation_phase(self):
        m = models.IntervalModel(1.0)
        out = weylcheck.measure_commutation_phase(m, "translation", 1.3, 0.25)
        assert abs(out["phase"] - np.exp(1j * 0.25 * 1.3)) < 1e-9
        assert out["relative_residual"] < 1e-9

    def test_halfline_scaling_phase_is_one(self):
        # the scaling family commutes with the shift semigroup up to time
        # rescaling only: measured phase 1, orientation e^{-t}
        m = models.HalflineModel()
        for t, s in ((0.7, 0.5), (-0.9, 0.8)):
            out = weylcheck.measure_commutation_phase(m, "scaling", t, s)
            assert abs(out["phase"] - 1.0) < 1e-6
            assert out["scale_exponent"] == -1.0
            assert out["relative_residual"] < 1e-9
            worse = out["alternatives"][0]["relative_residual"]
            assert worse > 1e-3
        # criterion 8 reads the first pair, where the phase is 1 exactly
        assert weylcheck.measure_commutation_phase(m, "scaling", 0.7, 0.5)["phase"] == 1

    @pytest.mark.parametrize("model, kind, t, s", [
        (models.HalflineModel(), "scaling", -1.8, 5.0),
        (models.IntervalModel(1.0), "translation", 1.3, 1.5),
    ], ids=["halfline-scaling", "interval-past-l"])
    def test_vanishing_left_side_is_undetermined(self, model, kind, t, s):
        # U_t V_s f is zero on the whole sample grid: on the half-line V_s f
        # starts at x = 5 and U_t reads it at e^t x <= 4.96; on (0, 1] the
        # shift by s > l leaves nothing. Every phase fits, so none is reported
        with pytest.raises(InsufficientData, match="undetermined"):
            weylcheck.measure_commutation_phase(model, kind, t, s)

    def test_vanishing_right_side_fails_with_residual_one(self):
        # at t = 1.8, s = 5 the orientation e^{+t} shifts U_t f by 30.25,
        # past the grid's end: that candidate reads phase 0 and residual 1,
        # and the orientation e^{-t} still measures phase 1
        out = weylcheck.measure_commutation_phase(models.HalflineModel(), "scaling", 1.8, 5.0)
        assert out["scale_exponent"] == -1.0 and abs(out["phase"] - 1.0) <= 2e-15
        assert out["alternatives"][0]["phase"] == 0j
        assert out["alternatives"][0]["relative_residual"] == 1.0

    def test_second_order_model_has_no_shift_semigroup(self):
        with pytest.raises(InvalidArgument, match="not first-order"):
            weylcheck.measure_commutation_phase(models.inverse_square(-2.0), "scaling", 0.7, 0.5)


class TestNonequivalence:
    def test_separates_lengths(self):
        rep = weylcheck.nonequivalence_certificate(1.0, 2.0)
        assert rep.certified
        assert rep.sstar_1 == pytest.approx(1.0, abs=rep.h1 + 1e-12)
        assert rep.sstar_2 == pytest.approx(2.0, abs=rep.h2 + 1e-12)

    def test_refuses_equal_lengths(self):
        rep = weylcheck.nonequivalence_certificate(1.5, 1.5)
        assert not rep.certified
