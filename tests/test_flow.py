import cmath
import collections
import dataclasses
import math

import numpy as np
import pytest
from test_affine import flow_coefficients
from test_mobius import compose, disk_automorphism, rotation

from extflow import cli, flow, mobius, models
from extflow.affine import ALL_POINTS, IDENTITY, AffineMap, subgroup_eval
from extflow.errors import (
    DynamicRangeExceeded,
    InvalidArgument,
    NearSingularDenominator,
    NumericalInconsistency,
    OutsideGroup,
    UnsupportedIndices,
)
from extflow.flow import (
    DISSIPATIVE,
    SELF_ADJOINT,
    Verdict,
    check_group_law,
    fixed_points_flow,
    gamma_apply,
    gamma_map,
    generator,
    in_ball,
    invariant_extensions,
    period_detect,
    zeros,
)
from extflow.mobius import IDENTITY_MAP, MapTag, classify, distance_to_identity



def default_group(model):
    """The model's default subgroup: the first of its row in the CLI's model table."""
    return cli._MODELS[model.name][2][0]


@pytest.fixture(scope="module")
def interval():
    return models.IntervalModel(1.0)


@pytest.fixture(scope="module")
def invsq0():
    return models.inverse_square(0.0)


@pytest.fixture(scope="module")
def halfline():
    return models.HalflineModel()


class TestIdentityLaw:
    def test_interval(self, interval):
        assert distance_to_identity(gamma_map(interval, IDENTITY)) < 1e-12

    def test_inverse_square(self, invsq0):
        assert distance_to_identity(gamma_map(invsq0, IDENTITY)) < 1e-12

    def test_halfline_trivial(self, halfline):
        # indices (0, 1): every element of the trivial flow is IDENTITY_MAP
        m = gamma_map(halfline, IDENTITY)
        assert m is IDENTITY_MAP and distance_to_identity(m) < 1e-12

    def test_identity_fixes_parameter(self, interval):
        assert gamma_apply(interval, IDENTITY, 0.5j) == pytest.approx(0.5j)


class TestIntervalFlow:
    def test_unit_translation_is_elliptic_at_dirichlet_point(self, interval):
        cls = classify(gamma_map(interval, AffineMap(1.0, 1.0)))
        assert cls.tag is MapTag.ELLIPTIC
        assert cls.fixed_points[0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_full_period_translation_is_identity(self, interval):
        assert distance_to_identity(gamma_map(interval, AffineMap(1.0, 2 * math.pi))) < 1e-8

    def test_elements_within_id_tol_fix_all_points(self, interval):
        points = in_ball(zeros(*generator(interval, "translation")))
        for t in (2 * math.pi, 2 * math.pi - 1e-12):
            m = gamma_map(interval, AffineMap(1.0, t))
            assert fixed_points_flow(m, points) is ALL_POINTS
        # 2 pi - 1e-9 lies within the former ID_TOL of 1e-8, and 2 pi - 1e-6
        # beyond it: both have their one fixed point
        for t in (2 * math.pi - 1e-9, 2 * math.pi - 1e-6):
            m = gamma_map(interval, AffineMap(1.0, t))
            (v, kind), = fixed_points_flow(m, points)
            assert kind == DISSIPATIVE and v == pytest.approx(math.exp(-1.0), abs=2e-16)

    def test_dirichlet_point_invariant_for_all_t(self, interval):
        v = math.exp(-1.0)
        for t in (0.25, 1.0, 3.7, -2.2):
            out = gamma_apply(interval, AffineMap(1.0, t), v)
            assert abs(out - v) < 1e-8

    def test_circle_preservation(self, interval):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = rng.uniform(-6, 6)
            v = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            out = gamma_apply(interval, AffineMap(1.0, t), v)
            assert abs(abs(out) - 1.0) < 1e-8

    def test_contraction_preservation(self, interval):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            t = rng.uniform(-6, 6)
            v = rng.uniform(0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(gamma_apply(interval, AffineMap(1.0, t), v)) <= 1.0 + 1e-10

    def test_group_law(self, interval):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = AffineMap(1.0, rng.uniform(-4, 4))
            g = AffineMap(1.0, rng.uniform(-4, 4))
            assert check_group_law(interval, f, g) < 1e-9

    def test_inverse_law(self, interval):
        g = AffineMap(1.0, 1.3)
        assert check_group_law(interval, AffineMap(1.0, -1.3), g) < 1e-9

    def test_continuity_of_trajectories(self, interval):
        v = 0.55 - 0.2j
        ts = np.arange(-5.0, 5.0, 1e-3)
        vals = [gamma_apply(interval, AffineMap(1.0, float(t)), v) for t in ts]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 1e-2


class TestInverseSquareFlow:
    def test_group_law_quadrature_accuracy(self, invsq0):
        rng = np.random.default_rng(7)
        for _ in range(8):
            t1, t2 = rng.uniform(-2.5, 2.5, 2)
            f = subgroup_eval("scaling", t1)
            g = subgroup_eval("scaling", t2)
            assert check_group_law(invsq0, f, g) < 2e-14   # measured 1.2e-15

    def test_fixed_points_are_friedrichs_and_krein(self, invsq0):
        fps = fixed_points_flow(gamma_map(invsq0, subgroup_eval("scaling", 1.0)),
                                in_ball(zeros(*generator(invsq0, "scaling"))))
        vals = sorted((z for z, kind in fps), key=lambda z: z.real)
        assert len(vals) == 2
        assert vals[0] == pytest.approx(-1j, abs=5e-15)
        assert vals[1] == pytest.approx(1.0, abs=5e-15)
        assert all(kind == SELF_ADJOINT for _, kind in fps)

    def test_parabolic_at_critical_coupling(self):
        m = models.inverse_square(-0.25)
        cls = classify(gamma_map(m, subgroup_eval("scaling", 1.0)))
        assert cls.tag is MapTag.PARABOLIC
        assert len(cls.fixed_points) == 1
        assert abs(abs(cls.fixed_points[0]) - 1.0) < 1e-15

    def test_contraction_preservation(self, invsq0):
        rng = np.random.default_rng(8)
        for _ in range(60):
            t = rng.uniform(-5, 5)
            v = rng.uniform(0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            out = gamma_apply(invsq0, subgroup_eval("scaling", t), v)
            assert abs(out) <= 1.0 + 1e-15


class TestInvariantExtensions:
    def test_interval_unique_dissipative(self):
        for length in (0.5, 1.0, 2.0):
            m = models.IntervalModel(length)
            rep = invariant_extensions(m, "translation")
            assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
            (v, kind), = rep.fixed_points
            assert kind == DISSIPATIVE
            assert v == pytest.approx(math.exp(-length), abs=1e-8)
            assert all(tag is MapTag.ELLIPTIC for tag in rep.flow_class.values())

    def test_inverse_square_two_self_adjoint(self, invsq0):
        rep = invariant_extensions(invsq0, "scaling")
        assert rep.group_verdict is Verdict.TWO_SELF_ADJOINT
        vals = sorted((z for z, _ in rep.fixed_points), key=lambda z: z.real)
        assert vals[0] == pytest.approx(-1j, abs=2e-14)
        assert vals[1] == pytest.approx(1.0, abs=2e-14)

    def test_inverse_square_unique_dissipative_below_critical(self):
        m = models.inverse_square(-1.0)
        rep = invariant_extensions(m, "scaling")
        assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        (v, kind), = rep.fixed_points
        assert kind == DISSIPATIVE
        assert abs(v) < 0.999

    @pytest.mark.parametrize("model", [
        models.IntervalModel(0.5),
        models.IntervalModel(1.0),
        models.IntervalModel(2.0),
        models.inverse_square(0.0),
        models.inverse_square(-1.0),
    ], ids=["l=0.5", "l=1", "l=2", "gamma=0", "gamma=-1"])
    def test_intersection_oracle_agrees(self, model):
        # X's zeros and the elements' common fixed points come from separate
        # code; they differ by <= 1.1e-15 (gamma = 0)
        group = default_group(model)
        rep = invariant_extensions(model, group)
        points, classes = intersect_fixed_points(model, group)
        assert sorted(kind for _, kind in rep.fixed_points) == sorted(
            kind for _, kind in points)
        for z, kind in rep.fixed_points:
            assert min(abs(z - w) for w, k in points if k == kind) <= 1.1e-14
        assert rep.flow_class == classes

    def test_samples_at_periods_keep_the_verdict(self):
        # l = 20 pi: every sampled t is a multiple of the period 0.1
        length = 20 * math.pi
        rep = invariant_extensions(models.IntervalModel(length), "translation")
        assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        (v, kind), = rep.fixed_points
        assert kind == DISSIPATIVE
        assert v == pytest.approx(math.exp(-length), abs=1e-8)
        assert rep.flow_class == dict.fromkeys(flow.T_SAMPLES, MapTag.IDENTITY)

    @pytest.mark.parametrize("model", [models.IntervalModel(1.0), models.inverse_square(-2.0)],
                             ids=["interval", "gamma=-2"])
    def test_elliptic_classes_come_from_the_sampled_elements(self, model, monkeypatch):
        # one element per sample, from the overlaps: the class of an elliptic
        # sample reads that element, and no closed-form exp(tX) is built
        calls = []
        for module, name in ((flow, "gamma_map"), (mobius, "from_coefficients")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        rep = invariant_extensions(model, default_group(model))
        assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        assert calls == ["gamma_map"] * 4

    def test_halfline_returns_the_operator_itself(self, halfline):
        rep = invariant_extensions(halfline, "translation")
        assert rep.group_verdict is Verdict.UNIQUE_DISSIPATIVE
        assert rep.fixed_points == [(None, DISSIPATIVE)]


def scan_period(model, group, t_max, tol=1e-8, grid=2048):
    """Reference period search: the smallest scan minimum of the distance to
    the identity over `grid` elements in (0, t_max], refined by ternary
    search, that lies within tol of the identity."""

    def dist(t):
        return distance_to_identity(gamma_map(model, subgroup_eval(group, t)))

    ts = np.linspace(t_max / grid, t_max, grid)
    ds = np.array([dist(t) for t in ts])
    candidates = [i for i in range(1, grid - 1)
                  if ds[i] <= ds[i - 1] and ds[i] <= ds[i + 1]]
    if ds[-1] <= ds[-2]:
        candidates.append(grid - 1)
    for i in candidates:
        lo = ts[i - 1]
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


def intersect_fixed_points(model, group, t_samples=(0.3, 0.7, 1.3, 2.9),
                           fp_tol=1e-7, sa_tol=1e-9, eps_class=1e-9, id_tol=1e-8):
    """Reference invariant extensions: the fixed points common to every
    sampled element that is not the identity, and each sample's class."""
    maps = {t: gamma_map(model, subgroup_eval(group, t)) for t in t_samples}
    classes = {t: classify(m, eps_class).tag for t, m in maps.items()}
    per_sample = [[z for z in mobius.fixed_points(m, parabolic_tol=sa_tol)
                   if not mobius.is_infinite(z) and abs(z) <= 1.0 + sa_tol]
                  for m in maps.values() if distance_to_identity(m) > id_tol]
    common = [z for z in per_sample[0]
              if all(any(abs(z - w) <= fp_tol for w in points)
                     for points in per_sample)]
    return ([(z, SELF_ADJOINT if abs(abs(z) - 1.0) <= sa_tol else DISSIPATIVE)
             for z in common], classes)


class TestPeriodDetect:
    def test_interval_periods(self):
        for length in (1.0, 2.0):
            m = models.IntervalModel(length)
            period = period_detect(m, "translation", t_max=4.5 * math.pi)
            assert period == pytest.approx(2 * math.pi / length, abs=1e-6)

    def test_period_element_fixes_sampled_parameters(self, interval):
        period = period_detect(interval, "translation", t_max=8.0)
        g = AffineMap(1.0, period)
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = rng.uniform(0, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(gamma_apply(interval, g, v) - v) < 1e-8

    def test_period_off_by_1e_10_is_inconsistent(self, interval, monkeypatch):
        # the element at a period 1e-10 short lies 4.1e-10 from the
        # identity (within the former bound of 1e-8), beyond ID_TOL
        *x, det = generator(interval, "translation")
        monkeypatch.setattr(flow, "generator", lambda model, group: (*x, det * (1 + 2e-10)))
        with pytest.raises(NumericalInconsistency, match="ID_TOL"):
            period_detect(interval, "translation")

    def test_no_period_reported_when_absent(self, interval):
        # below the first recurrence nothing qualifies
        assert period_detect(interval, "translation", t_max=3.0) is None

    def test_fall_to_center_period_is_pi_over_halfnu(self):
        # minimal flow period under the unit-speed scaling subgroup: the
        # boundary-condition phase angle is pi-periodic, giving 2 pi / nu
        m = models.inverse_square(-25.0)
        nu = math.sqrt(24.75)
        period = period_detect(m, "scaling", t_max=1.6)
        assert period == pytest.approx(2 * math.pi / nu, abs=3e-15)

    @pytest.mark.parametrize("length", [1e-3, 1e-2, 0.5, 1.0, 2.0, 40.0, 300.0])
    def test_interval_period_is_two_pi_over_l(self, length):
        # confirmed within ID_TOL; 3e-13 relative measured at l = 1e-3
        expect = 2 * math.pi / length
        m = models.IntervalModel(length)
        period = period_detect(m, "translation", t_max=1.4 * expect)
        assert period == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("gamma", [-2.0, -25.0, -0.3, -0.26, -0.2501])
    def test_inverse_square_period_is_two_pi_over_nu(self, gamma):
        # no bound by default: the period 628.3 at -0.2501 is found too
        expect = 2 * math.pi / math.sqrt(-gamma - 0.25)
        m = models.inverse_square(gamma)
        assert period_detect(m, "scaling") == pytest.approx(expect, rel=1e-15)

    def test_period_beyond_t_max_is_none(self):
        # nu = sqrt(0.05): the period 28.0993 lies beyond t_max = 28
        m = models.inverse_square(-0.3)
        assert period_detect(m, "scaling", t_max=28.0) is None
        assert period_detect(m, "scaling", t_max=28.1) == pytest.approx(28.0993, abs=1e-4)

    def test_period_without_an_element_is_a_range_error(self):
        # nu = sqrt(1e-5): the period 1986.9 needs the slope e^{1986.9}
        with pytest.raises(DynamicRangeExceeded):
            period_detect(models.inverse_square(-0.25001), "scaling")

    @pytest.mark.parametrize("model, group", [
        (models.IntervalModel(1e-3), "translation"),
        (models.IntervalModel(1.0), "translation"),
        (models.inverse_square(-25.0), "scaling"),
    ], ids=["l=1e-3", "l=1", "gamma=-25"])
    def test_at_most_four_flow_elements(self, model, group, monkeypatch):
        calls = []
        original = flow.gamma_map
        monkeypatch.setattr(flow, "gamma_map",
                            lambda *args: calls.append(args) or original(*args))
        assert period_detect(model, group, t_max=1e4) is not None
        assert len(calls) == 1      # the one element that confirms the period

    @pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
    def test_scan_oracle_agrees_interval(self, length):
        m = models.IntervalModel(length)
        t_max = 1.4 * 2 * math.pi / length
        assert period_detect(m, "translation", t_max) == pytest.approx(
            scan_period(m, "translation", t_max, 1e-8), abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_scan_oracle_agrees_inverse_square(self, gamma):
        # hyperbolic at 0, no period; at -1 the period 2 pi/nu = 7.26
        m = models.inverse_square(gamma)
        found = period_detect(m, "scaling", 8.0)
        scanned = scan_period(m, "scaling", 8.0, grid=16)
        if gamma == 0.0:
            assert found is None and scanned is None
        else:
            assert found == pytest.approx(scanned, abs=1e-6)


def _logarithm(model, group, t, angle):
    """(a, b, c, det X) from the element M at t: +-M = cos(w) + sin(w)/w tX,
    where of the angles w = +-acos(tr(M)/2) mod pi the one nearest ``angle``
    is taken."""
    m = gamma_map(model, subgroup_eval(group, t))
    w0 = cmath.acos((m.a + m.d) / 2)
    k, w = min(((k, sign * w0 + k * math.pi) for sign in (1, -1)
                for k in [round((angle - sign * w0.real) / math.pi)]),
               key=lambda kw: abs(kw[1] - angle))
    f = (-1) ** k * (w / cmath.sin(w) if w else 1.0) / t
    return f * (m.a - m.d) / 2, f * m.b, f * m.c, ((w / t) ** 2).real


def log_generator(model, group):
    """Reference X = log(flow element at t)/t, read from the elements alone.
    A coarse X from t = 1e-3 fixes the logarithm's branch at the angle
    0.45 pi, away from trace +-2. Up to 32 more periods, within |t| <= 6 for
    a scaling flow, divide the angle error that remains."""
    t_range = 6.0 if group == "scaling" else math.inf
    gen = _logarithm(model, group, 1e-3, 0.0)
    rate = abs(cmath.sqrt(gen[3]))
    if rate == 0.0:
        return gen
    t = min(t_range, 0.45 * math.pi / rate)
    gen = _logarithm(model, group, t, rate * t)
    periods = min(32.45, t_range * math.sqrt(max(gen[3], 0.0)) / math.pi)
    if periods < 1.45:
        return gen
    w = (math.floor(periods - 0.45) + 0.45) * math.pi
    return _logarithm(model, group, w / math.sqrt(gen[3]), w)


def exp_element(gen, t):
    """exp(tX) = cos(tw) + sin(tw)/w X with w^2 = det X, in closed form from
    the generator: the oracle for the flow elements built from the overlaps."""
    a, b, c, det = gen
    w = cmath.sqrt(det)
    s = cmath.sin(t * w) / w if w else t
    cos = cmath.cos(t * w)
    return mobius.from_coefficients(cos + s * a, s * b, s * c, cos - s * a)


def _x_error(gen, a, b, c):
    """max entry deviation of (a, b, c) from X, relative to X's largest entry."""
    entries = gen[:3]
    return max(abs(x - y) for x, y in zip(entries, (a, b, c))) / max(map(abs, entries))


GENERATOR_CASES = [
    *[(models.IntervalModel(length), "translation")
      for length in (1e-3, 0.5, 1.0, 2.0, 40.0, 300.0)],
    *[(models.inverse_square(gamma), "scaling")
      for gamma in (-25.0, -2.0, -1.0, -0.3, -0.25 - 3e-10, -0.25, -0.25 + 3e-10,
                    0.0, 0.5, 0.7499)],
]


def _model_id(model):
    return f"l={model.length:g}" if model.name == "interval" else f"gamma={model.gamma!r}"


GENERATOR_IDS = [_model_id(m) for m, _ in GENERATOR_CASES]


# (model, bound on X, bound on det X), relative: 10x the measured deviation
# of the logarithm, 9.6e-16 and 2.9e-15 except where the logarithm itself is
# off: at l = 1e-3, whose fixed point lies 1e-3 from the circle, and at
# gamma = -1/4. Next to -1/4 it fails outright (det X reads 0 at
# -1/4 - 3e-10), so that band is left out.
LOGARITHM_CASES = [
    (models.IntervalModel(1e-3), 6.4e-10, 1.6e-12),
    *[(models.IntervalModel(length), 1e-14, 3e-14)
      for length in (0.5, 1.0, 2.0, 40.0, 300.0)],
    *[(models.inverse_square(gamma), 1e-14, 3e-14)
      for gamma in (-25.0, -2.0, -1.0, -0.3, 0.0, 0.5, 0.7499)],
    (models.inverse_square(-0.25), 2.4e-12, 0.0),
]


class TestGenerator:
    @pytest.mark.parametrize("length", [0.5, 1.0, 2.0, 40.0])
    def test_interval_det_is_quarter_l_squared(self, length):
        assert generator(models.IntervalModel(length), "translation")[3] == length**2 / 4

    @pytest.mark.parametrize("gamma", [-25.0, -2.0, -0.3, -0.25, 0.0, 0.5])
    def test_inverse_square_det(self, gamma):
        # det X = nu^2/4 below -1/4 and -mu^2/4 above
        assert generator(models.inverse_square(gamma), "scaling")[3] == -(gamma + 0.25) / 4

    @pytest.mark.parametrize("model, group", [
        (models.IntervalModel(1.0), "scaling"),
        (models.inverse_square(0.0), "translation"),
    ], ids=["interval-scaling", "invsq-translation"])
    def test_other_subgroups_are_outside_the_group(self, model, group):
        with pytest.raises(OutsideGroup):
            generator(model, group)

    @pytest.mark.parametrize("model, group, t_max, tol", [
        (models.IntervalModel(1.0), "translation", 700.0, 9e-15),
        (models.IntervalModel(40.0), "translation", 700.0, 1e-14),
        (models.inverse_square(0.0), "scaling", 50.0, 4e-14),
        (models.inverse_square(-2.0), "scaling", 700.0, 8e-15),
        (models.inverse_square(-0.26), "scaling", 700.0, 1e-13),
        (models.inverse_square(-0.25), "scaling", 690.0, 1.2e-13),
        (models.inverse_square(0.5), "scaling", 30.0, 4e-14),
        (models.inverse_square(0.74), "scaling", 25.0, 3.5e-14),
        (models.inverse_square(-1000.0), "scaling", 700.0, 2e-14),
    ], ids=["l=1", "l=40", "gamma=0", "gamma=-2", "gamma=-0.26", "gamma=-0.25",
            "gamma=0.5", "gamma=0.74", "gamma=-1000"])
    def test_exponential_reproduces_flow_elements(self, model, group, t_max, tol):
        # the action on the sample parameters, out to t_max: the hyperbolic
        # flows up to below their condition guard (3.6e10 at gamma = 0,
        # t = 50), the others to the edge of the float range. Bounds are 10x
        # the measured 8.5e-16, 9.4e-16, 3.6e-15, 7.8e-16, 1e-14, 1.2e-14,
        # 4e-15, 3.5e-15 and 2e-15. The coefficients are not compared: at
        # unit determinant they grow like sqrt(condition)
        gen = generator(model, group)
        for t in (0.3, 1.1, -2.4, 5.9, 7.0, 25.0, -25.0, 30.0, -30.0, 50.0, -50.0,
                  100.0, -100.0, 200.0, -200.0, 700.0, -690.0):
            if abs(t) > t_max:
                continue
            m = gamma_map(model, subgroup_eval(group, t))
            exact = exp_element(gen, t)
            assert max(abs(mobius.apply(m, v) - mobius.apply(exact, v))
                       for v in flow._sample_parameters(25)) <= tol

    @pytest.mark.parametrize("gamma", [-0.25, -0.26, -2.0, -1000.0, -5e4])
    def test_elements_reach_the_negative_edge(self, gamma):
        # the coefficients, scaled by one power of two, keep a finite
        # determinant out to the float range; measured <= 5e-15 from exp(tX)
        model = models.inverse_square(gamma)
        gen = generator(model, "scaling")
        for t in (-698.0, -700.0, -705.0, -708.5, -709.7):
            m = gamma_map(model, subgroup_eval("scaling", t))
            exact = exp_element(gen, t)
            assert max(abs(mobius.apply(m, v) - mobius.apply(exact, v))
                       for v in flow._sample_parameters(25)) <= 5e-14

    @pytest.mark.parametrize("model, group", GENERATOR_CASES, ids=GENERATOR_IDS)
    def test_central_difference_of_the_elements(self, model, group):
        # 8th-order central difference of the elements at t = 0, each taken
        # with the sign that makes it near +I; measured <= 1.9e-14
        gen = generator(model, group)
        h = 0.02 / max(1.0, *map(abs, gen[:3]))
        diff = np.zeros(3, dtype=complex)
        for k, weight in enumerate((4 / 5, -1 / 5, 4 / 105, -1 / 280), 1):
            for side in (1, -1):
                m = gamma_map(model, subgroup_eval(group, side * k * h))
                sign = 1 if (m.a + m.d).real > 0 else -1
                diff += side * sign * weight / h * np.array([m.a, m.b, m.c])
        assert _x_error(gen, *diff) <= 2e-13

    @pytest.mark.parametrize("model, x_tol, det_tol", LOGARITHM_CASES,
                             ids=[_model_id(m) for m, _, _ in LOGARITHM_CASES])
    def test_logarithm_oracle_agrees(self, model, x_tol, det_tol):
        a, b, c, det = log_generator(model, default_group(model))
        gen = generator(model, default_group(model))
        assert _x_error(gen, a, b, c) <= x_tol
        assert abs(det - gen[3]) <= det_tol * abs(gen[3])

    def test_trivial_flow_has_zero_generator(self, halfline):
        assert generator(halfline, "translation") == (0, 0, 0, 0)
        assert period_detect(halfline, "translation", t_max=10.0) is None


class TestSemiboundedFixedPoints:
    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5, 0.7, 0.7499, -0.25, -0.25 + 1e-10,
                                       *(-0.25 + 10.0 ** -k for k in range(11, 17)),
                                       math.nextafter(-0.25, math.inf)])
    def test_extremal_extensions_are_fixed(self, gamma):
        # X's zeros against the closed-form Friedrichs and Krein parameters,
        # down to one ulp above -1/4; measured <= 3.2e-16
        m = models.inverse_square(gamma)
        v_f, v_k = m.friedrichs_krein()
        found = zeros(*generator(m, "scaling"))
        if gamma == -0.25:
            assert v_f == v_k and len(found) == 1
        else:
            assert len(found) == 2
        for v in (v_f, v_k):
            assert min(abs(z - v) for z in found) <= 1e-15


def random_disk_automorphism(rng):
    w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.9
    while abs(w) >= 0.95:
        w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.9
    return disk_automorphism(w, rng.uniform(0, 2 * math.pi))


class TestTrichotomyConsistency:
    """A circle-preserving flow element with three fixed points, or two of
    which one is interior, must be the identity; no counterexample may
    appear across randomized trials."""

    def _assert_no_counterexample(self, mb):
        if distance_to_identity(mb) < 1e-8:
            return
        fps = mobius.fixed_points(mb)
        if fps is ALL_POINTS:
            return
        in_disk = [z for z in fps
                   if not mobius.is_infinite(z) and abs(z) <= 1 + 1e-9]
        interior = [z for z in in_disk if abs(z) < 1 - 1e-6]
        assert len(fps) <= 2
        assert not (len(in_disk) >= 2 and interior), (
            f"non-identity circle-preserving map with fixed points {fps}")

    def test_synthetic_automorphisms(self):
        rng = np.random.default_rng(11)
        for _ in range(600):
            # coefficient structure (a, b; s conj(b), s conj(a)) with |s| = 1
            # covers the circle-preserving maps
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.5
            if abs(b) >= abs(a) - 0.1:
                continue
            s = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            m = mobius.from_coefficients(a, b, s * b.conjugate(), s * a.conjugate())
            if not mobius.is_disk_self_map(m, 1e-9):
                continue
            self._assert_no_counterexample(m)

    def test_model_flow_elements(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            length = rng.uniform(0.3, 3.0)
            t = rng.uniform(-8, 8)
            m = models.IntervalModel(length)
            element = gamma_map(m, AffineMap(1.0, t))
            conj = random_disk_automorphism(rng)
            composed = compose(conj, compose(element, mobius.inverse(conj)))
            self._assert_no_counterexample(composed)


def _two_pass_element(model, g):
    """The flow element as five records and two passes compute it: the
    Cayley coefficients of the affine oracle times the overlap blocks,
    scaled by one power of two and normalised by mobius.from_coefficients.
    None where the denominator condition passes gamma_map's guard."""
    co = flow_coefficients(g)
    cpp, cpm, cmp, cmm = model.overlap_matrix(g)
    a, b = -co.delta * cmm, co.gamma_c * cmp
    c, d = -co.beta * cpm, co.alpha * cpp
    scale = max(abs(a), abs(b), abs(c), abs(d))
    unit = math.ldexp(1.0, min(1023, -math.frexp(scale)[1]))
    a, b, c, d, scale = a * unit, b * unit, c * unit, d * unit, scale * unit
    det = a * d - b * c
    condition = scale * scale / abs(det) if 0 < abs(det) < math.inf else math.inf
    return None if condition > 1e12 else mobius.from_coefficients(a, b, c, d)


ELEMENT_TS = (-709.7, -700.0, -100.0, -25.0, -2.9, -0.3, 0.0, 1e-300, 0.7, 2.9,
              35.0, 100.0, 700.0)


class TestOnePassElement:
    @pytest.mark.parametrize("model", [
        *(models.IntervalModel(length) for length in (1e-3, 0.5, 1.0, 17.3, 300.0)),
        *(models.inverse_square(gamma) for gamma in (
            -5e4, -25.0, -2.0, -0.3, -0.25 - 1e-11, -0.25, -0.25 + 1e-16, -0.25 + 1e-11,
            0.0, 0.5, 0.7499)),
    ], ids=lambda m: _model_id(m))
    def test_equals_the_two_pass_element(self, model):
        # the same products and roundings in one pass: equal, not close
        group = default_group(model)
        for t in ELEMENT_TS:
            g = subgroup_eval(group, t)
            expected = _two_pass_element(model, g)
            if expected is None:
                with pytest.raises(NearSingularDenominator):
                    gamma_map(model, g)
            else:
                assert gamma_map(model, g) == expected

    # the calls every element makes besides its overlaps: isfinite of the
    # slope and shift, frexp and ldexp of the power-of-two scale, and the
    # square root of the determinant
    _FRAME = {"math.isfinite": 2, "math.frexp": 1, "math.ldexp": 1, "cmath.sqrt": 1}

    @pytest.mark.parametrize("model, t, overlaps", [
        # cos and sin of B = t l/2; t l = 0.3 is where the Taylor series ran
        (models.IntervalModel(1.0), 0.3, {"math.cos": 1, "math.sin": 1}),
        (models.IntervalModel(300.0), -700.0, {"math.cos": 1, "math.sin": 1}),
        # x = log sigma, cosh x, sinh x, and the pair for mu x
        (models.inverse_square(0.5), 0.3,
         {"math.log": 1, "math.cosh": 2, "math.sinh": 2}),
        (models.inverse_square(-0.25), 0.3,
         {"math.log": 1, "math.cosh": 1, "math.sinh": 1}),
        (models.inverse_square(-2.0), 0.3,
         {"math.log": 1, "math.cosh": 1, "math.sinh": 1, "math.cos": 1, "math.sin": 1}),
    ], ids=["interval", "interval-300", "real-mu", "mu-0", "imaginary-mu"])
    def test_libm_calls_per_element(self, model, t, overlaps, monkeypatch):
        # the work counter of one flow element: every math and cmath call it
        # makes, by name, with the model built and g formed beforehand
        g = subgroup_eval(default_group(model), t)
        counts = collections.Counter()

        class Counting:
            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                value = getattr(self.module, name)
                if not callable(value):
                    return value

                def counted(*args):
                    counts[f"{self.module.__name__}.{name}"] += 1
                    return value(*args)
                return counted

        for module in (models, flow, mobius):
            monkeypatch.setattr(module, "math", Counting(math))
            monkeypatch.setattr(module, "cmath", Counting(cmath))
        gamma_map(model, g)
        assert counts == collections.Counter(overlaps) + collections.Counter(self._FRAME)

    def test_errors_at_the_edges(self, invsq0):
        # the condition guard
        g = subgroup_eval("scaling", 100.0)
        assert _two_pass_element(invsq0, g) is None
        with pytest.raises(NearSingularDenominator):
            gamma_map(invsq0, g)
        # no scaling element past |t| = log(float max)
        for t in (709.79, -709.79):
            with pytest.raises(DynamicRangeExceeded):
                gamma_map(invsq0, subgroup_eval("scaling", t))
        # a subnormal slope, whose inverse 1/a overflows
        for g in (AffineMap(5e-324, 0.0), AffineMap(1e-10, 1e300)):
            with pytest.raises(InvalidArgument):
                flow_coefficients(g)
            with pytest.raises(InvalidArgument):
                gamma_map(invsq0, g)


@pytest.mark.parametrize("model", [models.IntervalModel(1.0), models.inverse_square(-2.0),
                                   models.inverse_square(0.5)], ids=lambda m: _model_id(m))
def test_an_element_is_its_linear_fractional_map(model):
    # the blocks are a plain 4-tuple and the element the normalized map
    # itself: no record wraps either
    g = subgroup_eval(default_group(model), 0.7)
    blocks = model.overlap_matrix(g)
    assert type(blocks) is tuple and len(blocks) == 4
    assert all(type(block) is complex for block in blocks)
    m = gamma_map(model, g)
    assert type(m) is mobius.LinearFractionalMap
    assert abs(m.a * m.d - m.b * m.c - 1) <= 1e-15
    assert type(generator(model, default_group(model))) is tuple


@pytest.mark.parametrize("model", [models.IntervalModel(0.5), models.IntervalModel(300.0),
                                   models.inverse_square(-5e4), models.inverse_square(-2.0),
                                   models.inverse_square(-0.25), models.inverse_square(0.0),
                                   models.inverse_square(0.7499)],
                         ids=lambda m: _model_id(m))
def test_sampled_trace_is_the_complex_cosine(model):
    # invariant_extensions reads cos(t sqrt(det X)) as math.cos or math.cosh
    # of t sqrt|det X|: the value cmath.cos gives, bit for bit
    det = generator(model, default_group(model))[3]
    for t in flow.T_SAMPLES:
        wave = math.cos if det > 0 else math.cosh
        assert wave(t * math.sqrt(abs(det))) == cmath.cos(t * cmath.sqrt(det))


@pytest.mark.parametrize("record", [
    AffineMap(2.0, 1.0),
    mobius.LinearFractionalMap(1j, 2j, 3j, 4j),
], ids=lambda r: type(r).__name__)
def test_slotted_records_are_frozen_values(record):
    fields = [f.name for f in dataclasses.fields(record)]
    values = tuple(getattr(record, name) for name in fields)
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0], values[0])
    assert record == type(record)(*values)
    assert hash(record) == hash(type(record)(*values))
    assert record != values


class TestErrors:
    def test_matrix_indices_rejected(self, halfline):
        with pytest.raises(UnsupportedIndices):
            gamma_apply(halfline, IDENTITY, 0.5)

    def test_inconsistent_sets_detected(self, interval, monkeypatch):
        # forcing an impossible tolerance on honest data raises rather than
        # returning a bogus verdict
        monkeypatch.setattr(flow, "FP_TOL", 1e-18)
        with pytest.raises(NumericalInconsistency):
            invariant_extensions(interval, "translation")

    @pytest.mark.parametrize("model", [models.IntervalModel(1.0), models.inverse_square(0.2),
                                       models.inverse_square(-2.0)],
                             ids=["l=1", "gamma=0.2", "gamma=-2"])
    def test_fp_tol_catches_a_turned_element(self, model, monkeypatch):
        # conjugating each element by a turn of 1e-10 keeps its trace and
        # turns its fixed points: FP_TOL = 1e-13 catches that, 1e-7 did not
        turn, back = rotation(1e-10), rotation(-1e-10)

        def turned(model, g, gamma_map=flow.gamma_map):
            return compose(turn, compose(gamma_map(model, g), back))

        group = default_group(model)
        invariant_extensions(model, group)
        monkeypatch.setattr(flow, "gamma_map", turned)
        with pytest.raises(NumericalInconsistency, match="FP_TOL 1e-13"):
            invariant_extensions(model, group)
        monkeypatch.setattr(flow, "FP_TOL", 1e-7)
        invariant_extensions(model, group)
