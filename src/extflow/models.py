"""Concrete symmetric operator models behind a single contract: deficiency
indices, overlap blocks of the normalized deficiency vectors against the
model's unitary family, the generator of the flow those blocks induce and
the record of each unitary family. The inverse-square model also names the
parameters of its Friedrichs and Krein extensions. Every datum is a closed
form in ``math`` and ``cmath``.

Gauge conventions are fixed once per model and every reported parameter
value depends on them:

* interval model on (0, l): deficiency representatives e^x and e^{-x},
  normalized by positive reals.
* inverse-square model on (0, inf): the plus representative is
  sqrt(k) sqrt(x) K_mu(kx) with k = exp(-i*pi/4), up to positive reals, the
  solution asymptotic to exp(-k*x) at infinity; the minus representative is
  its complex conjugate, exactly. Its data are Bessel-K closed forms.
* half-line model: indices (0, 1), so it has no parameters and its flow is
  trivial.

The scaling-model unitary for the affine element g(x) = a*x is
(U_g f)(x) = a^{-1/4} f(a^{-1/2} x), the orientation that realizes
U_g A U_g^* = a A on the domain. The one-parameter families printed as
e^{t/4} f(e^{t/2} x) and e^{t/2} f(e^t x) act as U_g for g(x) = e^{-t} x
under this convention; the harness measures the resulting scale factor
instead of assuming one. Every family a model exposes through
``representation`` is one ``Representation`` record,
(U f)(x) = w e^{i kappa x} f(s x). ``weylcheck.represent`` maps exact jets
(f, f', f'') by it, and ``weylcheck.right_shift`` is the contraction
semigroup of i d/dx with f(0) = 0 on the interval and the half-line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .affine import AffineMap, subgroup_eval
from .errors import (
    DynamicRangeExceeded,
    IllPosed,
    InvalidArgument,
    OutsideGroup,
)
# unused here; extbench/tracing.py wraps models.ode_solve and models.quad_finite by name
from .numerics import ode_solve, quad_finite  # noqa: F401


@dataclass(frozen=True, slots=True)
class OverlapData:
    """Blocks c^{pq}(g) = <U_g phi_q, phi_p> for normalized deficiency
    vectors; p is the projection target, q the transported source."""

    cpp: complex
    cpm: complex
    cmp: complex
    cmm: complex


def _int_exp(c: complex, length: float) -> complex:
    """Integral of e^{c x} over [0, length], stable for small |c*length|."""
    z = c * length
    if abs(z) < 0.5:
        term = complex(length)
        total = term
        k = 1
        while abs(term) > 1e-20 * max(1.0, abs(total)):
            term = term * z / (k + 1)
            total += term
            k += 1
        return total
    return (cmath.exp(z) - 1.0) / c


@dataclass(frozen=True)
class Representation:
    """(U f)(x) = w e^{i kappa x} f(s x), with weight w, dilation s and
    frequency kappa; ``weylcheck.represent`` applies it to jets."""

    weight: float
    dilation: float = 1.0
    frequency: float = 0.0


# ---------------------------------------------------------------------------
# interval model: i d/dx on (0, l), Dirichlet at both ends
# ---------------------------------------------------------------------------

class IntervalModel:
    """First-order model on (0, l) with indices (1, 1), invariant under
    translations via multiplication by e^{i x t}; all overlaps in closed form."""

    name = "interval"
    deficiency_dims = (1, 1)
    generator_kind = "first-order"

    def __init__(self, length: float):
        if not length > 0:
            raise InvalidArgument("interval length must be positive")
        self.length = float(length)
        try:
            self.norm_plus = math.sqrt(math.expm1(2 * self.length) / 2)
        except OverflowError:
            raise DynamicRangeExceeded(
                f"||e^x||^2 = (e^(2l) - 1)/2 is not a float at l = {self.length:g}") from None
        self.norm_minus = math.sqrt(-math.expm1(-2 * self.length) / 2)

    def _translation_parameter(self, g: AffineMap) -> float:
        if abs(g.a - 1.0) > 1e-12:
            raise OutsideGroup(
                f"interval model is translation-invariant; got slope {g.a}")
        return g.b

    def overlap_matrix(self, g: AffineMap) -> OverlapData:
        t = self._translation_parameter(g)
        length = self.length
        cross = _int_exp(1j * t, length) / (self.norm_plus * self.norm_minus)
        return OverlapData(
            cpp=_int_exp(2 + 1j * t, length) / self.norm_plus**2,
            cpm=cross,
            cmp=cross,
            cmm=_int_exp(-2 + 1j * t, length) / self.norm_minus**2,
        )

    def generator(self, group: str) -> tuple:
        """(a, b, c, det X) of the flow's generator X = [[a, b], [c, -a]]
        along the translations x -> x + t: (l/2) [[-i coth l, i csch l],
        [-i csch l, i coth l]], with det X = (l/2)^2. Its zeros are
        e^{-l} and e^{l}."""
        if group != "translation":
            raise OutsideGroup("interval model is invariant under translations only")
        half = 0.5 * self.length
        coth, csch = 1.0 / math.tanh(self.length), 1.0 / math.sinh(self.length)
        return -1j * half * coth, 1j * half * csch, -1j * half * csch, half * half

    # continuum actions for the commutation harness -------------------------
    def representation(self, kind: str, t: float) -> Representation:
        """Multiplication by e^{i x t}."""
        if kind != "translation":
            raise OutsideGroup(f"interval model has no {kind!r} representation")
        return Representation(1.0, frequency=t)


# ---------------------------------------------------------------------------
# inverse-square model: -d^2/dx^2 + gamma/x^2 on (0, inf)
# ---------------------------------------------------------------------------

class InverseSquareModel:
    """Second-order model with potential gamma/x^2, indices (1, 1), built for
    GAMMA_MIN <= gamma < 3/4, invariant under scalings about the origin;
    sin(pi mu) overflows below gamma = -51,144.7.

    Every datum is a Bessel-K closed form. In the model's gauge the plus
    representative is sqrt(k) sqrt(x) K_mu(kx) with k = e^{-i pi/4} and
    mu = sqrt(gamma + 1/4) (imaginary below -1/4). The overlap blocks come
    from int_0^inf x K_mu(ax) K_mu(bx) dx (Gradshteyn-Ryzhik 6.521.3) and
    the Friedrichs and Krein parameters from the small-x expansion of K_mu
    (DLMF 10.27.4, 10.25.2).
    """

    name = "inverse-square"
    deficiency_dims = (1, 1)
    generator_kind = "schrodinger"

    GAMMA_MIN = -5e4

    def __init__(self, gamma: float):
        if not self.GAMMA_MIN <= gamma < 0.75:
            raise IllPosed(f"gamma must lie in [{self.GAMMA_MIN:g}, 3/4), got {gamma}: "
                           "the indices are (1, 1) and sin(pi mu) is finite there")
        self.gamma = float(gamma)
        self.mu2 = mu2 = self.gamma + 0.25
        mu = math.sqrt(mu2) if mu2 >= 0 else 1j * math.sqrt(-mu2)
        if mu:
            self._pi_over_sin = math.pi / cmath.sin(math.pi * mu)
            self._half_limit = 0.5 * mu * self._pi_over_sin
        else:
            self._half_limit = 0.5
        self.mu = mu
        self._cos_half = cmath.cos(0.5 * math.pi * mu)
        # ||sqrt(x) K_mu(kx)||^2 = I(k, conj k)
        self._norm_sq = (math.pi / (4 * self._cos_half)).real

    def _integral(self, log_ratio: complex, b2: complex) -> complex:
        """|a/b| I(a, b), |b| = 1, with I(a, b) = int_0^inf x K_mu(ax) K_mu(bx) dx
        = pi (ab)^{-mu} (a^{2 mu} - b^{2 mu}) / (2 sin(mu pi) (a^2 - b^2)):
        with L = log(a/b), pi sinh(mu L) e^{-i Im L} / (2 sin(mu pi) b^2 sinh L).
        It stays finite at L = 0 and at mu = 0, where pi sinh(mu L) / sin(mu pi)
        becomes L, and |a/b| inside sinh L neither under- nor overflows."""
        if log_ratio == 0:
            return self._half_limit / b2
        if self.mu:
            num = cmath.sinh(self.mu * log_ratio) * self._pi_over_sin
        else:
            num = log_ratio
        return num * cmath.exp(-1j * log_ratio.imag) / (2 * b2 * cmath.sinh(log_ratio))

    def _log_sigma(self, g: AffineMap) -> float:
        if abs(g.b) > 1e-12 * max(1.0, abs(g.a)):
            raise OutsideGroup(
                "inverse-square model is invariant under scalings about 0 only")
        return -0.5 * math.log(g.a)

    def overlap_matrix(self, g: AffineMap) -> OverlapData:
        """With a = k sigma, sigma = a_g^{-1/2}: cpp = sigma I(a, conj k) and
        cmp = sigma k I(a, k), over the squared norm."""
        log_sigma = self._log_sigma(g)
        same = self._integral(complex(log_sigma, -0.5 * math.pi), 1j) / self._norm_sq
        cross = (cmath.exp(-0.25j * math.pi) / self._norm_sq
                 * self._integral(log_sigma, -1j))
        return OverlapData(cpp=same, cpm=cross.conjugate(),
                           cmp=cross, cmm=same.conjugate())

    def generator(self, group: str) -> tuple:
        """(a, b, c, det X) of the flow's generator X = [[a, b], [c, -a]]
        along the scalings x -> e^t x: with r = mu/sin(pi mu/2) (2/pi at
        mu = 0), X = (r/2) [[i cos(pi mu/2), -e^{i pi/4}],
        [-e^{-i pi/4}, -i cos(pi mu/2)]] and det X = -mu^2/4. Its zeros are
        e^{i pi (+-mu - 1/2)/2}."""
        if group != "scaling":
            raise OutsideGroup(
                "inverse-square model is invariant under scalings about 0 only")
        # r/2 = (2/pi) (mu pi/(2 sin(mu pi))) cos(pi mu/2), also at mu = 0
        x = (2 / math.pi * self._half_limit * self._cos_half).real
        corner = x * cmath.exp(0.25j * math.pi)
        det = -self.mu2 / 4 if self.mu else 0.0
        return 1j * x * self._cos_half, -corner, -corner.conjugate(), det

    def friedrichs_krein(self) -> tuple[complex, complex]:
        """Parameters (v_F, v_K) of the Friedrichs and Krein extensions, on the
        semibounded range gamma >= -1/4. Near 0 the plus representative is
        c_+ x^{1/2 + mu} + c_- x^{1/2 - mu} + ..., with c_{+-} = (1/2) sqrt(k)
        Gamma(-+mu) (k/2)^{+-mu} (DLMF 10.27.4, 10.25.2), and the minus one has
        the conjugate coefficients. The Friedrichs extension excludes the
        x^{1/2 - mu} branch and the Krein extension the x^{1/2 + mu} branch, so
        each parameter is the v at which phi_+ - v phi_- loses that branch:
        c/conj(c) for the branch's coefficient c. Gamma(-+mu) is real, so these
        are the pure phases e^{i pi (+-mu - 1/2)/2}, the zeros of X, continuous
        down to mu = 0, where both are e^{-i pi/4}."""
        if self.mu2 < 0:
            raise IllPosed(f"gamma {self.gamma} < -1/4: the operator is not "
                           "semibounded, so it has no Friedrichs or Krein extension")
        return (cmath.exp(0.5j * math.pi * (self.mu - 0.5)),
                cmath.exp(-0.5j * math.pi * (self.mu + 0.5)))

    # continuum actions ---------------------------------------------------------
    def representation(self, kind: str, t: float) -> Representation:
        """e^{t/4} f(e^{t/2} x)."""
        if kind != "scaling":
            raise OutsideGroup(f"inverse-square model has no {kind!r} representation")
        subgroup_eval("scaling", -t)   # U_g for g(x) = e^{-t} x, which must exist
        return Representation(math.exp(t / 4), math.exp(t / 2))


# ---------------------------------------------------------------------------
# half-line model: i d/dx on (0, inf) with f(0) = 0, indices (0, 1)
# ---------------------------------------------------------------------------

class HalflineModel:
    """Already maximal dissipative; the parameter set is the single zero map,
    so the flow is trivial. Represents both the multiplication family
    e^{i x t} and the scaling family e^{t/2} f(e^t x)."""

    name = "halfline"
    deficiency_dims = (0, 1)
    generator_kind = "first-order"

    def representation(self, kind: str, t: float) -> Representation:
        """e^{i x t} f(x) for translations, e^{t/2} f(e^t x) for scalings."""
        if kind == "translation":
            return Representation(1.0, frequency=t)
        if kind == "scaling":
            subgroup_eval("scaling", -t)   # g(x) = e^{-t} x must exist
            return Representation(math.exp(t / 2), math.exp(t))
        raise OutsideGroup(f"unknown representation kind {kind!r}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def inverse_square(gamma: float) -> InverseSquareModel:
    return InverseSquareModel(gamma)

