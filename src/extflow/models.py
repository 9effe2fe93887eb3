"""Concrete symmetric operator models behind a single contract: deficiency
indices, overlap blocks of the normalized deficiency vectors against the
model's unitary family, the generator of the flow those blocks induce and
the record of each unitary family. The inverse-square model also names the
parameters of its Friedrichs and Krein extensions. Every datum is a closed
form in ``math`` and ``cmath``.

``overlap_matrix`` returns the four blocks as the plain tuple (cpp, cpm, cmp,
cmm), and ``generator`` the tuple (a, b, c, det X). The four overlap blocks
of one subgroup element share their transcendental factors, so an element
takes each once and every factor that does not depend on t is computed at
construction: cos and sin of t l/2 on the interval; on the inverse-square
model x = log sigma, cosh x, sinh x and the pair for mu x (cosh and sinh, or
cos and sin of nu x for mu = i nu; none at mu = 0).

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

from .affine import LOG_MAX, AffineMap, subgroup_eval
from .errors import (
    DynamicRangeExceeded,
    IllPosed,
    InvalidArgument,
    OutsideGroup,
)
# unused here; extbench/tracing.py wraps models.ode_solve and models.quad_finite by name
from .numerics import ode_solve, quad_finite  # noqa: F401


_EIGHTH_TURN = cmath.exp(0.25j * math.pi)


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
    translations via multiplication by e^{i x t}; all overlaps in closed form.
    Built for 0 < l <= log(float max) = 709.78, where X's zero e^l is a float."""

    name = "interval"
    deficiency_dims = (1, 1)
    generator_kind = "first-order"

    def __init__(self, length: float):
        if not length > 0:
            raise InvalidArgument("interval length must be positive")
        self.length = float(length)
        if not self.length <= LOG_MAX:
            raise DynamicRangeExceeded(
                f"X's zero e^l is not a float at l = {self.length:g}")
        # X, and the overlaps' factors: l/2, coth l and cmp = l/sinh l at t = 0
        half = self._half = 0.5 * self.length
        coth = self._coth = 1.0 / math.tanh(self.length)
        csch = 1.0 / math.sinh(self.length)
        self._cross = self.length * csch
        self._generator = (-1j * half * coth, 1j * half * csch, -1j * half * csch, half * half)

    def overlap_matrix(self, g: AffineMap) -> tuple:
        """The blocks (cpp, cpm, cmp, cmm), c^{pq}(g) = <U_g phi_q, phi_p> for
        the normalized deficiency vectors; p is the projection target, q the
        transported source. With B = t l/2 and the phase e^{iB}: cpp = e^{iB}
        sinh(l + iB) / (sinh l (1 + it/2)), cmm the same with -l and -t, and
        cpm = cmp = e^{iB} l (sin B/B)/sinh l, whose sin B/B stays 1 at a
        subnormal B."""
        if abs(g.a - 1.0) > 1e-12:
            raise OutsideGroup(f"interval model is translation-invariant; got slope {g.a}")
        t = g.b
        turn = t * self._half
        try:
            cos, sin = math.cos(turn), math.sin(turn)
        except ValueError:
            raise DynamicRangeExceeded(f"the phase t l/2 is not a float at t = {t:g}") from None
        phase = complex(cos, sin)
        odd = self._coth * sin
        cross = phase * (self._cross * (sin / turn) if turn else self._cross)
        return (phase * complex(cos, odd) / complex(1.0, 0.5 * t), cross, cross,
                phase * complex(cos, -odd) / complex(1.0, -0.5 * t))

    def generator(self, group: str) -> tuple:
        """(a, b, c, det X) of the flow's generator X = [[a, b], [c, -a]]
        along the translations x -> x + t: (l/2) [[-i coth l, i csch l],
        [-i csch l, i coth l]], with det X = (l/2)^2. Its zeros are
        e^{-l} and e^{l}."""
        if group != "translation":
            raise OutsideGroup("interval model is invariant under translations only")
        return self._generator

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
        self._nu = nu = math.sqrt(abs(mu2))     # mu = nu, or i nu below -1/4
        self.mu = mu = nu if mu2 >= 0 else 1j * nu
        # X, t-independent: r/2 = (2/pi) (mu pi/(2 sin(mu pi))) cos(pi mu/2), also at mu = 0
        half_limit = 0.5 * mu * (math.pi / cmath.sin(math.pi * mu)) if mu else 0.5
        cos_half = cmath.cos(0.5 * math.pi * mu)
        half_r = (2 / math.pi * half_limit * cos_half).real
        corner = half_r * _EIGHTH_TURN
        self._generator = (1j * half_r * cos_half, -corner, -corner.conjugate(),
                           -mu2 / 4 if mu else 0.0)
        # the overlaps' real factors cot(pi mu/2) and 1/sin(pi mu/2), for mu = i nu
        # coth(pi nu/2) and 1/sinh(pi nu/2); at mu = 0, where sinh(mu x) is read
        # as x, sin(pi mu/2) read as pi/2 gives their limit 2/pi. _cross: cmp at x = 0
        sin_half = abs(cmath.sin(0.5 * math.pi * mu)) or 0.5 * math.pi
        self._cot, self._rot = cos_half.real / sin_half, _EIGHTH_TURN / sin_half
        self._cross = self._rot * (nu or 1.0)

    def overlap_matrix(self, g: AffineMap) -> tuple:
        """The blocks (cpp, cpm, cmp, cmm): cpp = sigma I(a, conj k) and cmp = sigma k I(a, k) over I(k, conj k),
        a = k sigma, sigma = a_g^{-1/2}. With x = log sigma, they are (cosh mu x
        + i cot(pi mu/2) sinh mu x)/cosh x and e^{i pi/4} sinh(mu x)/(sin(pi
        mu/2) sinh x); for mu = i nu, (cos nu x + i coth(pi nu/2) sin nu x)/cosh
        x and e^{i pi/4} sin(nu x)/(sinh(pi nu/2) sinh x); at x = 0, cmp is
        e^{i pi/4} mu/sin(pi mu/2) (README, "Deficiency gauges")."""
        if abs(g.b) > 1e-12 * max(1.0, abs(g.a)):
            raise OutsideGroup("inverse-square model is invariant under scalings about 0 only")
        x = -0.5 * math.log(g.a)
        y = self._nu * x
        if self.mu2 > 0:
            even, odd = math.cosh(y), math.sinh(y)
        elif self.mu2:
            even, odd = math.cos(y), math.sin(y)
        else:
            even, odd = 1.0, x
        same = complex(even, self._cot * odd) / math.cosh(x)
        cross = self._rot * (odd / math.sinh(x)) if x else self._cross
        return same, cross.conjugate(), cross, same.conjugate()

    def generator(self, group: str) -> tuple:
        """(a, b, c, det X) of the flow's generator X = [[a, b], [c, -a]]
        along the scalings x -> e^t x: with r = mu/sin(pi mu/2) (2/pi at
        mu = 0), X = (r/2) [[i cos(pi mu/2), -e^{i pi/4}],
        [-e^{-i pi/4}, -i cos(pi mu/2)]] and det X = -mu^2/4. Its zeros are
        e^{i pi (+-mu - 1/2)/2}."""
        if group != "scaling":
            raise OutsideGroup(
                "inverse-square model is invariant under scalings about 0 only")
        return self._generator

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

