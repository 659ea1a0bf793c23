"""The harmonic quadrinomial q(z) = b*z^k + conj(z)^n + c*conj(z)^m + z.

q decomposes as h(z) + conj(g(z)) with analytic part h(z) = b*z^k + z and
co-analytic part g(z) = z^n + c*z^m.  All pointwise analysis (Jacobian,
dilatation, orientation) derives from the two Wirtinger derivatives
h'(z) = b*k*z^(k-1) + 1 and g'(z) = n*z^(n-1) + c*m*z^(m-1).

Rounding (Higham, Accuracy and Stability of Numerical Algorithms, 5.1):
with M(x) = |b|x^k + x^n + |c|x^m + x, the computed q(z) is within
gamma*M(|z|) of q(z), the computed h'(z) and g'(z) together within
gamma*M'(|z|), and a computed difference of M values, cancellation and
rounded arguments included, within gamma times the sum of its positive
terms.  So ||h'| - |g'|| - gamma*M'(|z|), `_Majorant.margin`, is positive
only where the sign of |h'| - |g'|, the orientation, is proven;
`classify_point`, `newton_step` and the solver's certificate and cell
test read it.  The Newton update and the Kantorovich test built on it,
`_newton_update` and `_kantorovich`, sit here too: `newton_step` and
`critical` call them, and the quadtree walk, whose cell test is inline,
and the Newton run that the solver's `_kernels` builds inline them.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from .errors import PoleAtCriticalPoint

_UNIT_ROUNDOFF = 2.0**-53


class OrientationClass(enum.Enum):
    SENSE_PRESERVING = "sense-preserving"
    SENSE_REVERSING = "sense-reversing"
    SINGULAR = "singular"


class HarmonicQuadrinomial:
    """Parameter tuple (b, c, k, n, m) with n > m >= 1 and k >= 1.

    b = 0 and c = 0 are admitted; theorem-specific hypotheses (b,c != 0,
    k > n, ...) are checked by the operations that need them.

    Immutable, compared and hashed by value.  A slotted class, not a named
    tuple: q, h' and g' read its fields on every evaluation, and a slot is
    read faster than a tuple item.
    """

    __slots__ = ("b", "c", "k", "n", "m")

    def __init__(self, b: float, c: float, k: int, n: int, m: int):
        for name, v in (("k", k), ("n", n), ("m", m)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not (n > m >= 1):
            raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
        if not (math.isfinite(b) and math.isfinite(c)):
            raise ValueError("coefficients b, c must be finite")
        for name, v in (("b", b), ("c", c), ("k", k), ("n", n), ("m", m)):
            object.__setattr__(self, name, v)

    def _key(self) -> tuple:
        return (self.b, self.c, self.k, self.n, self.m)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}(b={self.b!r}, c={self.c!r}, "
                f"k={self.k!r}, n={self.n!r}, m={self.m!r})")

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# z**0 == 1 for every z in Python (including 0j), which is the convention
# we rely on: for m = 1 the term c*m*z^(m-1) is the constant c even at z = 0.


def evaluate(p: HarmonicQuadrinomial, z: complex) -> complex:
    """q(z); overflow propagates as non-finite output."""
    zb = z.conjugate()
    return p.b * z**p.k + zb**p.n + p.c * zb**p.m + z


def analytic_derivative(p: HarmonicQuadrinomial, z: complex) -> complex:
    """h'(z) = b*k*z^(k-1) + 1."""
    return p.b * p.k * z ** (p.k - 1) + 1.0


def coanalytic_derivative(p: HarmonicQuadrinomial, z: complex) -> complex:
    """g'(z) = n*z^(n-1) + c*m*z^(m-1)."""
    return p.n * z ** (p.n - 1) + p.c * p.m * z ** (p.m - 1)


def jacobian(p: HarmonicQuadrinomial, z: complex) -> float:
    """J(z) = |h'(z)|^2 - |g'(z)|^2; positive where q preserves orientation."""
    hp = analytic_derivative(p, z)
    gp = coanalytic_derivative(p, z)
    return (hp.real * hp.real + hp.imag * hp.imag) - (
        gp.real * gp.real + gp.imag * gp.imag
    )


def dilatation(p: HarmonicQuadrinomial, z: complex) -> complex:
    """omega(z) = g'(z)/h'(z); raises PoleAtCriticalPoint when h'(z) ~ 0."""
    hp = analytic_derivative(p, z)
    # h' is zero within the rounding bound of its own terms (`_Majorant`).
    scale = 1.0 + abs(p.b) * p.k * abs(z) ** (p.k - 1)
    if abs(hp) <= _Majorant(p).gamma * scale:
        raise PoleAtCriticalPoint(
            f"analytic derivative vanishes at z = {z!r} (|h'| = {abs(hp):.3e})"
        )
    return coanalytic_derivative(p, z) / hp


class _Majorant:
    """M(x) = |b|x^k + x^n + |c|x^m + x, its derivatives and the rounding
    factor gamma, with the coefficients hoisted; see the module docstring.
    gamma covers the complex multiplications of the integer powers and the
    three additions.

    On |z| <= x, |h'| + |g'| <= M'(x) and |h''| + |g''| <= M''(x), the
    last a Lipschitz constant of the real Jacobian in the operator norm,
    since DF(z)d = h'(z)d + conj(g'(z)d).
    """

    __slots__ = ("b", "c", "k", "n", "m", "db", "dc", "ddb", "ddc", "ddn", "gamma")

    def __init__(self, p: HarmonicQuadrinomial):
        self.b, self.c = abs(p.b), abs(p.c)
        self.k, self.n, self.m = p.k, p.n, p.m
        self.db, self.dc = self.b * p.k, self.c * p.m
        self.ddb = self.b * p.k * (p.k - 1)
        self.ddc = self.c * p.m * (p.m - 1)
        self.ddn = p.n * (p.n - 1)
        self.gamma = 4.0 * (max(p.k, p.n) + 2) * _UNIT_ROUNDOFF

    def value(self, x: float) -> float:
        return self.b * x**self.k + x**self.n + self.c * x**self.m + x

    def slope(self, x: float) -> float:
        """M'(x); for a degree-1 term x**0 is 1, at x = 0 too."""
        return (
            self.db * x ** (self.k - 1)
            + 1.0
            + self.n * x ** (self.n - 1)
            + self.dc * x ** (self.m - 1)
        )

    def curvature(self, x: float) -> float:
        """M''(x) for x > 0, where the degree-1 terms are 0 * x**-1 = 0."""
        return (
            self.ddb * x ** (self.k - 2)
            + self.ddn * x ** (self.n - 2)
            + self.ddc * x ** (self.m - 2)
        )

    def margin(self, z: complex, hp: complex, gp: complex) -> float:
        """||h'| - |g'|| - gamma*M'(|z|), h'(z) = hp and g'(z) = gp."""
        return abs(abs(hp) - abs(gp)) - self.gamma * self.slope(abs(z))

    def orientation(self, z: complex, hp: complex, gp: complex) -> OrientationClass:
        """The sign of |h'| - |g'|, that of the Jacobian, at z, given
        h'(z) = hp and g'(z) = gp, or SINGULAR where `margin` is not
        positive and rounding hides it."""
        if not self.margin(z, hp, gp) > 0:  # NaN, from overflow, too
            return OrientationClass.SINGULAR
        if abs(hp) > abs(gp):
            return OrientationClass.SENSE_PRESERVING
        return OrientationClass.SENSE_REVERSING


def _newton_update(v: complex, fz: complex, gz: complex) -> complex:
    """The Newton update d, the step from z to its Newton iterate z + d,
    given q(z) = v, h'(z) = fz and g'(z) = gz where `_Majorant.margin` at z
    is positive: d = (conj(gz)*conj(v) - conj(fz)*v)/J, J = |h'|^2 - |g'|^2
    the real system's Jacobian.  The margin gives ||h'| - |g'|| >
    gamma*M'(|z|) >= gamma, so |J| > gamma^2, far above underflow, and the
    computed J, within |J|/3 of J (below), has J's sign.

    Rounding, u the unit roundoff: let d* be the computed update, d^ the
    exact update from the computed v, h' and g', delta = ||h'| - |g'|| and
    s = |h'| + |g'|, so J = s*delta.  The numerator rounds by at most
    4u*s|v| (two complex products, sqrt(2)*gamma_2 each, and a difference),
    J by at most t|J| with t = 4u*s/delta (squares within an ulp, as from
    pow, their sums and the difference), and the quotient by u per part.
    So |d* - d^| <= u|d*| + (4u|v|/delta + t|d*|)/(1 - 2t), up to O(u^2).
    A positive margin needs delta above gamma*M'(|z|) less the margin's own
    rounding, about 3u*s; with gamma >= 16u and M'(|z|) >= s up to
    rounding, delta > 12u*s, so t <= 1/3 and
    |d* - d^| <= (13u*s|d*| + 12u|v|)/delta <= gamma*(M'(|z|)|d*| + |v|)/sigma
    for the margin sigma."""
    gzb = gz.conjugate()
    j = (fz.real**2 + fz.imag**2) - (gzb.real**2 + gzb.imag**2)
    return (gzb * v.conjugate() - fz.conjugate() * v) / j


def _kantorovich(
    maj: _Majorant, z0: complex, r: float, sigma: float, d: complex
) -> Optional[complex]:
    """The Newton iterate z0 + d if D(z0, r) provably holds exactly one
    zero of q, else None; sigma is `_Majorant.margin` at z0 and d the
    computed Newton update there.

    sigma = ||h'(z0)| - |g'(z0)|| - gamma*M'(|z0|) is under rounding at
    most the real Jacobian's smallest singular value and L = M''(|z0| + r)
    bounds its Lipschitz constant on the disk, so the simplified Newton map
    z - DF(z0)^-1 F(z) moves by at most kappa = L*r/sigma per unit on
    D(z0, r).  With kappa < 1/2 and eta + kappa*r < r (eta the first Newton
    step) it maps the disk into itself as a contraction: exactly one zero.
    eta adds gamma*M(|z0|)/sigma for the rounding of q(z0), whose computed
    value can vanish; the margins absorb the rest.  Kantorovich's
    h = kappa*eta/r is then at most about 0.2 < 1/2, so plain Newton from
    z0 converges to that zero.
    """
    lr = maj.curvature(abs(z0) + r) * r  # kappa = lr / sigma
    if not lr < 0.5 * sigma:
        return None
    if abs(d) + (maj.gamma * maj.value(abs(z0)) + lr * r) / sigma < 0.9 * r:
        return z0 + d
    return None


def classify_point(p: HarmonicQuadrinomial, z: complex) -> OrientationClass:
    """`_Majorant.orientation` at z: the sign of |h'| - |g'|, or SINGULAR."""
    return _Majorant(p).orientation(
        z, analytic_derivative(p, z), coanalytic_derivative(p, z)
    )
