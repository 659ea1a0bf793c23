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
only where the sign of |h'| - |g'|, the orientation, is proven; both
`classify_point` and the solver's certificate read it, through
`_Majorant.orientation`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import PoleAtCriticalPoint

_UNIT_ROUNDOFF = 2.0**-53


class OrientationClass(enum.Enum):
    SENSE_PRESERVING = "sense-preserving"
    SENSE_REVERSING = "sense-reversing"
    SINGULAR = "singular"


@dataclass(frozen=True)
class HarmonicQuadrinomial:
    """Parameter tuple (b, c, k, n, m) with n > m >= 1 and k >= 1.

    b = 0 and c = 0 are admitted; theorem-specific hypotheses (b,c != 0,
    k > n, ...) are checked by the operations that need them.
    """

    b: float
    c: float
    k: int
    n: int
    m: int

    def __post_init__(self):
        for name in ("k", "n", "m"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{name} must be an integer, got {v!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (self.n > self.m >= 1):
            raise ValueError(f"need n > m >= 1, got n={self.n}, m={self.m}")
        if not (math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError("coefficients b, c must be finite")


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
    # Scale-aware zero test: |h'| is compared to the size of its own terms.
    scale = 1.0 + abs(p.b) * p.k * abs(z) ** (p.k - 1)
    if abs(hp) < 1e-14 * scale:
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


def classify_point(p: HarmonicQuadrinomial, z: complex) -> OrientationClass:
    """`_Majorant.orientation` at z: the sign of |h'| - |g'|, or SINGULAR."""
    return _Majorant(p).orientation(
        z, analytic_derivative(p, z), coanalytic_derivative(p, z)
    )
