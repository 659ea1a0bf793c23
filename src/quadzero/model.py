"""The harmonic quadrinomial q(z) = b*z^k + conj(z)^n + c*conj(z)^m + z.

q decomposes as h(z) + conj(g(z)) with analytic part h(z) = b*z^k + z and
co-analytic part g(z) = z^n + c*z^m.  All pointwise analysis (Jacobian,
dilatation, orientation) derives from the two Wirtinger derivatives
h'(z) = b*k*z^(k-1) + 1 and g'(z) = n*z^(n-1) + c*m*z^(m-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import PoleAtCriticalPoint


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


def classify_point(
    p: HarmonicQuadrinomial, z: complex, tol: float = 1e-12
) -> OrientationClass:
    """Orientation of q at z from the sign of the Jacobian.

    The cutoff is tol * max(1, |h'|^2 + |g'|^2): J scales like the squared
    derivative magnitude, so an absolute cutoff alone misclassifies far
    from the origin.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    hp = analytic_derivative(p, z)
    gp = coanalytic_derivative(p, z)
    h2 = hp.real * hp.real + hp.imag * hp.imag
    g2 = gp.real * gp.real + gp.imag * gp.imag
    cut = tol * max(1.0, h2 + g2)
    j = h2 - g2
    if j > cut:
        return OrientationClass.SENSE_PRESERVING
    if j < -cut:
        return OrientationClass.SENSE_REVERSING
    return OrientationClass.SINGULAR
