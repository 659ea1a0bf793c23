"""The critical circle separating orientation classes (n = k > m = 1 case).

On the rays where z^k * conj(z) is pure imaginary, |omega(z)| = 1 exactly
on the circle of radius ((c^2-1)/(k^2(b^2-1)))^(1/(2k-2)); inside/outside
that circle the dilatation modulus drops below / rises above 1.  Also
provides the local-univalence radius of the analytic part, the b = 0
orientation inequality, and the exploratory circle-image and modular-root
census outputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BEqualsOne, BZero, HypothesisViolation
from .model import HarmonicQuadrinomial, dilatation, evaluate
from .solver import ZeroSetReport, find_zeros

_ON_TOL = 1e-9  # largest | |omega| - 1 | accepted on the critical circle
_OFF_TOL = 1e-6  # | |omega| - 1 | must exceed this at 1.1x the radius
_EQ_TOL = 1e-12  # relative band where the b = 0 inequality reads "eq"
_CENSUS_BAND = 1e-6  # | |z| - radius | at most this counts as on the circle


@dataclass(frozen=True)
class CriticalCircle:
    radius: float
    k: int
    exists: bool


@dataclass(frozen=True)
class RayCheck:
    angle: float
    omega_abs_on: float  # |omega| at radius * e^{i angle}
    omega_abs_off: float  # |omega| at 1.1 * radius * e^{i angle}


@dataclass(frozen=True)
class CriticalCircleReport:
    circle: CriticalCircle
    checks: tuple[RayCheck, ...]
    max_on_deviation: float
    min_off_deviation: float
    passed: bool


def critical_radius(b: float, c: float, k: int) -> CriticalCircle:
    """Radius of the critical circle for the n = k, m = 1 instance.

    The circle exists iff (c^2 - 1)/(b^2 - 1) > 0; c^2 = 1 makes the
    radius degenerate to 0 and is reported as non-existent.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if abs(b) == 1.0:
        raise BEqualsOne("Theorem 3.4 requires b ≠ ±1")
    ratio = (c * c - 1.0) / (b * b - 1.0)
    if ratio <= 0.0:
        return CriticalCircle(0.0, k, False)
    radius = (ratio / (k * k)) ** (1.0 / (2 * k - 2))
    return CriticalCircle(radius, k, True)


def critical_radius_alt(b: float, c: float, k: int) -> float:
    """`critical_radius(b, c, k).radius` by an algebraically identical
    second closed form, kept for cross-checking; 0.0 where no circle
    exists, and the same errors."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if abs(b) == 1.0:
        raise BEqualsOne("Theorem 3.4 requires b ≠ ±1")
    ratio = (c * c - 1.0) / (b * b - 1.0)
    if ratio <= 0.0:
        return 0.0
    return (1.0 / k) ** (1.0 / (k - 1)) * ratio ** (1.0 / (2 * k - 2))


def pure_imaginary_rays(k: int) -> list[float]:
    """The 2(k-1) angles where z^k * conj(z) is pure imaginary.

    z = r e^{i theta} gives z^k conj(z) = r^(k+1) e^{i(k-1)theta}, pure
    imaginary iff (k-1)theta = pi/2 mod pi.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return [(0.5 * math.pi + j * math.pi) / (k - 1) for j in range(2 * k - 2)]


def verify_theorem_34(b: float, c: float, k: int) -> CriticalCircleReport:
    """Check |omega| = 1 on every ray-circle intersection, and != 1 at 1.1x.

    The converse spot-check samples only ray points: the equivalence is
    stated under the pure-imaginary hypothesis, so off-ray points are out
    of scope.
    """
    circle = critical_radius(b, c, k)
    if not circle.exists:
        raise HypothesisViolation(
            "critical circle does not exist for these parameters "
            f"(b={b}, c={c}, k={k})"
        )
    p = HarmonicQuadrinomial(b=b, c=c, k=k, n=k, m=1)
    checks = []
    for theta in pure_imaginary_rays(k):
        ray = cmath.exp(1j * theta)
        on = abs(dilatation(p, circle.radius * ray))
        off = abs(dilatation(p, 1.1 * circle.radius * ray))
        checks.append(RayCheck(theta, on, off))
    max_on = max(abs(ch.omega_abs_on - 1.0) for ch in checks)
    min_off = min(abs(ch.omega_abs_off - 1.0) for ch in checks)
    return CriticalCircleReport(
        circle=circle,
        checks=tuple(checks),
        max_on_deviation=max_on,
        min_off_deviation=min_off,
        passed=(max_on <= _ON_TOL and min_off > _OFF_TOL),
    )


def univalence_radius(b: float, k: int) -> tuple[float, list[complex]]:
    """Modulus where h' can vanish, plus the k-1 exact critical points.

    Returns ((1/(k|b|))^(1/(k-1)), roots of z^(k-1) = -1/(b k)).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if b == 0.0:
        raise BZero("the analytic derivative never vanishes when b = 0")
    radius = (1.0 / (k * abs(b))) ** (1.0 / (k - 1))
    w = -1.0 / (b * k)
    phase = 0.0 if w > 0 else math.pi
    points = [
        abs(w) ** (1.0 / (k - 1))
        * cmath.exp(1j * (phase + 2.0 * math.pi * j) / (k - 1))
        for j in range(k - 1)
    ]
    return radius, points


def b0_orientation_inequality(c: float, n: int, m: int, z: complex) -> str:
    """Compare 2 Re z^(n-m) against the printed b = 0 threshold expression.

    Implements the source formula verbatim, including the |z|^(2(n-1))
    exponent in the middle term (a direct expansion of |g'|^2 < 1 suggests
    2(n-m); the two coincide when m = 1).  Diagnostic only: orientation
    truth is classify_point.
    """
    if c == 0.0:
        raise ValueError("c must be nonzero")
    if m > 1 and z == 0:
        raise ValueError("z must be nonzero when m > 1")
    lhs = 2.0 * (z ** (n - m)).real
    r = abs(z)
    rhs = (
        r ** (2 * (1 - m)) / (c * m * n)
        - n * r ** (2 * (n - 1)) / (c * m)
        - c * m / n
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    if lhs < rhs - _EQ_TOL * scale:
        return "lt"
    if lhs > rhs + _EQ_TOL * scale:
        return "gt"
    return "eq"


def circle_image(
    p: HarmonicQuadrinomial, circle_radius: float, samples: int
) -> list[complex]:
    """q on the circle of the given radius: a closed polyline for plotting."""
    if not circle_radius > 0:
        raise ValueError("circle radius must be positive")
    if samples < 16:
        raise ValueError("need at least 16 samples")
    pts = [
        evaluate(p, circle_radius * cmath.exp(2j * math.pi * j / samples))
        for j in range(samples)
    ]
    pts.append(pts[0])
    return pts


def modular_root_census(
    p: HarmonicQuadrinomial, report: Optional[ZeroSetReport] = None
) -> tuple[int, int, int]:
    """(on-circle, inside, outside) partition of the zeros of q by the
    critical circle; exploratory output for the open root-census question.

    The circle (Theorem 3.4) belongs to the n = k, m = 1 family only;
    HypothesisViolation for any other family, or where it does not exist.
    """
    if p.n != p.k or p.m != 1:
        raise HypothesisViolation(
            f"critical circle needs n = k and m = 1, got k={p.k} n={p.n} m={p.m}"
        )
    circle = critical_radius(p.b, p.c, p.k)
    if not circle.exists:
        raise HypothesisViolation("critical circle does not exist")
    if report is None:
        report = find_zeros(p)
    on = inside = outside = 0
    for rec in report.zeros:
        d = abs(rec.location) - circle.radius
        if abs(d) <= _CENSUS_BAND:
            on += 1
        elif d < 0:
            inside += 1
        else:
            outside += 1
    return on, inside, outside
