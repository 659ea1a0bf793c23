"""Theorem 3.4's critical circle of the n = k, m = 1 family.

On the 2(k-1) rays where z^k * conj(z) is pure imaginary, |h'| = |g'| on
the circle |z| = ((c^2-1)/(k^2(b^2-1)))^(1/(2k-2)), and q's orientation
flips across it.  The claims below rest on `model` alone: its rounding
model (`_Majorant`), Newton update and Kantorovich test, as the solver's
do; this module sets no tolerance.  `verify_theorem_34` proves, on every
ray, opposite orientations on the two sides of the circle;
`modular_root_census` places each certified zero whose Kantorovich disk
misses the circle, and loads the solver only to find the zeros when no
report is passed.  The two closed forms of the radius,
`univalence_radius` and `circle_image` are plain formulas.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import BEqualsOne, BZero, HypothesisViolation
from .model import HarmonicQuadrinomial, OrientationClass, _Majorant, evaluate
from .model import _kantorovich, _newton_update
from .model import analytic_derivative, classify_point, coanalytic_derivative

if TYPE_CHECKING:
    from .solver import ZeroSetReport


class CriticalCircle(NamedTuple):
    radius: float
    k: int
    exists: bool


class RayCheck(NamedTuple):
    angle: float
    inside: OrientationClass  # classify_point at radius/1.1 * e^{i angle}
    on: OrientationClass  # at radius * e^{i angle}
    outside: OrientationClass  # at 1.1 * radius * e^{i angle}


class CriticalCircleReport(NamedTuple):
    circle: CriticalCircle
    checks: tuple[RayCheck, ...]
    passed: bool


def _circle_ratio(b: float, c: float, k: int) -> tuple[float, float]:
    """(c^2 - 1)/(b^2 - 1) as (r, x), the ratio being r * 2^(x(2k - 2)):
    the circle exists where r is positive, and 2^x scales its radius.
    x = 0 unless b*b overflows or the ratio is not a normal float
    (infinite, NaN, zero or subnormal).  Then c and b, where not below 1,
    are scaled into [0.5, 1) by 2^-u and 2^-v; powers of two change no
    rounding, so r is the ratio, rounded as it would be without overflow
    or underflow, times 2^(2v - 2u).
    Raises ValueError for k < 2 and BEqualsOne for |b| = 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if abs(b) == 1.0:
        raise BEqualsOne("Theorem 3.4 requires b ≠ ±1")
    ratio = (c * c - 1.0) / (b * b - 1.0)
    if sys.float_info.min <= abs(ratio) < math.inf and math.isfinite(b * b):
        return ratio, 0.0
    u, v = max(math.frexp(c)[1], 0), max(math.frexp(b)[1], 0)
    c, b = math.ldexp(c, -u), math.ldexp(b, -v)
    r = (c * c - math.ldexp(1.0, -2 * u)) / (b * b - math.ldexp(1.0, -2 * v))
    return r, (u - v) / (k - 1)


def critical_radius(b: float, c: float, k: int) -> CriticalCircle:
    """Radius of the critical circle for the n = k, m = 1 instance.

    The circle exists iff (c^2 - 1)/(b^2 - 1) > 0; c^2 = 1 makes the
    radius degenerate to 0 and is reported as non-existent.
    """
    ratio, x = _circle_ratio(b, c, k)
    if ratio <= 0.0:
        return CriticalCircle(0.0, k, False)
    radius = (ratio / (k * k)) ** (1.0 / (2 * k - 2)) * 2.0**x
    return CriticalCircle(radius, k, True)


def critical_radius_alt(b: float, c: float, k: int) -> float:
    """`critical_radius(b, c, k).radius` by an algebraically identical
    second closed form, kept for cross-checking; 0.0 where no circle
    exists, and the same errors."""
    ratio, x = _circle_ratio(b, c, k)
    if ratio <= 0.0:
        return 0.0
    return (1.0 / k) ** (1.0 / (k - 1)) * ratio ** (1.0 / (2 * k - 2)) * 2.0**x


def pure_imaginary_rays(k: int) -> list[float]:
    """The 2(k-1) angles where z^k * conj(z) is pure imaginary.

    z = r e^{i theta} gives z^k conj(z) = r^(k+1) e^{i(k-1)theta}, pure
    imaginary iff (k-1)theta = pi/2 mod pi.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return [(0.5 * math.pi + j * math.pi) / (k - 1) for j in range(2 * k - 2)]


def verify_theorem_34(b: float, c: float, k: int) -> CriticalCircleReport:
    """`classify_point` on each pure-imaginary ray at radius/1.1, at the
    circle and at 1.1 * radius.  `passed` when every circle point is
    SINGULAR, |h'| = |g'| within rounding, and on every ray the two others
    have proven, opposite orientations: the circle separates them.  Where
    |b| or |c| is within rounding of 1, the flip is too, and it fails.

    Only ray points are sampled: the theorem is stated under the
    pure-imaginary hypothesis, so off-ray points are out of scope.
    """
    circle = critical_radius(b, c, k)
    if not circle.exists:
        raise HypothesisViolation(
            "critical circle does not exist for these parameters "
            f"(b={b}, c={c}, k={k})"
        )
    p = HarmonicQuadrinomial(b=b, c=c, k=k, n=k, m=1)
    radii = (circle.radius / 1.1, circle.radius, 1.1 * circle.radius)
    checks = tuple(
        RayCheck(theta, *(classify_point(p, s * cmath.exp(1j * theta)) for s in radii))
        for theta in pure_imaginary_rays(k)
    )
    singular = OrientationClass.SINGULAR
    passed = all(
        ch.on is singular
        and singular not in (ch.inside, ch.outside)
        and ch.inside is not ch.outside
        for ch in checks
    )
    return CriticalCircleReport(circle, checks, passed)


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


def circle_image(
    p: HarmonicQuadrinomial, circle_radius: float, samples: int
) -> list[complex]:
    """q on the circle of the given radius: a closed polyline for plotting.
    Raises OverflowError where a sample of q is not finite."""
    if not circle_radius > 0:
        raise ValueError("circle radius must be positive")
    if samples < 16:
        raise ValueError("need at least 16 samples")
    pts = [
        evaluate(p, circle_radius * cmath.exp(2j * math.pi * j / samples))
        for j in range(samples)
    ]
    if not all(map(cmath.isfinite, pts)):
        raise OverflowError(f"q overflows on the circle of radius {circle_radius!r}")
    pts.append(pts[0])
    return pts


def _zero_disk(p: HarmonicQuadrinomial, maj: _Majorant, z: complex) -> float:
    """r for a disk D(z, r) about a certified zero's location z that
    provably holds exactly one zero, or inf where none is proven.
    q(0) = 0 exactly, so r = 0 at the origin.  Elsewhere
    r = 2(|d*| + gamma*M(|z|)/sigma), twice the first Newton step's bound
    in `_kantorovich` (sigma the margin, d* the Newton update at z): the
    test then passes where kappa < 0.4."""
    if z == 0:
        return 0.0
    fz, gz = analytic_derivative(p, z), coanalytic_derivative(p, z)
    sigma = maj.margin(z, fz, gz)
    if not sigma > 0:
        return math.inf
    d = _newton_update(evaluate(p, z), fz, gz)
    r = 2.0 * (abs(d) + maj.gamma * maj.value(abs(z)) / sigma)
    return r if _kantorovich(maj, z, r, sigma, d) is not None else math.inf


def modular_root_census(
    p: HarmonicQuadrinomial, report: Optional[ZeroSetReport] = None
) -> tuple[int, int, int]:
    """(on, inside, outside): the zeros of q placed by the critical circle;
    exploratory output for the open root-census question.  A zero is
    inside or outside when its disk D(z, r) (`_zero_disk`) is, by
    |z| + r < radius or |z| - r > radius.  "On" counts the zeros not placed.

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
        from .solver import find_zeros

        report = find_zeros(p)
    maj = _Majorant(p)
    on = inside = outside = 0
    for rec in report.zeros:
        a = abs(rec.location)
        # An uncertified record, which may stand for several zeros, has no disk.
        r = _zero_disk(p, maj, rec.location) if rec.certified else math.inf
        if a + r < circle.radius:
            inside += 1
        elif a - r > circle.radius:
            outside += 1
        else:
            on += 1
    return on, inside, outside
