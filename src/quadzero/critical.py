"""Theorem 3.4's critical circle of the n = k, m = 1 family.

On the 2(k-1) rays where z^k * conj(z) is pure imaginary, |h'| = |g'| on
the circle |z| = ((c^2-1)/(k^2(b^2-1)))^(1/(2k-2)), and q's orientation
flips across it.  The claims below rest on `model` alone: its rounding
model (`_Majorant`), Newton update and Kantorovich test, as the solver's
do; this module sets no tolerance.  `verify_theorem_34` proves, on every
ray, opposite orientations on the two sides of the circle;
`modular_root_census` places each certified zero whose Kantorovich disk
misses the circle, and loads the solver only to find the zeros when no
report is passed.  The two closed forms of the radius and
`univalence_radius` form no square and no power that could overflow or
underflow before the result does: each is a root of a mantissa scaled by
a power of two (`_circle_ratio`, `_root`), within a few ulps where the
result is a normal float.  `circle_image` samples q on a circle.
"""

from __future__ import annotations

import cmath
import math
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


def _circle_ratio(b: float, c: float, k: int) -> tuple[float, int]:
    """(c^2 - 1)/(b^2 - 1) as (r, e), the ratio being r * 2^e with
    1/4 < |r| < 4: the circle exists where r is positive.  No square is
    formed: r = n1*n2/(d1*d2) from the `math.frexp` mantissas of c - 1,
    c + 1, b - 1 and b + 1, and e sums their exponents.  Each difference
    is one rounding of exact operands, so it is exact or within u = 2^-53
    of its value; near c = +-1, where c*c - 1 would cancel, c -+ 1 is
    exact (Sterbenz's lemma), and so for b.  The two products and the
    quotient add 3u: r * 2^e is within 7u of the ratio, relatively.
    Raises ValueError for k < 2 and BEqualsOne for |b| = 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if abs(b) == 1.0:
        raise BEqualsOne("Theorem 3.4 requires b ≠ ±1")
    (n1, e1), (n2, e2) = math.frexp(c - 1.0), math.frexp(c + 1.0)
    (d1, e3), (d2, e4) = math.frexp(b - 1.0), math.frexp(b + 1.0)
    return n1 * n2 / (d1 * d2), e1 + e2 - e3 - e4


def _root(r: float, e: int, d: int, scale: float = 1.0) -> float:
    """scale * (r * 2^e)^(1/d), for r > 0 of moderate size, as from
    `_circle_ratio`, with |r| < 4.  e splits as q*d + s with 0 <= s < d,
    and `math.ldexp` applies 2^q last.  Where s <= 1021, r * 2^s is exact
    and below 2^1023, and the power is of it alone; past that (d > 1022,
    k > 511 in the circle's radius) it would overflow, so the power is of
    r, times 2^(s/d) in [1, 2): no intermediate overflows or underflows
    before the result does.  The root divides r's relative error by d and
    adds about u, as the rounding of 1/d and the product with scale do
    (2^(s/d) adds about u more); the ldexp is exact where the result is
    normal.  So a ratio within 7u gives a result within a few u.  Raises
    OverflowError where the result overflows."""
    q, s = divmod(e, d)
    t = s if s <= 1021 else 0
    return math.ldexp(scale * math.ldexp(r, t) ** (1.0 / d) * 2.0 ** ((s - t) / d), q)


def critical_radius(b: float, c: float, k: int) -> CriticalCircle:
    """Radius of the critical circle for the n = k, m = 1 instance.

    The circle exists iff (c^2 - 1)/(b^2 - 1) > 0; c^2 = 1 makes the
    radius degenerate to 0 and is reported as non-existent.
    Raises OverflowError where the radius overflows.
    """
    r, e = _circle_ratio(b, c, k)
    if r <= 0.0:
        return CriticalCircle(0.0, k, False)
    return CriticalCircle(_root(r / (k * k), e, 2 * k - 2), k, True)


def critical_radius_alt(b: float, c: float, k: int) -> float:
    """`critical_radius(b, c, k).radius` by an algebraically identical
    second closed form, (1/k)^(1/(k-1)) * ratio^(1/(2k-2)), kept for
    cross-checking; 0.0 where no circle exists, and the same errors."""
    r, e = _circle_ratio(b, c, k)
    if r <= 0.0:
        return 0.0
    return _root(r, e, 2 * k - 2, (1.0 / k) ** (1.0 / (k - 1)))


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
    Raises OverflowError where the radius overflows.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if b == 0.0:
        raise BZero("the analytic derivative never vanishes when b = 0")
    m, e = math.frexp(b)
    radius = _root(1.0 / (k * abs(m)), -e, k - 1)
    phase = 0.0 if b < 0 else math.pi  # the argument of -1/(bk)
    points = [
        radius * cmath.exp(1j * (phase + 2.0 * math.pi * j) / (k - 1))
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
